open Symbdd

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* A tiny propositional formula language used as the reference
   semantics: we generate random formulas, build them both as BDDs and
   as evaluation functions, and compare on all assignments over a small
   variable universe.                                                  *)
(* ------------------------------------------------------------------ *)

type form =
  | Var of int
  | Not of form
  | And of form * form
  | Or of form * form
  | Xor of form * form
  | Const of bool

let rec eval_form env = function
  | Var i -> env i
  | Not f -> not (eval_form env f)
  | And (a, b) -> eval_form env a && eval_form env b
  | Or (a, b) -> eval_form env a || eval_form env b
  | Xor (a, b) -> eval_form env a <> eval_form env b
  | Const b -> b

let rec to_bdd = function
  | Var i -> Bdd.var i
  | Not f -> Bdd.neg (to_bdd f)
  | And (a, b) -> Bdd.conj (to_bdd a) (to_bdd b)
  | Or (a, b) -> Bdd.disj (to_bdd a) (to_bdd b)
  | Xor (a, b) -> Bdd.xor (to_bdd a) (to_bdd b)
  | Const true -> Bdd.one
  | Const false -> Bdd.zero

let nvars = 5

let gen_form =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        if size <= 1 then
          oneof [ map (fun i -> Var i) (int_range 0 (nvars - 1));
                  map (fun b -> Const b) bool ]
        else
          oneof
            [
              map (fun i -> Var i) (int_range 0 (nvars - 1));
              map (fun f -> Not f) (self (size - 1));
              map2 (fun a b -> And (a, b)) (self (size / 2)) (self (size / 2));
              map2 (fun a b -> Or (a, b)) (self (size / 2)) (self (size / 2));
              map2 (fun a b -> Xor (a, b)) (self (size / 2)) (self (size / 2));
            ]))

let rec show_form = function
  | Var i -> Printf.sprintf "x%d" i
  | Not f -> Printf.sprintf "!(%s)" (show_form f)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (show_form a) (show_form b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (show_form a) (show_form b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (show_form a) (show_form b)
  | Const b -> string_of_bool b

let arb_form = QCheck.make ~print:show_form gen_form

let assignments =
  (* All 2^nvars environments. *)
  List.init (1 lsl nvars) (fun bits i -> bits land (1 lsl i) <> 0)

let prop_bdd_matches_semantics =
  QCheck.Test.make ~name:"BDD agrees with formula semantics" ~count:500
    arb_form
    (fun f ->
      let b = to_bdd f in
      List.for_all (fun env -> Bdd.eval env b = eval_form env f) assignments)

let prop_canonical =
  (* Semantically equal formulas yield physically equal BDDs. *)
  QCheck.Test.make ~name:"BDDs are canonical" ~count:300
    QCheck.(pair arb_form arb_form)
    (fun (f, g) ->
      let equal_sem =
        List.for_all
          (fun env -> eval_form env f = eval_form env g)
          assignments
      in
      let bf = to_bdd f and bg = to_bdd g in
      Bdd.equal bf bg = equal_sem)

let prop_any_sat =
  QCheck.Test.make ~name:"any_sat produces a model" ~count:500 arb_form
    (fun f ->
      let b = to_bdd f in
      if Bdd.is_zero b then true
      else
        let part = Bdd.any_sat b in
        let env i = match List.assoc_opt i part with Some v -> v | None -> false in
        Bdd.eval env b)

let prop_sat_count =
  QCheck.Test.make ~name:"sat_count equals brute-force count" ~count:300
    arb_form
    (fun f ->
      let b = to_bdd f in
      let brute =
        List.length (List.filter (fun env -> eval_form env f) assignments)
      in
      Bdd.sat_count ~nvars b = float_of_int brute)

let prop_all_sat =
  QCheck.Test.make ~name:"all_sat paths are models and cover sat_count" ~count:200
    arb_form
    (fun f ->
      let b = to_bdd f in
      let paths = List.of_seq (Bdd.all_sat b) in
      let path_models part =
        (* A path with k assigned vars stands for 2^(nvars-k) models. *)
        1 lsl (nvars - List.length part)
      in
      let total = List.fold_left (fun acc p -> acc + path_models p) 0 paths in
      let all_valid =
        List.for_all
          (fun part ->
            let env i =
              match List.assoc_opt i part with Some v -> v | None -> false
            in
            Bdd.eval env b)
          paths
      in
      all_valid && float_of_int total = Bdd.sat_count ~nvars b)

let prop_exists =
  QCheck.Test.make ~name:"exists quantification" ~count:300
    QCheck.(pair arb_form (int_range 0 (nvars - 1)))
    (fun (f, v) ->
      let b = Bdd.exists [ v ] (to_bdd f) in
      List.for_all
        (fun env ->
          let expected =
            eval_form (fun i -> if i = v then false else env i) f
            || eval_form (fun i -> if i = v then true else env i) f
          in
          Bdd.eval env b = expected)
        assignments)

let prop_implies =
  QCheck.Test.make ~name:"implies is semantic entailment" ~count:300
    QCheck.(pair arb_form arb_form)
    (fun (f, g) ->
      let expected =
        List.for_all
          (fun env -> (not (eval_form env f)) || eval_form env g)
          assignments
      in
      Bdd.implies (to_bdd f) (to_bdd g) = expected)

let prop_support =
  QCheck.Test.make ~name:"support variables are exactly the relevant ones"
    ~count:300 arb_form
    (fun f ->
      let b = to_bdd f in
      let relevant v =
        List.exists
          (fun env ->
            eval_form (fun i -> if i = v then false else env i) f
            <> eval_form (fun i -> if i = v then true else env i) f)
          assignments
      in
      let sup = Bdd.support b in
      List.for_all (fun v -> List.mem v sup = relevant v)
        (List.init nvars Fun.id))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                         *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  check "one is sat" true (Bdd.is_sat Bdd.one);
  check "zero is not sat" false (Bdd.is_sat Bdd.zero);
  check "neg one" true (Bdd.equal (Bdd.neg Bdd.one) Bdd.zero);
  check "x and not x" true
    (Bdd.is_zero (Bdd.conj (Bdd.var 0) (Bdd.nvar 0)));
  check "x or not x" true (Bdd.is_one (Bdd.disj (Bdd.var 0) (Bdd.nvar 0)))

let test_restrict () =
  let f = Bdd.ite (Bdd.var 0) (Bdd.var 1) (Bdd.var 2) in
  check "restrict x0=1" true (Bdd.equal (Bdd.restrict 0 true f) (Bdd.var 1));
  check "restrict x0=0" true (Bdd.equal (Bdd.restrict 0 false f) (Bdd.var 2))

let test_size () =
  Alcotest.(check int) "terminal size" 0 (Bdd.size Bdd.one);
  Alcotest.(check int) "var size" 1 (Bdd.size (Bdd.var 3))

(* ------------------------------------------------------------------ *)
(* Bvec                                                               *)
(* ------------------------------------------------------------------ *)

let bv8 = Bvec.sequential ~first:0 ~width:8

let models_of bdd =
  (* All 8-bit values satisfying the BDD. *)
  List.filter
    (fun n -> Bdd.eval (fun i -> n land (1 lsl (7 - i)) <> 0) bdd)
    (List.init 256 Fun.id)

let test_bvec_eq () =
  Alcotest.(check (list int)) "eq 77" [ 77 ] (models_of (Bvec.eq_const bv8 77))

let test_bvec_range () =
  Alcotest.(check (list int)) "range 10..13"
    [ 10; 11; 12; 13 ]
    (models_of (Bvec.in_range bv8 10 13))

let test_bvec_prefix () =
  Alcotest.(check (list int)) "top-3-bit prefix of 0b101xxxxx"
    (List.init 32 (fun i -> 160 + i))
    (models_of (Bvec.prefix_match bv8 ~value:0b10100000 ~len:3))

(* Cubes cost one node per literal plus the literals themselves: a
   32-bit constant is 63 nodes on a fresh manager and an /18 prefix 35,
   where conjoining from the most significant bit down built 528 and
   171. *)
let test_cube_nodes () =
  let nodes f =
    let m = Bdd.Manager.create () in
    ignore (Bdd.with_manager m f);
    (Bdd.Manager.stats m).nodes
  in
  let bv32 = Bvec.sequential ~first:0 ~width:32 in
  Alcotest.(check bool) "32-bit eq_const <= 64 nodes" true
    (nodes (fun () -> Bvec.eq_const bv32 0x5a5a_a5a5) <= 64);
  Alcotest.(check bool) "/18 prefix_match <= 36 nodes" true
    (nodes (fun () -> Bvec.prefix_match bv32 ~value:0x0a14_0000 ~len:18) <= 36)

let prop_bvec_le =
  QCheck.Test.make ~name:"le_const models" ~count:200
    QCheck.(int_range 0 255)
    (fun n ->
      models_of (Bvec.le_const bv8 n) = List.init (n + 1) Fun.id)

let prop_bvec_ge =
  QCheck.Test.make ~name:"ge_const models" ~count:200
    QCheck.(int_range 0 255)
    (fun n ->
      models_of (Bvec.ge_const bv8 n) = List.init (256 - n) (fun i -> n + i))

let prop_bvec_decode =
  QCheck.Test.make ~name:"decode(any_sat(eq n)) = n" ~count:200
    QCheck.(int_range 0 255)
    (fun n ->
      Bvec.read bv8 (Bvec.valuation (Bdd.any_sat (Bvec.eq_const bv8 n))) = n)

let prop_bvec_range_decode =
  QCheck.Test.make ~name:"range witness decodes inside range" ~count:200
    QCheck.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let v =
        Bvec.read bv8 (Bvec.valuation (Bdd.any_sat (Bvec.in_range bv8 lo hi)))
      in
      v >= lo && v <= hi)

(* The decode the valuation replaced: one search of the whole
   assignment per bit, unassigned bits reading as 0. *)
let assoc_decode bv assignment =
  let w = Bvec.width bv in
  snd
    (List.fold_left
       (fun (i, acc) v ->
         match List.assoc_opt v assignment with
         | Some true -> (i + 1, acc lor (1 lsl (w - 1 - i)))
         | _ -> (i + 1, acc))
       (0, 0) (Bvec.vars bv))

(* Vectors over arbitrary (not sequential, possibly repeated) variables
   and assignments that miss some of their bits, bind variables outside
   them, and may bind one variable twice. *)
let arb_decode_case =
  QCheck.make
    ~print:QCheck.Print.(pair (array int) (list (pair int bool)))
    QCheck.Gen.(
      pair
        (array_size (int_range 1 24) (int_bound 39))
        (list_size (int_bound 40) (pair (int_bound 47) bool)))

let prop_valuation_decode =
  QCheck.Test.make ~name:"valuation decode = assoc-list decode" ~count:500
    arb_decode_case
    (fun (vars, assignment) ->
      let bv = Bvec.make vars in
      let vals = Bvec.valuation assignment in
      let expected = assoc_decode bv assignment in
      Bvec.read bv vals = expected
      && List.for_all
           (fun v -> Bvec.value vals v = List.assoc_opt v assignment)
           (List.init 52 (fun v -> v - 2)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "size" `Quick test_size;
          q prop_bdd_matches_semantics;
          q prop_canonical;
          q prop_any_sat;
          q prop_sat_count;
          q prop_all_sat;
          q prop_exists;
          q prop_implies;
          q prop_support;
        ] );
      ( "bvec",
        [
          Alcotest.test_case "eq_const" `Quick test_bvec_eq;
          Alcotest.test_case "in_range" `Quick test_bvec_range;
          Alcotest.test_case "prefix_match" `Quick test_bvec_prefix;
          Alcotest.test_case "cubes are linear" `Quick test_cube_nodes;
          q prop_bvec_le;
          q prop_bvec_ge;
          q prop_bvec_decode;
          q prop_bvec_range_decode;
          q prop_valuation_decode;
        ] );
    ]
