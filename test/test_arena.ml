(* Tests for the BDD arena's manager contracts: the frozen-base/delta
   sharing, the bounded computed table and the stats surface. DESIGN.md
   §15. The operations themselves are checked against brute-force
   semantics in test_bdd. *)

open Symbdd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let nvars = 5

let test_list_short_circuit () =
  (* An absorbing element early in the list must not change results
     regardless of what follows it. *)
  Bdd.with_manager (Bdd.Manager.create ()) @@ fun () ->
  check_bool "conj_list hits zero" true
    (Bdd.is_zero (Bdd.conj_list [ Bdd.var 0; Bdd.zero; Bdd.nvar 0 ]));
  check_bool "disj_list hits one" true
    (Bdd.is_one (Bdd.disj_list [ Bdd.var 0; Bdd.one; Bdd.nvar 0 ]))

(* ------------------------------------------------------------------ *)
(* The frozen-base / delta contract.                                  *)
(* ------------------------------------------------------------------ *)

let test_freeze_blocks_alloc () =
  let m = Bdd.Manager.create () in
  Bdd.with_manager m (fun () -> ignore (Bdd.var 0));
  Bdd.Manager.freeze m;
  check_bool "frozen flag" true (Bdd.Manager.frozen m);
  (* Existing nodes are still reachable... *)
  Bdd.with_manager m (fun () -> ignore (Bdd.var 0));
  (* ...but new allocations raise. *)
  check_bool "alloc raises" true
    (try
       Bdd.with_manager m (fun () -> ignore (Bdd.var 7));
       false
     with Invalid_argument _ -> true)

let test_delta_requires_frozen_root () =
  let m = Bdd.Manager.create () in
  check_bool "unfrozen base rejected" true
    (try
       ignore (Bdd.Manager.create_delta m);
       false
     with Invalid_argument _ -> true);
  Bdd.Manager.freeze m;
  let d = Bdd.Manager.create_delta m in
  Bdd.Manager.freeze d;
  check_bool "delta-of-delta rejected" true
    (try
       ignore (Bdd.Manager.create_delta d);
       false
     with Invalid_argument _ -> true)

let test_delta_isolation () =
  let base = Bdd.Manager.create () in
  let shared =
    Bdd.with_manager base (fun () -> Bdd.conj (Bdd.var 0) (Bdd.var 1))
  in
  Bdd.Manager.freeze base;
  let base_nodes = (Bdd.Manager.stats base).Bdd.Manager.nodes in
  let delta = Bdd.Manager.create_delta base in
  let obs1 =
    Bdd.with_manager delta (fun () ->
        (* Base handles are usable under the delta; new structure lands
           in the delta only. *)
        let f = Bdd.disj shared (Bdd.var 3) in
        (Bdd.size f, Bdd.sat_count ~nvars f, Bdd.support f))
  in
  check_int "base untouched by delta work" base_nodes
    (Bdd.Manager.stats base).Bdd.Manager.nodes;
  check_bool "delta grew" true ((Bdd.Manager.stats delta).Bdd.Manager.nodes > 0);
  (* Reset rewinds the delta to the base boundary, not to empty, and
     rebuilding afterwards reproduces the same observations. *)
  Bdd.Manager.reset delta;
  check_int "reset keeps base" base_nodes
    (Bdd.Manager.stats base).Bdd.Manager.nodes;
  check_int "reset empties delta" 0 (Bdd.Manager.stats delta).Bdd.Manager.nodes;
  let obs2 =
    Bdd.with_manager delta (fun () ->
        let f = Bdd.disj shared (Bdd.var 3) in
        (Bdd.size f, Bdd.sat_count ~nvars f, Bdd.support f))
  in
  check_bool "rebuild after reset is deterministic" true (obs1 = obs2);
  check_bool "shared handle still valid in base" true
    (Bdd.with_manager base (fun () -> Bdd.size shared = 2))

let test_cached_falls_through () =
  let base = Bdd.Manager.create () in
  let in_base =
    Bdd.with_manager base (fun () ->
        Bdd.cached ~key:"t" (fun () -> Bdd.conj (Bdd.var 0) (Bdd.var 1)))
  in
  Bdd.Manager.freeze base;
  let delta = Bdd.Manager.create_delta base in
  let called = ref false in
  let got =
    Bdd.with_manager delta (fun () ->
        Bdd.cached ~key:"t" (fun () ->
            called := true;
            Bdd.zero))
  in
  check_bool "no recompilation under delta" false !called;
  check_bool "same handle as base compilation" true (Bdd.equal got in_base)

(* Four domains, each under its own delta on one frozen base, must
   observe exactly what a serial delta observes. *)
let test_cross_domain_deltas () =
  let base = Bdd.Manager.create () in
  let vs = Bdd.with_manager base (fun () -> List.init 4 Bdd.var) in
  Bdd.Manager.freeze base;
  let job k =
    Bdd.with_manager (Bdd.Manager.create_delta base) (fun () ->
        let f =
          Bdd.conj_list
            (List.mapi (fun i v -> if i = k then Bdd.neg v else v) vs)
        in
        (Bdd.size f, Bdd.sat_count ~nvars f))
  in
  let serial = List.init 4 job in
  let domains = List.init 4 (fun k -> Domain.spawn (fun () -> job k)) in
  let parallel = List.map Domain.join domains in
  check_bool "parallel deltas agree with serial" true (serial = parallel)

(* ------------------------------------------------------------------ *)
(* Bounded memos: a tiny bound forces generation evictions without
   changing any result.                                               *)
(* ------------------------------------------------------------------ *)

let test_memo_eviction () =
  let bv m = Bdd.with_manager m in
  let small = Bdd.Manager.create ~memo_bound:64 () in
  let big = Bdd.Manager.create () in
  let workload m =
    bv m (fun () ->
        let vec = Bvec.sequential ~first:0 ~width:8 in
        let s = ref 0 in
        for lo = 0 to 63 do
          let r = Bvec.in_range vec lo (lo + 128) in
          s := !s + Bdd.size (Bdd.conj r (Bvec.le_const vec 200))
        done;
        !s)
  in
  let a = workload small and b = workload big in
  check_int "bounded memos do not change results" b a;
  check_bool "evictions happened" true
    ((Bdd.Manager.stats small).Bdd.Manager.memo_evictions > 0);
  check_int "default manager never evicts" 0
    (Bdd.Manager.stats big).Bdd.Manager.memo_evictions

(* ------------------------------------------------------------------ *)
(* One computed table: its operation tags keep results apart.         *)
(* ------------------------------------------------------------------ *)

(* The function whose truth table over [nvars] variables is [bits],
   laid node by node, so building it computes no operation. *)
let of_table bits =
  let rec go v i =
    if v = nvars then if bits land (1 lsl i) <> 0 then Bdd.one else Bdd.zero
    else Bdd.node v ~lo:(go (v + 1) i) ~hi:(go (v + 1) (i lor (1 lsl v)))
  in
  go 0 0

let table b =
  List.init (1 lsl nvars) (fun i -> Bdd.eval (fun v -> i land (1 lsl v) <> 0) b)

(* Every operation the computed table memoizes, on the functions [f],
   [g], [h] and a restriction [(v, b)]. [conj], [disj] and [xor] memoize
   under the key [(f, g)], so under one tag any of them would answer
   for another. *)
let operations =
  [
    ("conj", fun (f, g, _, _) -> Bdd.conj f g);
    ("disj", fun (f, g, _, _) -> Bdd.disj f g);
    ("xor", fun (f, g, _, _) -> Bdd.xor f g);
    ("diff", fun (f, g, _, _) -> Bdd.diff f g);
    ("neg", fun (f, _, _, _) -> Bdd.neg f);
    ("restrict", fun (f, _, _, (v, b)) -> Bdd.restrict v b f);
    ("ite", fun (f, g, h, _) -> Bdd.ite f g h);
  ]

(* All seven operations in a shuffled order in one manager, each result
   against the same operation alone in a fresh manager, by truth
   table. *)
let prop_operations_apart ?memo_bound name =
  let gen =
    QCheck.Gen.(
      let bits = int_bound 0xFFFF_FFFF in
      triple (triple bits bits bits)
        (pair (int_bound (nvars - 1)) bool)
        (shuffle_l (List.map fst operations)))
  in
  let print ((f, g, h), (v, b), order) =
    Printf.sprintf "f=%#x g=%#x h=%#x restrict x%d=%b order=%s" f g h v b
      (String.concat "," order)
  in
  QCheck.Test.make ~name ~count:500 (QCheck.make ~print gen)
    (fun ((f, g, h), r, order) ->
      let args () = (of_table f, of_table g, of_table h, r) in
      let shared =
        Bdd.with_manager (Bdd.Manager.create ?memo_bound ()) (fun () ->
            let a = args () in
            List.map (fun op -> (op, table (List.assoc op operations a))) order)
      in
      List.for_all
        (fun (op, got) ->
          let alone =
            Bdd.with_manager (Bdd.Manager.create ()) (fun () ->
                table (List.assoc op operations (args ())))
          in
          got = alone
          || QCheck.Test.fail_reportf "%s differs from %s alone" op op)
        shared)

(* ------------------------------------------------------------------ *)
(* Stats surface sanity for the new gauges.                           *)
(* ------------------------------------------------------------------ *)

let test_stats_surface () =
  let m = Bdd.Manager.create () in
  Bdd.with_manager m (fun () -> ignore (Bdd.conj (Bdd.var 0) (Bdd.var 1)));
  let s = Bdd.Manager.stats m in
  check_bool "arena capacity covers nodes" true
    (s.Bdd.Manager.arena_capacity >= s.Bdd.Manager.nodes);
  check_bool "uniq lookups counted" true (s.Bdd.Manager.uniq_lookups > 0);
  check_bool "probe total sane" true
    (s.Bdd.Manager.uniq_probes >= s.Bdd.Manager.uniq_lookups);
  Bdd.Manager.freeze m;
  let d = Bdd.Manager.create_delta m in
  check_int "delta reports base nodes" s.Bdd.Manager.nodes
    (Bdd.Manager.stats d).Bdd.Manager.base_nodes

let () =
  Alcotest.run "arena"
    [
      ( "backends",
        [
          Alcotest.test_case "list short-circuit" `Quick
            test_list_short_circuit;
        ] );
      ( "base-delta",
        [
          Alcotest.test_case "freeze blocks alloc" `Quick
            test_freeze_blocks_alloc;
          Alcotest.test_case "delta requires frozen root" `Quick
            test_delta_requires_frozen_root;
          Alcotest.test_case "delta isolation" `Quick test_delta_isolation;
          Alcotest.test_case "cached falls through" `Quick
            test_cached_falls_through;
          Alcotest.test_case "cross-domain deltas" `Quick
            test_cross_domain_deltas;
        ] );
      ( "memo",
        [
          Alcotest.test_case "bounded eviction" `Quick test_memo_eviction;
          Alcotest.test_case "stats surface" `Quick test_stats_surface;
          QCheck_alcotest.to_alcotest (prop_operations_apart "operations kept apart");
          QCheck_alcotest.to_alcotest
            (prop_operations_apart ~memo_bound:64 "operations kept apart, bound 64");
        ] );
    ]
