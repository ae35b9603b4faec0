open Netaddr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ipv4                                                               *)
(* ------------------------------------------------------------------ *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> check_str s s Ipv4.(to_string (of_string_exn s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "192.168.100.200"; "1.2.3.4" ]

let test_ipv4_reject () =
  List.iter
    (fun s -> check ("reject " ^ s) true (Ipv4.of_string s = None))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "1.2.3.x"; "-1.2.3.4"; "01x.2.3.4";
      "1..2.3"; "1.2.3.1000"; "0x1.0.0.0"; "1_0.0.0.0"; "+2.0.0.0"; "1.-0.0.0";
      "0o7.0.0.0"; "0b1.0.0.0" ];
  (* Prefix lengths are decimal too. *)
  List.iter
    (fun s -> check ("reject " ^ s) true (Prefix.of_string s = None))
    [ "1.0.0.0"; "1.0.0.0/"; "1.0.0.0/33"; "0x1.1_0.+2.-0/8"; "1.0.0.0/+8";
      "1.0.0.0/0x8"; "1.0.0.0/-0"; "1.0.0.0/1_6"; "1.0.0.0/99999999999999999999" ]

let test_ipv4_bits () =
  let a = Ipv4.of_string_exn "128.0.0.1" in
  check "top bit" true (Ipv4.bit a 0);
  check "bit 1" false (Ipv4.bit a 1);
  check "last bit" true (Ipv4.bit a 31);
  let b = Ipv4.with_bit a 0 false in
  check_str "cleared" "0.0.0.1" (Ipv4.to_string b);
  let c = Ipv4.with_bit b 8 true in
  check_str "set bit 8" "0.128.0.1" (Ipv4.to_string c)

let test_ipv4_mask () =
  check_str "/0" "0.0.0.0" Ipv4.(to_string (mask 0));
  check_str "/8" "255.0.0.0" Ipv4.(to_string (mask 8));
  check_str "/24" "255.255.255.0" Ipv4.(to_string (mask 24));
  check_str "/32" "255.255.255.255" Ipv4.(to_string (mask 32));
  check_str "wildcard /24" "0.0.0.255"
    Ipv4.(to_string (wildcard_of_mask (mask 24)))

let test_ipv4_succ_wraps () =
  check_str "succ max" "0.0.0.0" Ipv4.(to_string (succ broadcast));
  check_str "succ" "0.0.1.0" Ipv4.(to_string (succ (of_string_exn "0.0.0.255")))

let prop_ipv4_string_roundtrip =
  QCheck.Test.make ~name:"ipv4 to_string/of_string roundtrip" ~count:500
    QCheck.(int_range 0 ((1 lsl 32) - 1))
    (fun n ->
      let a = Ipv4.of_int n in
      Ipv4.of_string (Ipv4.to_string a) = Some a)

let prop_ipv4_bit_with_bit =
  QCheck.Test.make ~name:"ipv4 with_bit/bit agree" ~count:500
    QCheck.(triple (int_range 0 ((1 lsl 32) - 1)) (int_range 0 31) bool)
    (fun (n, i, v) ->
      let a = Ipv4.with_bit (Ipv4.of_int n) i v in
      Ipv4.bit a i = v)

(* ------------------------------------------------------------------ *)
(* Prefix                                                             *)
(* ------------------------------------------------------------------ *)

let pfx = Prefix.of_string_exn

let test_prefix_canonical () =
  check_str "host bits zeroed" "10.0.0.0/8" (Prefix.to_string (pfx "10.1.2.3/8"));
  check_str "/0" "0.0.0.0/0" (Prefix.to_string (pfx "255.255.255.255/0"));
  check_str "/32 kept" "1.2.3.4/32" (Prefix.to_string (pfx "1.2.3.4/32"))

let test_prefix_contains () =
  check "contains" true (Prefix.contains_ip (pfx "10.0.0.0/8") (Ipv4.of_string_exn "10.255.0.1"));
  check "not contains" false
    (Prefix.contains_ip (pfx "10.0.0.0/8") (Ipv4.of_string_exn "11.0.0.1"));
  check "default contains all" true
    (Prefix.contains_ip Prefix.default (Ipv4.of_string_exn "200.1.2.3"))

let test_prefix_subset () =
  check "subset" true (Prefix.subset (pfx "10.1.0.0/16") (pfx "10.0.0.0/8"));
  check "not subset (reverse)" false
    (Prefix.subset (pfx "10.0.0.0/8") (pfx "10.1.0.0/16"));
  check "disjoint" false (Prefix.subset (pfx "11.0.0.0/8") (pfx "10.0.0.0/8"));
  check "self subset" true (Prefix.subset (pfx "10.0.0.0/8") (pfx "10.0.0.0/8"))

let test_prefix_overlap () =
  check "nested overlap" true (Prefix.overlap (pfx "10.0.0.0/8") (pfx "10.1.0.0/16"));
  check "disjoint" false (Prefix.overlap (pfx "10.0.0.0/8") (pfx "11.0.0.0/8"));
  check "sibling disjoint" false
    (Prefix.overlap (pfx "10.0.0.0/9") (pfx "10.128.0.0/9"))

let test_prefix_first_last () =
  let p = pfx "10.0.0.0/24" in
  check_str "first" "10.0.0.0" (Ipv4.to_string (Prefix.first p));
  check_str "last" "10.0.0.255" (Ipv4.to_string (Prefix.last p));
  check_str "last /0" "255.255.255.255" (Ipv4.to_string (Prefix.last Prefix.default))

let test_prefix_split () =
  (match Prefix.split (pfx "10.0.0.0/8") with
  | Some (a, b) ->
      check_str "lo half" "10.0.0.0/9" (Prefix.to_string a);
      check_str "hi half" "10.128.0.0/9" (Prefix.to_string b)
  | None -> Alcotest.fail "split /8 should succeed");
  check "split /32" true (Prefix.split (pfx "1.2.3.4/32") = None)

let gen_prefix =
  QCheck.Gen.(
    map2
      (fun ip len -> Prefix.make (Ipv4.of_int ip) len)
      (int_range 0 ((1 lsl 32) - 1))
      (int_range 0 32))

let arb_prefix = QCheck.make ~print:Prefix.to_string gen_prefix

let prop_prefix_roundtrip =
  QCheck.Test.make ~name:"prefix to_string/of_string roundtrip" ~count:500
    arb_prefix
    (fun p -> Prefix.of_string (Prefix.to_string p) = Some p)

let prop_prefix_subset_contains =
  QCheck.Test.make ~name:"subset implies containment of first/last" ~count:500
    QCheck.(pair arb_prefix arb_prefix)
    (fun (p, q) ->
      QCheck.assume (Prefix.subset p q);
      Prefix.contains_ip q (Prefix.first p) && Prefix.contains_ip q (Prefix.last p))

let prop_prefix_split_partitions =
  QCheck.Test.make ~name:"split partitions the prefix" ~count:500 arb_prefix
    (fun p ->
      match Prefix.split p with
      | None -> p.Prefix.len = 32
      | Some (a, b) ->
          Prefix.subset a p && Prefix.subset b p
          && (not (Prefix.overlap a b))
          && Ipv4.equal (Ipv4.succ (Prefix.last a)) (Prefix.first b))

(* ------------------------------------------------------------------ *)
(* Prefix_range                                                       *)
(* ------------------------------------------------------------------ *)

let pr ?ge ?le s = Prefix_range.make (pfx s) ~ge ~le

let test_range_defaults () =
  let r = pr "10.0.0.0/8" in
  check "exact matches" true (Prefix_range.matches r (pfx "10.0.0.0/8"));
  check "longer rejected" false (Prefix_range.matches r (pfx "10.1.0.0/16"))

let test_range_le () =
  (* The paper's D1 entry: 10.0.0.0/8 le 24. *)
  let r = pr ~le:24 "10.0.0.0/8" in
  check "matches /8" true (Prefix_range.matches r (pfx "10.0.0.0/8"));
  check "matches /16 inside" true (Prefix_range.matches r (pfx "10.5.0.0/16"));
  check "matches /24 inside" true (Prefix_range.matches r (pfx "10.5.5.0/24"));
  check "rejects /25" false (Prefix_range.matches r (pfx "10.5.5.0/25"));
  check "rejects outside" false (Prefix_range.matches r (pfx "11.0.0.0/16"))

let test_range_ge () =
  (* The paper's D1 entry: 1.0.0.0/20 ge 24. *)
  let r = pr ~ge:24 "1.0.0.0/20" in
  check "rejects /20" false (Prefix_range.matches r (pfx "1.0.0.0/20"));
  check "matches /24" true (Prefix_range.matches r (pfx "1.0.5.0/24"));
  check "matches /32" true (Prefix_range.matches r (pfx "1.0.15.255/32"));
  check "rejects outside" false (Prefix_range.matches r (pfx "1.0.16.0/24"))

let test_range_invalid () =
  Alcotest.check_raises "ge below len rejected"
    (Invalid_argument "Prefix_range.make: bounds must satisfy len <= ge <= le <= 32")
    (fun () -> ignore (pr ~ge:4 "10.0.0.0/8"));
  Alcotest.check_raises "crossed bounds rejected"
    (Invalid_argument "Prefix_range.make: bounds must satisfy len <= ge <= le <= 32")
    (fun () -> ignore (pr ~ge:20 ~le:10 "10.0.0.0/8"))

let test_range_overlap () =
  let a = pr ~le:24 "10.0.0.0/8" in
  let b = pr ~ge:16 ~le:32 "10.1.0.0/16" in
  check "overlap" true (Prefix_range.overlap a b);
  (match Prefix_range.witness_overlap a b with
  | Some w ->
      check "witness in a" true (Prefix_range.matches a w);
      check "witness in b" true (Prefix_range.matches b w)
  | None -> Alcotest.fail "expected witness");
  let c = pr ~ge:25 "10.0.0.0/8" in
  check "disjoint length windows" false (Prefix_range.overlap a c);
  let d = pr ~le:24 "11.0.0.0/8" in
  check "disjoint bits" false (Prefix_range.overlap a d)

let test_range_subset () =
  check "narrower subset" true
    (Prefix_range.subset (pr ~le:20 "10.1.0.0/16") (pr ~ge:8 ~le:24 "10.0.0.0/8"));
  check "wider not subset" false
    (Prefix_range.subset (pr ~ge:8 ~le:24 "10.0.0.0/8") (pr ~le:20 "10.1.0.0/16"));
  check "any covers all" true (Prefix_range.subset (pr ~le:24 "10.0.0.0/8") Prefix_range.any)

let test_range_ge_le_render () =
  check_str "default" "10.0.0.0/8" (Prefix_range.to_string (pr "10.0.0.0/8"));
  check_str "le" "10.0.0.0/8 le 24" (Prefix_range.to_string (pr ~le:24 "10.0.0.0/8"));
  check_str "ge" "1.0.0.0/20 ge 24" (Prefix_range.to_string (pr ~ge:24 "1.0.0.0/20"));
  check_str "ge le" "1.0.0.0/20 ge 24 le 28"
    (Prefix_range.to_string (pr ~ge:24 ~le:28 "1.0.0.0/20"))

let gen_range =
  QCheck.Gen.(
    gen_prefix >>= fun p ->
    let len = p.Prefix.len in
    int_range len 32 >>= fun lo ->
    int_range lo 32 >>= fun hi ->
    return (Prefix_range.make p ~ge:(Some lo) ~le:(Some hi)))

let arb_range = QCheck.make ~print:Prefix_range.to_string gen_range

let prop_range_witness_matches =
  QCheck.Test.make ~name:"range witness matches its range" ~count:500 arb_range
    (fun r -> Prefix_range.matches r (Prefix_range.witness r))

let prop_range_overlap_witness =
  QCheck.Test.make ~name:"overlap witness matched by both" ~count:1000
    QCheck.(pair arb_range arb_range)
    (fun (a, b) ->
      match Prefix_range.witness_overlap a b with
      | Some w -> Prefix_range.matches a w && Prefix_range.matches b w
      | None -> true)

let prop_range_overlap_complete =
  (* If a concrete prefix is matched by both ranges, overlap must say so. *)
  QCheck.Test.make ~name:"overlap detection is complete" ~count:1000
    QCheck.(triple arb_range arb_range arb_prefix)
    (fun (a, b, q) ->
      QCheck.assume (Prefix_range.matches a q && Prefix_range.matches b q);
      Prefix_range.overlap a b)

let prop_range_subset_sound =
  QCheck.Test.make ~name:"subset is sound on samples" ~count:1000
    QCheck.(triple arb_range arb_range arb_prefix)
    (fun (a, b, q) ->
      QCheck.assume (Prefix_range.subset a b && Prefix_range.matches a q);
      Prefix_range.matches b q)

(* Ranges on nested bases in 10.0.0.0/6, so that most pairs overlap. *)
let arb_nested_range =
  QCheck.make ~print:Prefix_range.to_string
    QCheck.Gen.(
      map2
        (fun top len -> Prefix.make (Ipv4.of_octets (8 + top) (top * 64) 0 0) len)
        (int_range 0 3) (int_range 6 10)
      >>= fun p ->
      int_range p.Prefix.len 32 >>= fun lo ->
      int_range lo 32 >>= fun hi ->
      return (Prefix_range.make p ~ge:(Some lo) ~le:(Some hi)))

(* Both are decided on the atoms of the ranges involved
   ({!Prefix_atoms}). *)
let prop_range_inter_exact =
  QCheck.Test.make ~name:"inter matches what both ranges match" ~count:1000
    QCheck.(pair arb_nested_range arb_nested_range)
    (fun (a, b) ->
      let both w = Prefix_range.matches a w && Prefix_range.matches b w in
      let reps = Prefix_atoms.representatives [ a; b ] in
      match Prefix_range.inter a b with
      | None -> not (List.exists both reps)
      | Some r -> List.for_all (fun w -> Prefix_range.matches r w = both w) reps)

let prop_range_first_uncovered_least =
  QCheck.Test.make ~name:"first_uncovered is the least uncovered prefix"
    ~count:1000
    QCheck.(pair arb_nested_range (small_list arb_nested_range))
    (fun (r, rs) ->
      let uncovered w =
        Prefix_range.matches r w
        && not (List.exists (fun t -> Prefix_range.matches t w) rs)
      in
      Prefix_range.first_uncovered r rs
      = List.find_opt uncovered (Prefix_atoms.representatives (r :: rs)))

(* ------------------------------------------------------------------ *)
(* Intset                                                             *)
(* ------------------------------------------------------------------ *)

let iset = Alcotest.testable Intset.pp Intset.equal

let test_intset_basics () =
  check "empty" true (Intset.is_empty Intset.empty);
  check "nonempty" false (Intset.is_empty (Intset.singleton 5));
  check "mem" true (Intset.mem 5 (Intset.range 1 10));
  check "not mem" false (Intset.mem 11 (Intset.range 1 10));
  check_int "cardinal" 10 (Intset.cardinal (Intset.range 1 10));
  check "choose" true (Intset.choose (Intset.range 3 9) = Some 3)

let test_intset_normalize () =
  Alcotest.check iset "adjacent merged" (Intset.range 1 10)
    (Intset.union (Intset.range 1 5) (Intset.range 6 10));
  Alcotest.check iset "overlap merged" (Intset.range 1 10)
    (Intset.union (Intset.range 1 7) (Intset.range 4 10));
  Alcotest.check iset "of_list dedups" (Intset.of_list [ 1; 2; 3 ])
    (Intset.of_list [ 3; 1; 2; 2; 1 ])

let test_intset_ops () =
  let a = Intset.union (Intset.range 0 10) (Intset.range 20 30) in
  let b = Intset.range 5 25 in
  Alcotest.check iset "inter"
    (Intset.union (Intset.range 5 10) (Intset.range 20 25))
    (Intset.inter a b);
  Alcotest.check iset "compl"
    (Intset.union (Intset.range 11 19) (Intset.range 31 40))
    (Intset.compl ~max:40 a);
  Alcotest.check iset "diff" (Intset.union (Intset.range 0 4) (Intset.range 26 30))
    (Intset.diff a b)

let gen_intset =
  QCheck.Gen.(
    list_size (int_range 0 8) (pair (int_range 0 200) (int_range 0 30))
    |> map (fun ivs ->
           List.fold_left
             (fun acc (lo, w) -> Intset.union acc (Intset.range lo (lo + w)))
             Intset.empty ivs))

let arb_intset = QCheck.make ~print:(Format.asprintf "%a" Intset.pp) gen_intset


let prop_intset_union =
  QCheck.Test.make ~name:"union membership" ~count:1000
    QCheck.(triple arb_intset arb_intset (int_range 0 260))
    (fun (a, b, n) ->
      Intset.mem n (Intset.union a b) = (Intset.mem n a || Intset.mem n b))

let prop_intset_inter =
  QCheck.Test.make ~name:"inter membership" ~count:1000
    QCheck.(triple arb_intset arb_intset (int_range 0 260))
    (fun (a, b, n) ->
      Intset.mem n (Intset.inter a b) = (Intset.mem n a && Intset.mem n b))

let prop_intset_compl =
  QCheck.Test.make ~name:"compl membership" ~count:1000
    QCheck.(pair arb_intset (int_range 0 300))
    (fun (a, n) ->
      Intset.mem n (Intset.compl ~max:300 a) = not (Intset.mem n a))

let prop_intset_diff =
  QCheck.Test.make ~name:"diff membership" ~count:1000
    QCheck.(triple arb_intset arb_intset (int_range 0 260))
    (fun (a, b, n) ->
      Intset.mem n (Intset.diff a b) = (Intset.mem n a && not (Intset.mem n b)))

let prop_intset_cardinal =
  QCheck.Test.make ~name:"cardinal counts members" ~count:300 arb_intset
    (fun a ->
      let count = ref 0 in
      for n = 0 to 300 do
        if Intset.mem n a then incr count
      done;
      Intset.cardinal a = !count)

let prop_intset_subset =
  QCheck.Test.make ~name:"subset agrees with membership" ~count:500
    QCheck.(pair arb_intset arb_intset)
    (fun (a, b) ->
      let sub = Intset.subset a b in
      let holds = ref true in
      for n = 0 to 300 do
        if Intset.mem n a && not (Intset.mem n b) then holds := false
      done;
      sub = !holds)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "netaddr"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "reject malformed" `Quick test_ipv4_reject;
          Alcotest.test_case "bit access" `Quick test_ipv4_bits;
          Alcotest.test_case "masks" `Quick test_ipv4_mask;
          Alcotest.test_case "succ wraps" `Quick test_ipv4_succ_wraps;
          q prop_ipv4_string_roundtrip;
          q prop_ipv4_bit_with_bit;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "canonicalization" `Quick test_prefix_canonical;
          Alcotest.test_case "contains" `Quick test_prefix_contains;
          Alcotest.test_case "subset" `Quick test_prefix_subset;
          Alcotest.test_case "overlap" `Quick test_prefix_overlap;
          Alcotest.test_case "first/last" `Quick test_prefix_first_last;
          Alcotest.test_case "split" `Quick test_prefix_split;
          q prop_prefix_roundtrip;
          q prop_prefix_subset_contains;
          q prop_prefix_split_partitions;
        ] );
      ( "prefix_range",
        [
          Alcotest.test_case "defaults" `Quick test_range_defaults;
          Alcotest.test_case "le semantics" `Quick test_range_le;
          Alcotest.test_case "ge semantics" `Quick test_range_ge;
          Alcotest.test_case "invalid bounds" `Quick test_range_invalid;
          Alcotest.test_case "overlap" `Quick test_range_overlap;
          Alcotest.test_case "subset" `Quick test_range_subset;
          Alcotest.test_case "ge/le rendering" `Quick test_range_ge_le_render;
          q prop_range_witness_matches;
          q prop_range_overlap_witness;
          q prop_range_overlap_complete;
          q prop_range_subset_sound;
          q prop_range_inter_exact;
          q prop_range_first_uncovered_least;
        ] );
      ( "intset",
        [
          Alcotest.test_case "basics" `Quick test_intset_basics;
          Alcotest.test_case "normalization" `Quick test_intset_normalize;
          Alcotest.test_case "set operations" `Quick test_intset_ops;
          q prop_intset_union;
          q prop_intset_inter;
          q prop_intset_compl;
          q prop_intset_diff;
          q prop_intset_cardinal;
          q prop_intset_subset;
        ] );
    ]
