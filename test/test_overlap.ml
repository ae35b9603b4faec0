open Config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok src =
  match Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

(* ------------------------------------------------------------------ *)
(* ACL overlap analysis                                               *)
(* ------------------------------------------------------------------ *)

let analyze_acl src name =
  Overlap.Acl_overlap.analyze (Option.get (Database.acl (parse_ok src) name))

let test_no_overlap () =
  let s =
    analyze_acl
      {|
ip access-list extended A
 permit tcp host 1.1.1.1 any eq 80
 permit tcp host 2.2.2.2 any eq 80
 permit udp host 1.1.1.1 any eq 53
|}
      "A"
  in
  check_int "overlaps" 0 s.Overlap.Acl_overlap.overlap_pairs;
  check_int "conflicts" 0 s.Overlap.Acl_overlap.conflict_pairs

let test_trivial_subset_conflict () =
  (* The paper's example: a host permit against deny ip any any. *)
  let s =
    analyze_acl
      {|
ip access-list extended A
 permit tcp host 1.1.1.1 host 2.2.2.2
 deny ip any any
|}
      "A"
  in
  check_int "one overlap" 1 s.Overlap.Acl_overlap.overlap_pairs;
  check_int "one conflict" 1 s.Overlap.Acl_overlap.conflict_pairs;
  check_int "but trivial" 0 s.Overlap.Acl_overlap.nontrivial_conflicts

let test_nontrivial_conflict () =
  (* Partial overlap in both directions. *)
  let s =
    analyze_acl
      {|
ip access-list extended A
 permit tcp 10.0.0.0/9 20.0.0.0/8 eq 80
 deny tcp 10.0.0.0/8 20.0.0.0/9 eq 80
|}
      "A"
  in
  check_int "one overlap" 1 s.Overlap.Acl_overlap.overlap_pairs;
  check_int "one conflict" 1 s.Overlap.Acl_overlap.conflict_pairs;
  check_int "non-trivial" 1 s.Overlap.Acl_overlap.nontrivial_conflicts

let test_same_action_overlap_not_conflict () =
  let s =
    analyze_acl
      {|
ip access-list extended A
 permit tcp 10.0.0.0/9 any eq 80
 permit tcp 10.0.0.0/8 any eq 80
|}
      "A"
  in
  check_int "one overlap" 1 s.Overlap.Acl_overlap.overlap_pairs;
  check_int "no conflict" 0 s.Overlap.Acl_overlap.conflict_pairs

let test_overlap_witness () =
  let acl =
    Option.get
      (Database.acl
         (parse_ok
            {|
ip access-list extended A
 permit tcp 10.0.0.0/9 20.0.0.0/8 eq 80
 deny tcp 10.0.0.0/8 20.0.0.0/9 eq 80
|})
         "A")
  in
  match Overlap.Acl_overlap.pairs acl with
  | [ pair ] -> (
      match Overlap.Acl_overlap.witness pair with
      | Some p ->
          check "matches both rules" true
            (Acl.match_rule pair.Overlap.Acl_overlap.rule_a p
            && Acl.match_rule pair.Overlap.Acl_overlap.rule_b p)
      | None -> Alcotest.fail "expected witness packet")
  | ps -> Alcotest.failf "expected one pair, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* Route-map overlap analysis                                         *)
(* ------------------------------------------------------------------ *)

let test_route_map_overlap () =
  let db =
    parse_ok
      {|
ip prefix-list P1 permit 10.0.0.0/16 le 24
ip prefix-list P2 permit 10.0.0.0/16 le 20
ip prefix-list P3 permit 99.0.0.0/24
route-map RM permit 10
 match ip address prefix-list P1
route-map RM deny 20
 match ip address prefix-list P2
route-map RM permit 30
 match ip address prefix-list P3
|}
  in
  let rm = Option.get (Database.route_map db "RM") in
  let s = Overlap.Route_map_overlap.analyze db rm in
  check_int "one overlap" 1 s.Overlap.Route_map_overlap.overlap_pairs;
  check_int "one conflict" 1 s.Overlap.Route_map_overlap.conflict_pairs;
  (* And a witness route matches both stanzas. *)
  match
    ( rm.Route_map.stanzas,
      Overlap.Route_map_overlap.pairs db rm )
  with
  | [ s1; s2; _ ], [ pair ] ->
      check "pair is stanzas 10/20" true
        (pair.Overlap.Route_map_overlap.stanza_a.Route_map.seq = 10
        && pair.Overlap.Route_map_overlap.stanza_b.Route_map.seq = 20);
      (match Overlap.Route_map_overlap.witness db rm s1 s2 with
      | Some r ->
          check "matches both" true
            (Semantics.stanza_matches db s1 r && Semantics.stanza_matches db s2 r)
      | None -> Alcotest.fail "expected witness route")
  | _ -> Alcotest.fail "unexpected structure"

let test_route_map_as_path_infeasible_overlap () =
  (* Two stanzas whose as-path constraints are mutually exclusive do NOT
     overlap even though their prefix conditions do. *)
  let db =
    parse_ok
      {|
ip as-path access-list ONLY44 permit ^44$
ip as-path access-list NOT44 deny ^44$
ip as-path access-list NOT44 permit .*
ip prefix-list P permit 10.0.0.0/8 le 32
route-map RM permit 10
 match ip address prefix-list P
 match as-path ONLY44
route-map RM deny 20
 match ip address prefix-list P
 match as-path NOT44
|}
  in
  let rm = Option.get (Database.route_map db "RM") in
  let s = Overlap.Route_map_overlap.analyze db rm in
  check_int "no overlap" 0 s.Overlap.Route_map_overlap.overlap_pairs

(* ------------------------------------------------------------------ *)
(* Generator calibration: closed-form counts match the analyzer       *)
(* ------------------------------------------------------------------ *)

let prop_acl_gen_calibrated =
  QCheck.Test.make ~name:"ACL generator matches closed-form counts" ~count:60
    QCheck.(triple (int_range 0 10) (int_range 0 6) bool)
    (fun (plain, crossing, trailing) ->
      let rng = Random.State.make [| plain + (100 * crossing) |] in
      let acl =
        Workload.Acl_gen.make ~rng ~name:"GEN" ~plain ~crossing
          ~trailing_deny_any:trailing
      in
      let s = Overlap.Acl_overlap.analyze acl in
      let overlaps, conflicts, nontrivial =
        Workload.Acl_gen.expected ~plain ~crossing ~trailing_deny_any:trailing
      in
      s.Overlap.Acl_overlap.overlap_pairs = overlaps
      && s.Overlap.Acl_overlap.conflict_pairs = conflicts
      && s.Overlap.Acl_overlap.nontrivial_conflicts = nontrivial)

let prop_route_map_gen_calibrated =
  QCheck.Test.make ~name:"route-map generator matches closed-form counts"
    ~count:40
    QCheck.(triple (int_range 0 5) (int_range 0 4) bool)
    (fun (d, w, catch_all) ->
      let disjoint = List.init d (fun i -> if i mod 2 = 0 then Action.Permit else Action.Deny) in
      let windows = List.init w (fun i -> (Action.Permit, if i mod 2 = 0 then Action.Deny else Action.Permit)) in
      let b =
        Workload.Route_map_gen.make ~db:Database.empty ~name:"GEN" ~disjoint
          ~windows ~catch_all
      in
      let s = Overlap.Route_map_overlap.analyze b.Workload.Route_map_gen.db b.Workload.Route_map_gen.route_map in
      s.Overlap.Route_map_overlap.overlap_pairs
      = Workload.Route_map_gen.expected ~disjoint ~windows ~catch_all)

let test_triple_overlap_map () =
  let b =
    Workload.Route_map_gen.triple_overlap ~db:Database.empty ~name:"T"
  in
  let s =
    Overlap.Route_map_overlap.analyze b.Workload.Route_map_gen.db
      b.Workload.Route_map_gen.route_map
  in
  check_int "three pairs" 3 s.Overlap.Route_map_overlap.overlap_pairs;
  check_int "two conflicting" 2 s.Overlap.Route_map_overlap.conflict_pairs

(* ------------------------------------------------------------------ *)
(* Random corpus with tunable density                                 *)
(* ------------------------------------------------------------------ *)

let prop_density_zero_disjoint =
  QCheck.Test.make ~name:"density 0 produces no overlaps" ~count:50
    QCheck.(pair (int_range 2 20) (int_range 0 1000))
    (fun (rules, seed) ->
      let rng = Random.State.make [| seed |] in
      let acl =
        Workload.Random_corpus.acl ~rng ~name:"RND" ~rules ~overlap_density:0.0
      in
      (Overlap.Acl_overlap.analyze acl).Overlap.Acl_overlap.overlap_pairs = 0)

let prop_density_one_overlaps =
  QCheck.Test.make ~name:"density 1 produces overlaps" ~count:50
    QCheck.(pair (int_range 3 20) (int_range 0 1000))
    (fun (rules, seed) ->
      let rng = Random.State.make [| seed |] in
      let acl =
        Workload.Random_corpus.acl ~rng ~name:"RND" ~rules ~overlap_density:1.0
      in
      (Overlap.Acl_overlap.analyze acl).Overlap.Acl_overlap.overlap_pairs > 0)

let prop_density_route_maps =
  QCheck.Test.make ~name:"route-map density endpoints" ~count:30
    QCheck.(pair (int_range 3 10) (int_range 0 1000))
    (fun (stanzas, seed) ->
      let rng = Random.State.make [| seed |] in
      let db0, rm0 =
        Workload.Random_corpus.route_map ~rng ~db:Database.empty ~name:"R0"
          ~stanzas ~overlap_density:0.0
      in
      let rng = Random.State.make [| seed |] in
      let db1, rm1 =
        Workload.Random_corpus.route_map ~rng ~db:Database.empty ~name:"R1"
          ~stanzas ~overlap_density:1.0
      in
      (Overlap.Route_map_overlap.analyze db0 rm0).Overlap.Route_map_overlap.overlap_pairs
      = 0
      && (Overlap.Route_map_overlap.analyze db1 rm1).Overlap.Route_map_overlap.overlap_pairs
         > 0)

(* Fuzz: on random-corpus maps, symbolic execution agrees with the
   concrete semantics for extracted witnesses. *)
let prop_random_corpus_witnesses_sound =
  QCheck.Test.make ~name:"random-corpus overlap witnesses are real" ~count:30
    QCheck.(pair (int_range 3 10) (int_range 0 1000))
    (fun (stanzas, seed) ->
      let rng = Random.State.make [| seed |] in
      let db, rm =
        Workload.Random_corpus.route_map ~rng ~db:Database.empty ~name:"F"
          ~stanzas ~overlap_density:0.6
      in
      List.for_all
        (fun (p : Overlap.Route_map_overlap.pair) ->
          match
            Overlap.Route_map_overlap.witness db rm p.stanza_a p.stanza_b
          with
          | Some r ->
              Semantics.stanza_matches db p.stanza_a r
              && Semantics.stanza_matches db p.stanza_b r
          | None -> false)
        (Overlap.Route_map_overlap.pairs db rm))

(* ------------------------------------------------------------------ *)
(* Corpus-level summaries (cloud at full scale; campus scaled down)   *)
(* ------------------------------------------------------------------ *)

let test_cloud_acl_summary () =
  let acls = Workload.Cloud.acls () in
  check_int "237 ACLs" 237 (List.length acls);
  let s = Overlap.Corpus.summarize_acls acls in
  check_int "total" 237 s.Overlap.Corpus.total;
  check_int "69 with overlaps" 69 s.Overlap.Corpus.with_overlaps;
  check_int "48 heavy" 48 s.Overlap.Corpus.heavy_overlaps;
  check "gateway has over 100" true (s.Overlap.Corpus.max_overlaps > 100)

let test_cloud_route_map_summary () =
  let db, rms = Workload.Cloud.route_maps () in
  check_int "800 route-maps" 800 (List.length rms);
  let s = Overlap.Corpus.summarize_route_maps db rms in
  check_int "140 with overlaps" 140 s.Overlap.Corpus.rm_with_overlaps;
  check_int "3 heavy" 3 s.Overlap.Corpus.rm_heavy_overlaps

let test_campus_summary_scaled () =
  (* 2% scale keeps the test fast; percentages match the paper within
     rounding of the scaled group sizes. *)
  let acls = Workload.Campus.acls ~scale:0.02 () in
  let s = Overlap.Corpus.summarize_acls acls in
  let pct a b = 100.0 *. float_of_int a /. float_of_int b in
  check "around 37.7% conflicting" true
    (abs_float (pct s.Overlap.Corpus.with_conflicts s.Overlap.Corpus.total -. 37.7) < 3.0);
  check "around 18.6% non-trivial" true
    (abs_float (pct s.Overlap.Corpus.with_nontrivial s.Overlap.Corpus.total -. 18.6) < 3.0);
  check "around 27% of conflicting are heavy" true
    (abs_float (pct s.Overlap.Corpus.heavy_conflicts s.Overlap.Corpus.with_conflicts -. 27.0) < 5.0);
  check "around 16.3% of non-trivial are heavy" true
    (abs_float (pct s.Overlap.Corpus.heavy_nontrivial s.Overlap.Corpus.with_nontrivial -. 16.3) < 5.0)

let test_campus_route_maps () =
  let db, rms = Workload.Campus.route_maps () in
  check_int "169 route-maps" 169 (List.length rms);
  let s = Overlap.Corpus.summarize_route_maps db rms in
  check_int "2 with overlaps" 2 s.Overlap.Corpus.rm_with_overlaps;
  check_int "max 3 pairs" 3 s.Overlap.Corpus.rm_max_overlaps

let test_determinism () =
  let a1 = Workload.Cloud.acls ~seed:7 () in
  let a2 = Workload.Cloud.acls ~seed:7 () in
  check "same corpus for same seed" true (a1 = a2);
  let a3 = Workload.Cloud.acls ~seed:8 () in
  check "different seed differs" true (a1 <> a3)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "overlap"
    [
      ( "acl-analysis",
        [
          Alcotest.test_case "no overlap" `Quick test_no_overlap;
          Alcotest.test_case "trivial subset conflict" `Quick
            test_trivial_subset_conflict;
          Alcotest.test_case "non-trivial conflict" `Quick test_nontrivial_conflict;
          Alcotest.test_case "same action" `Quick
            test_same_action_overlap_not_conflict;
          Alcotest.test_case "witness" `Quick test_overlap_witness;
        ] );
      ( "route-map-analysis",
        [
          Alcotest.test_case "window overlap" `Quick test_route_map_overlap;
          Alcotest.test_case "as-path infeasibility respected" `Quick
            test_route_map_as_path_infeasible_overlap;
        ] );
      ( "generators",
        [
          q prop_acl_gen_calibrated;
          q prop_route_map_gen_calibrated;
          Alcotest.test_case "triple overlap map" `Quick test_triple_overlap_map;
          Alcotest.test_case "determinism" `Quick test_determinism;
          q prop_density_route_maps;
          q prop_density_zero_disjoint;
          q prop_density_one_overlaps;
          q prop_random_corpus_witnesses_sound;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "cloud ACLs" `Slow test_cloud_acl_summary;
          Alcotest.test_case "cloud route-maps" `Slow test_cloud_route_map_summary;
          Alcotest.test_case "campus ACLs (scaled)" `Slow test_campus_summary_scaled;
          Alcotest.test_case "campus route-maps" `Slow test_campus_route_maps;
        ] );
    ]
