(* Property suite for the incremental boundary engine: on randomly
   generated targets and insertion candidates, the compile-once sweep
   must reproduce the naive per-position comparison byte-for-byte —
   same boundary positions, same witness examples, same placements in
   every disambiguation mode, serial or fanned across a worker pool.
   The naive path is reached the same way production would reach it,
   through the CLARIFY_NAIVE_BOUNDARIES environment variable. *)

module D = Clarify.Disambiguator
module Ad = Clarify.Acl_disambiguator
module Pd = Clarify.Prefix_list_disambiguator
module Crp = Engine.Compare_route_policies
module Ca = Engine.Compare_acls

let cases = 220
let ip = Netaddr.Ipv4.of_octets

let with_naive f =
  Unix.putenv Engine.Boundary_mode.env_var "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv Engine.Boundary_mode.env_var "0")
    f

let check_same ~what ~case ~render naive incremental =
  if naive <> incremental then
    Alcotest.failf "case %d: %s diverge@.naive:@.%s@.incremental:@.%s" case
      what
      (String.concat "\n" (List.map render naive))
      (String.concat "\n" (List.map render incremental))

(* ------------------------------------------------------------------ *)
(* Route-maps                                                         *)
(* ------------------------------------------------------------------ *)

(* [deletable] names a community list in the case's database, so that
   list deletions reach the [Comm_update {delete}] pipeline. *)
let random_sets rng ~deletable =
  List.filter_map
    (fun c -> c)
    [
      (if Random.State.bool rng then
         Some (Config.Route_map.Set_local_pref (50 + Random.State.int rng 200))
       else None);
      (if Random.State.int rng 3 = 0 then
         Some (Config.Route_map.Set_metric (Random.State.int rng 500))
       else None);
      (if Random.State.int rng 3 = 0 then
         Some
           (Config.Route_map.Set_community
              {
                communities =
                  [ Bgp.Community.make 65000 (1 + Random.State.int rng 4) ];
                additive = Random.State.bool rng;
              })
       else None);
      (if Random.State.int rng 4 = 0 then
         Some (Config.Route_map.Set_tag (Random.State.int rng 100))
       else None);
      (if Random.State.int rng 3 = 0 then
         Some (Config.Route_map.Set_comm_list_delete deletable)
       else None);
    ]

(* A community list matching some of the communities [random_sets] may
   add, standard or expanded. *)
let deletable_list rng name =
  if Random.State.bool rng then
    Config.Community_list.standard name
      [
        {
          Config.Community_list.action = Config.Action.Permit;
          communities = [ Bgp.Community.make 65000 (1 + Random.State.int rng 4) ];
        };
      ]
  else
    Config.Community_list.expanded name
      [ (Config.Action.Permit, "_65000:[12]_") ]

let route_map_case ?stanzas rng case =
  let stanzas =
    match stanzas with Some n -> n | None -> 1 + Random.State.int rng 7
  in
  let db, target =
    Workload.Random_corpus.route_map ~rng ~db:Config.Database.empty
      ~name:(Printf.sprintf "T%d" case)
      ~stanzas
      ~overlap_density:(Random.State.float rng 1.0)
  in
  (* The candidate stanza matches a prefix window in the same address
     space as the generated stanzas, sometimes wide enough to overlap
     all of them, with random transforms to exercise the Permit/Permit
     set-clause comparison and the community-separating sampler. *)
  let pl_name = Printf.sprintf "NEW%d" case in
  let base, ge =
    if Random.State.int rng 4 = 0 then (Netaddr.Prefix.make (ip 60 0 0 0) 8, 8)
    else (Netaddr.Prefix.make (ip 60 (Random.State.int rng stanzas) 0 0) 16, 16)
  in
  let le = ge + Random.State.int rng (33 - ge) in
  let db =
    Config.Database.add_prefix_list db
      (Config.Prefix_list.make pl_name
         [
           Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
             (Netaddr.Prefix_range.make base ~ge:(Some ge) ~le:(Some le));
         ])
  in
  let deletable = Printf.sprintf "DEL%d" case in
  let db =
    Config.Database.add_community_list db (deletable_list rng deletable)
  in
  let action =
    if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny
  in
  let stanza =
    Config.Route_map.stanza ~seq:5
      ~matches:[ Config.Route_map.Match_prefix_list [ pl_name ] ]
      ~sets:(random_sets rng ~deletable) action
  in
  (db, target, stanza)

let render_rm_question q = Format.asprintf "%a" D.pp_question q

let check_rm_modes ~case ~db ~target ~stanza =
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          let naive =
            with_naive (fun () -> D.run ~mode ~db ~target ~stanza ~oracle ())
          in
          let incr = D.run ~mode ~db ~target ~stanza ~oracle () in
          match (naive, incr) with
          | Ok a, Ok b ->
              if
                a.D.position <> b.D.position
                || a.D.map <> b.D.map
                || a.D.boundaries <> b.D.boundaries
                || a.D.questions <> b.D.questions
              then
                Alcotest.failf
                  "case %d: run outcomes diverge (position %d vs %d)" case
                  a.D.position b.D.position
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: run verdicts diverge" case)
        [ D.always_new; D.always_old ])
    [ D.Binary_search; D.Top_bottom; D.Linear ]

let test_route_map_equivalence () =
  let rng = Random.State.make [| 0x5eed; 1 |] in
  let pool = Parallel.Pool.create ~domains:4 () in
  for case = 0 to cases - 1 do
    let db, target, stanza = route_map_case rng case in
    let naive = with_naive (fun () -> D.boundaries ~db ~target stanza) in
    let incr = D.boundaries ~db ~target stanza in
    check_same ~what:"route-map boundaries" ~case ~render:render_rm_question
      naive incr;
    if case mod 3 = 0 then check_rm_modes ~case ~db ~target ~stanza;
    if case mod 10 = 0 then begin
      let serial = Crp.adjacent_insertions ~naive:false ~db ~target stanza in
      let pooled =
        Crp.adjacent_insertions ~naive:false ~pool ~db ~target stanza
      in
      let pooled_naive =
        Crp.adjacent_insertions ~naive:true ~pool ~db ~target stanza
      in
      let render (i, (d : Crp.difference)) =
        Format.asprintf "%d: %a" i Crp.pp_difference d
      in
      check_same ~what:"pooled incremental sweep" ~case ~render serial pooled;
      check_same ~what:"pooled naive sweep" ~case ~render serial pooled_naive
    end
  done

(* Wide targets put boundaries behind deep fall-throughs: cell [i]'s
   guard conjoins the negations of dozens of earlier stanzas. Boundaries
   only, since the naive reference costs O(n²) per sweep. *)
let wide_cases = 8

let test_route_map_wide_equivalence () =
  let rng = Random.State.make [| 0x5eed; 4 |] in
  for case = 0 to wide_cases - 1 do
    let stanzas = 32 + Random.State.int rng 65 in
    let db, target, stanza = route_map_case ~stanzas rng (cases + case) in
    let naive = with_naive (fun () -> D.boundaries ~db ~target stanza) in
    let incr = D.boundaries ~db ~target stanza in
    check_same ~what:"wide route-map boundaries" ~case ~render:render_rm_question
      naive incr
  done

(* as-path matches mutate the context's blocked-path state during
   sampling, the one place the shared-context sweep could drift from
   fresh per-position contexts; pin one deterministic case. *)
let test_route_map_as_path_case () =
  let db =
    Config.Database.empty
    |> Fun.flip Config.Database.add_as_path_list
         (Config.As_path_list.make "AP100" [ (Config.Action.Permit, "_100_") ])
    |> Fun.flip Config.Database.add_as_path_list
         (Config.As_path_list.make "AP200" [ (Config.Action.Permit, "_200_") ])
  in
  let target =
    Config.Route_map.make "T"
      [
        Config.Route_map.stanza ~seq:10
          ~matches:[ Config.Route_map.Match_as_path [ "AP100" ] ]
          Config.Action.Permit;
        Config.Route_map.stanza ~seq:20
          ~matches:[ Config.Route_map.Match_as_path [ "AP200" ] ]
          Config.Action.Deny;
      ]
  in
  let stanza =
    Config.Route_map.stanza ~seq:5
      ~matches:[ Config.Route_map.Match_as_path [ "AP100" ] ]
      ~sets:[ Config.Route_map.Set_local_pref 200 ]
      Config.Action.Permit
  in
  let db = Config.Database.add_route_map db target in
  let naive = with_naive (fun () -> D.boundaries ~db ~target stanza) in
  let incr = D.boundaries ~db ~target stanza in
  check_same ~what:"as-path boundaries" ~case:0 ~render:render_rm_question
    naive incr

(* ------------------------------------------------------------------ *)
(* Mixed-clause route-maps                                            *)
(* ------------------------------------------------------------------ *)

module Rm = Config.Route_map

(* Lists for stanzas that mix every kind of match. The prefix lists
   have several entries, deny entries and ge/le windows over nested and
   disjoint blocks, and P5 permits nothing; NOPE is undefined. So the
   sweep's range skip meets stanzas it must skip, stanzas it must keep,
   and two-name clauses whose first list is apart from the candidate
   while the second is not. *)
let mixed_db =
  Config.Parser.parse_exn
    {|
ip prefix-list P0 permit 10.0.0.0/16 le 24
ip prefix-list P1 deny 10.1.0.0/20 le 32
ip prefix-list P1 permit 10.1.0.0/16 ge 18 le 28
ip prefix-list P2 permit 10.2.0.0/16 le 32
ip prefix-list P2 permit 10.3.0.0/16 ge 24
ip prefix-list P3 deny 10.0.0.0/8 ge 30
ip prefix-list P3 permit 10.0.0.0/8 le 32
ip prefix-list P4 permit 10.3.0.0/16 le 24
ip prefix-list P5 deny 10.2.0.0/16 le 32
ip community-list standard CS0 permit 65000:1
ip community-list standard CS1 permit 65001:1 300:3
ip community-list expanded CE0 permit _65000:.*_
ip as-path access-list AP0 permit _100_
ip as-path access-list AP1 deny ^200_
ip as-path access-list AP1 permit _100$
|}

let pick rng a = a.(Random.State.int rng (Array.length a))

let mixed_prefix_clause rng =
  let names = [| "P0"; "P1"; "P2"; "P3"; "P4"; "P5"; "NOPE" |] in
  Rm.Match_prefix_list
    (if Random.State.int rng 3 = 0 then [ pick rng names; pick rng names ]
     else [ pick rng names ])

let mixed_other_clause rng =
  match Random.State.int rng 5 with
  | 0 -> Rm.Match_community [ pick rng [| "CS0"; "CS1"; "CE0" |] ]
  | 1 -> Rm.Match_as_path [ pick rng [| "AP0"; "AP1" |] ]
  | 2 -> Rm.Match_metric (pick rng [| 0; 50 |])
  | 3 -> Rm.Match_tag (pick rng [| [ 0 ]; [ 7 ]; [ 0; 7 ] |])
  | _ -> Rm.Match_local_pref (pick rng [| 100; 200 |])

let mixed_sets rng =
  List.filter_map Fun.id
    [
      (if Random.State.bool rng then
         Some (Rm.Set_local_pref (pick rng [| 100; 150; 200 |]))
       else None);
      (if Random.State.int rng 3 = 0 then Some (Rm.Set_metric (pick rng [| 0; 70 |]))
       else None);
      (if Random.State.int rng 3 = 0 then
         Some
           (Rm.Set_community
              {
                communities =
                  [ pick rng [| Bgp.Community.make 65000 1; Bgp.Community.make 300 3 |] ];
                additive = Random.State.bool rng;
              })
       else None);
      (if Random.State.int rng 4 = 0 then Some (Rm.Set_comm_list_delete "CE0")
       else None);
    ]

(* A stanza with a prefix-list clause (one or two names, sometimes
   alongside another clause), or one kind of non-prefix clause alone. *)
let mixed_stanza rng ~with_prefix =
  let matches =
    if with_prefix then
      mixed_prefix_clause rng
      :: (if Random.State.bool rng then [ mixed_other_clause rng ] else [])
    else [ mixed_other_clause rng ]
  in
  let action = if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny in
  Rm.stanza ~matches ~sets:(mixed_sets rng) action

(* The target ends with a stanza naming every community and as-path
   list, so each candidate's lists and communities are already in the
   target's scope: a batch sweep then has the same symbolic universe as
   each candidate's own sweep, and batch ≡ sequential is byte-exact. *)
let mixed_case rng =
  let n = Random.State.int rng 10 in
  let body =
    List.init n (fun _ -> mixed_stanza rng ~with_prefix:(Random.State.int rng 3 > 0))
  in
  let anchor =
    Rm.stanza
      ~matches:[ Rm.Match_community [ "CS0"; "CS1"; "CE0" ]; Rm.Match_as_path [ "AP0"; "AP1" ] ]
      Config.Action.Deny
  in
  let target =
    Rm.make "T" (List.mapi (fun i s -> { s with Rm.seq = (i + 1) * 10 }) (body @ [ anchor ]))
  in
  let candidate () =
    { (mixed_stanza rng ~with_prefix:(Random.State.int rng 4 > 0)) with Rm.seq = 5 }
  in
  (target, List.init (1 + Random.State.int rng 3) (fun _ -> candidate ()))

let test_route_map_mixed_clauses () =
  let rng = Random.State.make [| 0x5eed; 5 |] in
  let pool = Parallel.Pool.create ~domains:4 () in
  let db = mixed_db in
  let render (i, (d : Crp.difference)) = Format.asprintf "%d: %a" i Crp.pp_difference d in
  for case = 0 to cases - 1 do
    let target, candidates = mixed_case rng in
    let sequential =
      List.map
        (fun stanza ->
          let naive = Crp.adjacent_insertions ~naive:true ~db ~target stanza in
          let serial = Crp.adjacent_insertions ~naive:false ~db ~target stanza in
          let pooled = Crp.adjacent_insertions ~naive:false ~pool ~db ~target stanza in
          check_same ~what:"mixed-clause sweep" ~case ~render naive serial;
          check_same ~what:"pooled mixed-clause sweep" ~case ~render naive pooled;
          serial)
        candidates
    in
    List.iter
      (fun pool ->
        let batch = Crp.batch_insertions ?pool ~db ~target candidates in
        List.iteri
          (fun k seq ->
            check_same ~what:"batch vs sequential sweep" ~case ~render seq
              batch.Crp.per_candidate.(k))
          sequential)
      [ None; Some pool ]
  done

(* A candidate whose prefix list is apart from every target stanza's
   never compiles them: its sweep, and a batch holding it, miss the
   compilation cache exactly as often as against an empty target. *)
let test_apart_stanzas_not_compiled () =
  let db = mixed_db in
  let candidate = Rm.stanza ~seq:5 ~matches:[ Rm.Match_prefix_list [ "P4" ] ] Config.Action.Permit in
  let apart k =
    let names = [| [ "P0" ]; [ "P1"; "P5" ]; [ "NOPE" ] |] in
    Rm.make "T"
      (List.init k (fun i ->
           Rm.stanza ~seq:((i + 1) * 10)
             ~matches:[ Rm.Match_prefix_list names.(i mod 3); Rm.Match_metric i ]
             ~sets:[ Rm.Set_local_pref 200 ] Config.Action.Permit))
  in
  let misses f =
    let m = Symbdd.Bdd.Manager.create () in
    ignore (Symbdd.Bdd.with_manager m f);
    (Symbdd.Bdd.Manager.stats m).cache_misses
  in
  let batch target () = Crp.batch_insertions ~db ~target [ candidate ] in
  let empty = misses (batch (apart 0)) in
  Alcotest.(check bool) "the candidate itself is compiled" true (empty > 0);
  List.iter
    (fun k ->
      let target = apart k in
      Alcotest.(check int) (Printf.sprintf "sweep, %d apart stanzas" k) empty
        (misses (fun () -> Crp.adjacent_insertions ~naive:false ~db ~target candidate));
      Alcotest.(check int) (Printf.sprintf "batch, %d apart stanzas" k) empty
        (misses (batch target)))
    [ 1; 3; 16 ]

(* ------------------------------------------------------------------ *)
(* ACLs                                                               *)
(* ------------------------------------------------------------------ *)

let acl_case rng case =
  let rules = 1 + Random.State.int rng 8 in
  let target =
    Workload.Random_corpus.acl ~rng
      ~name:(Printf.sprintf "A%d" case)
      ~rules
      ~overlap_density:(Random.State.float rng 1.0)
  in
  (* The candidate overlaps the generated 30.0.0.0/8 host regions with
     varying width. *)
  let src =
    match Random.State.int rng 3 with
    | 0 -> Config.Acl.Any
    | 1 ->
        Config.Acl.addr_of_prefix
          (Netaddr.Prefix.make (ip 30 (Random.State.int rng 8) 0 0) 12)
    | _ ->
        Config.Acl.addr_of_prefix
          (Netaddr.Prefix.make (ip 30 0 (Random.State.int rng 8) 0) 24)
  in
  let dst_port =
    match Random.State.int rng 3 with
    | 0 -> Config.Acl.Any_port
    | 1 -> Config.Acl.Range (1024, 40000)
    | _ -> Config.Acl.Gt 1000
  in
  let action =
    if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny
  in
  let rule =
    Config.Acl.rule ~protocol:Config.Packet.Tcp ~src ~dst:Config.Acl.Any
      ~dst_port action
  in
  (target, rule)

let render_acl_question q = Format.asprintf "%a" Ad.pp_question q

let check_acl_modes ~case ~target ~rule =
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          let naive =
            with_naive (fun () -> Ad.run ~mode ~target ~rule ~oracle ())
          in
          let incr = Ad.run ~mode ~target ~rule ~oracle () in
          match (naive, incr) with
          | Ok a, Ok b ->
              if
                a.Ad.position <> b.Ad.position
                || a.Ad.acl <> b.Ad.acl
                || a.Ad.boundaries <> b.Ad.boundaries
                || a.Ad.questions <> b.Ad.questions
              then
                Alcotest.failf
                  "case %d: acl outcomes diverge (position %d vs %d)" case
                  a.Ad.position b.Ad.position
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: acl verdicts diverge" case)
        [ (fun _ -> Ad.Prefer_new); (fun _ -> Ad.Prefer_old) ])
    [ Ad.Binary_search; Ad.Top_bottom; Ad.Linear ]

let test_acl_equivalence () =
  let rng = Random.State.make [| 0x5eed; 2 |] in
  let pool = Parallel.Pool.create ~domains:4 () in
  for case = 0 to cases - 1 do
    let target, rule = acl_case rng case in
    let naive = with_naive (fun () -> Ad.boundaries ~target rule) in
    let incr = Ad.boundaries ~target rule in
    check_same ~what:"acl boundaries" ~case ~render:render_acl_question naive
      incr;
    if case mod 3 = 0 then check_acl_modes ~case ~target ~rule;
    if case mod 10 = 0 then begin
      let serial = Ca.adjacent_insertions ~naive:false ~target rule in
      let pooled = Ca.adjacent_insertions ~naive:false ~pool ~target rule in
      let pooled_naive =
        Ca.adjacent_insertions ~naive:true ~pool ~target rule
      in
      let render (i, (d : Ca.difference)) =
        Format.asprintf "%d: %a" i Ca.pp_difference d
      in
      check_same ~what:"pooled acl sweep" ~case ~render serial pooled;
      check_same ~what:"pooled naive acl sweep" ~case ~render serial
        pooled_naive
    end
  done

(* ------------------------------------------------------------------ *)
(* Prefix lists                                                       *)
(* ------------------------------------------------------------------ *)

let prefix_list_case rng case =
  let entry_at rng j =
    let len = 10 + Random.State.int rng 7 in
    let base =
      Netaddr.Prefix.make (ip 50 (Random.State.int rng 4) (j mod 4) 0) len
    in
    let ge = len + Random.State.int rng (33 - len) in
    let le = ge + Random.State.int rng (33 - ge) in
    let action =
      if Random.State.bool rng then Config.Action.Permit
      else Config.Action.Deny
    in
    Config.Prefix_list.entry ~seq:((j + 1) * 10) ~action
      (Netaddr.Prefix_range.make base ~ge:(Some ge) ~le:(Some le))
  in
  let n = 1 + Random.State.int rng 8 in
  let target =
    Config.Prefix_list.make
      (Printf.sprintf "P%d" case)
      (List.init n (entry_at rng))
  in
  let entry = { (entry_at rng 0) with Config.Prefix_list.seq = 5 } in
  (target, entry)

let render_pl_question q = Format.asprintf "%a" Pd.pp_question q

let check_pl_modes ~case ~target ~entry =
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          let naive =
            with_naive (fun () -> Pd.run ~mode ~target ~entry ~oracle ())
          in
          let incr = Pd.run ~mode ~target ~entry ~oracle () in
          match (naive, incr) with
          | Ok a, Ok b ->
              if
                a.Pd.position <> b.Pd.position
                || a.Pd.prefix_list <> b.Pd.prefix_list
                || a.Pd.boundaries <> b.Pd.boundaries
                || a.Pd.questions <> b.Pd.questions
              then
                Alcotest.failf
                  "case %d: prefix-list outcomes diverge (position %d vs %d)"
                  case a.Pd.position b.Pd.position
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: prefix-list verdicts diverge" case)
        [ (fun _ -> Pd.Prefer_new); (fun _ -> Pd.Prefer_old) ])
    [ Pd.Binary_search; Pd.Top_bottom; Pd.Linear ]

let test_prefix_list_equivalence () =
  let rng = Random.State.make [| 0x5eed; 3 |] in
  for case = 0 to cases - 1 do
    let target, entry = prefix_list_case rng case in
    let naive = with_naive (fun () -> Pd.boundaries ~target entry) in
    let incr = Pd.boundaries ~target entry in
    check_same ~what:"prefix-list boundaries" ~case ~render:render_pl_question
      naive incr;
    if case mod 3 = 0 then check_pl_modes ~case ~target ~entry
  done

let () =
  Alcotest.run "boundaries"
    [
      ( "naive-vs-incremental",
        [
          Alcotest.test_case "route-maps" `Quick test_route_map_equivalence;
          Alcotest.test_case "wide route-maps" `Quick
            test_route_map_wide_equivalence;
          Alcotest.test_case "route-map as-path" `Quick
            test_route_map_as_path_case;
          Alcotest.test_case "mixed-clause route-maps" `Quick
            test_route_map_mixed_clauses;
          Alcotest.test_case "apart stanzas are not compiled" `Quick
            test_apart_stanzas_not_compiled;
          Alcotest.test_case "acls" `Quick test_acl_equivalence;
          Alcotest.test_case "prefix lists" `Quick
            test_prefix_list_equivalence;
        ] );
    ]
