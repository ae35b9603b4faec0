(* Property suite for the boundary engine: on randomly generated
   targets and insertion candidates, the compile-once sweep must
   reproduce the definition of a boundary byte-for-byte — same
   boundary positions, same witness examples, same placements in every
   disambiguation mode, from a single sweep or a batch. The
   definition lives here, not in the library: position [i] is a
   boundary when the candidate inserted at [i] and at [i + 1] behave
   differently, and the first difference is its witness. *)

module D = Clarify.Disambiguator
module Ad = Clarify.Acl_disambiguator
module Pd = Clarify.Prefix_list_disambiguator
module Crp = Engine.Compare_route_policies
module Ca = Engine.Compare_acls
module Ps = Symbolic.Packet_space
module Rm = Config.Route_map

let cases = 220
let ip = Netaddr.Ipv4.of_octets

(* The reference sweep: [differ] of the placements at [i] and [i + 1],
   for every position [i] of a [width]-rule target. *)
let definition ~width ~at ~differ =
  List.filter_map
    (fun i -> Option.map (fun d -> (i, d)) (differ (at i) (at (i + 1))))
    (List.init width Fun.id)

let check_same ~what ~case ~render reference engine =
  if reference <> engine then
    Alcotest.failf "case %d: %s diverge@.reference:@.%s@.engine:@.%s" case
      what
      (String.concat "\n" (List.map render reference))
      (String.concat "\n" (List.map render engine))

(* Run every mode against every oracle twice, once on the engine's own
   boundaries and once on the reference's, handed in as [precomputed]:
   the outcomes must agree. *)
let check_modes ~what ~case ~same run =
  List.iter
    (fun mode ->
      List.iter
        (fun answer ->
          match
            ( run ~mode ~oracle:(fun _ -> answer) ~reference:true,
              run ~mode ~oracle:(fun _ -> answer) ~reference:false )
          with
          | Ok a, Ok b ->
              if not (same a b) then
                Alcotest.failf "case %d: %s outcomes diverge" case what
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: %s verdicts diverge" case what)
        [ Clarify.Disambig_common.Prefer_new; Prefer_old ])
    Clarify.Disambig_common.[ Binary_search; Top_bottom; Linear ]

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
let render_rm (i, d) = Format.asprintf "%d: %a" i Crp.pp_difference d

let rm_definition ~db ~(target : Rm.t) stanza =
  definition ~width:(List.length target.stanzas)
    ~at:(fun p -> Rm.insert_at target p stanza)
    ~differ:(Crp.first_difference ~db_a:db ~db_b:db)

let rm_reference ~db ~(target : Rm.t) stanza =
  let stanzas = Array.of_list target.stanzas in
  List.map
    (fun (i, (d : Crp.difference)) ->
      {
        D.position = i;
        boundary_seq = stanzas.(i).seq;
        route = d.route;
        if_new_first = d.result_a;
        if_old_first = d.result_b;
      })
    (rm_definition ~db ~target stanza)

let check_rm_modes ~case ~db ~target ~stanza =
  let precomputed = rm_reference ~db ~target stanza in
  check_modes ~what:"run" ~case
    ~same:(fun (a : D.outcome) b ->
      a.position = b.position && a.map = b.map
      && a.boundaries = b.boundaries && a.questions = b.questions)
    (fun ~mode ~oracle ~reference ->
      let precomputed = if reference then Some precomputed else None in
      D.run ~mode ?precomputed ~db ~target ~stanza ~oracle ())

let test_route_map_equivalence () =
  let rng = Random.State.make [| 0x5eed; 1 |] in
  for case = 0 to cases - 1 do
    let db, target, stanza = route_map_case rng case in
    check_same ~what:"route-map boundaries" ~case ~render:render_rm_question
      (rm_reference ~db ~target stanza)
      (D.boundaries ~db ~target stanza);
    if case mod 3 = 0 then check_rm_modes ~case ~db ~target ~stanza
  done

(* Wide targets put boundaries behind deep fall-throughs: cell [i]'s
   guard conjoins the negations of dozens of earlier stanzas. Boundaries
   only, since the reference costs O(n²) per sweep. *)
let wide_cases = 8

let test_route_map_wide_equivalence () =
  let rng = Random.State.make [| 0x5eed; 4 |] in
  for case = 0 to wide_cases - 1 do
    let stanzas = 32 + Random.State.int rng 65 in
    let db, target, stanza = route_map_case ~stanzas rng (cases + case) in
    check_same ~what:"wide route-map boundaries" ~case
      ~render:render_rm_question
      (rm_reference ~db ~target stanza)
      (D.boundaries ~db ~target stanza)
  done

(* as-path matches mutate the context's blocked-path state during
   sampling, the one place the shared-context sweep could drift from
   fresh per-position contexts; pin one deterministic case. *)
let route_map_as_path_case () =
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
  check_same ~what:"as-path boundaries" ~case:0 ~render:render_rm_question
    (rm_reference ~db ~target stanza)
    (D.boundaries ~db ~target stanza);
  (db, target, stanza)

(* ------------------------------------------------------------------ *)
(* Mixed-clause route-maps                                            *)
(* ------------------------------------------------------------------ *)

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
  let db = mixed_db and render = render_rm in
  for case = 0 to cases - 1 do
    let target, candidates = mixed_case rng in
    let sequential =
      List.map
        (fun stanza ->
          let reference = rm_definition ~db ~target stanza in
          let serial = Crp.adjacent_insertions ~db ~target stanza in
          check_same ~what:"mixed-clause sweep" ~case ~render reference serial;
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
   never compiles them: its sweep, and a batch holding it, allocate
   exactly as many BDD nodes as against an empty target. Each apart
   stanza matches its own metric, so compiling any of them would
   allocate nodes no other stanza has. *)
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
  let nodes f =
    let m = Symbdd.Bdd.Manager.create () in
    ignore (Symbdd.Bdd.with_manager m f);
    (Symbdd.Bdd.Manager.stats m).nodes
  in
  let batch target () = Crp.batch_insertions ~db ~target [ candidate ] in
  let empty = nodes (batch (apart 0)) in
  Alcotest.(check bool) "the candidate itself is compiled" true (empty > 0);
  List.iter
    (fun k ->
      let target = apart k in
      Alcotest.(check int) (Printf.sprintf "sweep, %d apart stanzas" k) empty
        (nodes (fun () -> Crp.adjacent_insertions ~db ~target candidate));
      Alcotest.(check int) (Printf.sprintf "batch, %d apart stanzas" k) empty
        (nodes (batch target)))
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
let render_acl (i, d) = Format.asprintf "%d: %a" i Ca.pp_difference d

let acl_definition ~(target : Config.Acl.t) rule =
  definition ~width:(List.length target.rules)
    ~at:(fun p -> Config.Acl.insert_at target p rule)
    ~differ:Ca.first_difference

let acl_reference ~(target : Config.Acl.t) rule =
  let rules = Array.of_list target.rules in
  List.map
    (fun (i, (d : Ca.difference)) ->
      {
        Ad.position = i;
        boundary_seq = rules.(i).seq;
        packet = d.packet;
        if_new_first = d.action_a;
        if_old_first = d.action_b;
      })
    (acl_definition ~target rule)

let check_acl_modes ~case ~target ~rule =
  let precomputed = acl_reference ~target rule in
  check_modes ~what:"acl" ~case
    ~same:(fun (a : Ad.outcome) b ->
      a.position = b.position && a.acl = b.acl
      && a.boundaries = b.boundaries && a.questions = b.questions)
    (fun ~mode ~oracle ~reference ->
      let precomputed = if reference then Some precomputed else None in
      Ad.run ~mode ?precomputed ~target ~rule ~oracle ())

let test_acl_equivalence () =
  let rng = Random.State.make [| 0x5eed; 2 |] in
  for case = 0 to cases - 1 do
    let target, rule = acl_case rng case in
    check_same ~what:"acl boundaries" ~case ~render:render_acl_question
      (acl_reference ~target rule)
      (Ad.boundaries ~target rule);
    if case mod 3 = 0 then check_acl_modes ~case ~target ~rule
  done

(* ------------------------------------------------------------------ *)
(* Mixed-field ACLs                                                   *)
(* ------------------------------------------------------------------ *)

(* Every field drawn from a small pool, so that rules overlap, miss and
   touch each other on every field: [ip] against specific protocols
   ([Proto 6] is tcp's number); hosts, contiguous and discontiguous
   wildcards around 40.0.0.0/24, some with base bits set under the
   wildcard; every port form over values that meet at their endpoints,
   the empty [lt 0] and [gt 65535] included; and [established]. *)
let mixed_protocol rng =
  pick rng Config.Packet.[| Ip; Ip; Tcp; Udp; Icmp; Proto 6; Proto 47 |]

let mixed_addr rng =
  let last = pick rng [| 0; 1; 4; 5; 130 |] in
  match Random.State.int rng 4 with
  | 0 -> Config.Acl.Any
  | 1 -> Config.Acl.Host (ip 40 0 0 last)
  | 2 ->
      Config.Acl.Wildcard (ip 40 0 0 last, ip 0 0 0 (pick rng [| 3; 127; 255 |]))
  | _ ->
      Config.Acl.Wildcard
        ( ip 40 0 (pick rng [| 0; 1 |]) last,
          pick rng [| ip 0 0 0 5; ip 0 0 1 0x81; ip 0 0 0 0xf0 |] )

let mixed_port rng =
  let v () = pick rng [| 0; 20; 21; 80; 443; 1024; 65535 |] in
  match Random.State.int rng 7 with
  | 0 | 1 -> Config.Acl.Any_port
  | 2 -> Config.Acl.Eq (v ())
  | 3 -> Config.Acl.Neq (v ())
  | 4 -> Config.Acl.Lt (v ())
  | 5 -> Config.Acl.Gt (v ())
  | _ ->
      let a = v () and b = v () in
      Config.Acl.Range (min a b, max a b)

let mixed_acl_rule rng ~seq =
  Config.Acl.rule ~seq ~protocol:(mixed_protocol rng) ~src:(mixed_addr rng)
    ~src_port:(mixed_port rng) ~dst:(mixed_addr rng)
    ~dst_port:(mixed_port rng)
    ~established:(Random.State.int rng 4 = 0)
    (if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny)

let test_acl_mixed_fields () =
  let rng = Random.State.make [| 0x5eed; 6 |] in
  let pool = Parallel.Pool.create ~domains:4 () in
  let has_neq (r : Config.Acl.rule) =
    match (r.src_port, r.dst_port) with
    | Config.Acl.Neq _, _ | _, Config.Acl.Neq _ -> true
    | _ -> false
  in
  for case = 0 to cases - 1 do
    let target =
      Config.Acl.make "M"
        (List.init (Random.State.int rng 10) (fun i ->
             mixed_acl_rule rng ~seq:((i + 1) * 10)))
    in
    let candidates =
      List.init (1 + Random.State.int rng 3) (fun _ -> mixed_acl_rule rng ~seq:5)
    in
    (* [apart] is sound, and exact without [neq]. *)
    List.iter
      (fun (r : Config.Acl.rule) ->
        List.iter
          (fun c ->
            let shared =
              Symbdd.Bdd.is_sat (Symbdd.Bdd.conj (Ps.of_rule r) (Ps.of_rule c))
            in
            if Ps.apart r c && shared then
              Alcotest.failf "case %d: apart rules share a packet" case;
            if not (Ps.apart r c || shared || has_neq r || has_neq c) then
              Alcotest.failf "case %d: disjoint rules not apart" case)
          candidates)
      target.rules;
    let sequential =
      List.map
        (fun rule ->
          let reference = acl_definition ~target rule in
          let serial = Ca.adjacent_insertions ~target rule in
          check_same ~what:"mixed-field acl sweep" ~case ~render:render_acl
            reference serial;
          serial)
        candidates
    in
    List.iter
      (fun pool ->
        let batch = Ca.batch_insertions ?pool ~target candidates in
        List.iteri
          (fun k seq ->
            check_same ~what:"acl batch vs sequential sweep" ~case
              ~render:render_acl seq batch.Ca.per_candidate.(k))
          sequential)
      [ None; Some pool ]
  done

(* A candidate apart from every target rule, by protocol, by an address
   bit or by port span, never compiles them: its sweep, and a batch
   holding it, miss the compilation cache exactly as often as against
   an empty target. *)
let test_apart_acl_rules_not_compiled () =
  let candidate =
    Config.Acl.rule ~seq:5 ~protocol:Config.Packet.Tcp
      ~src:(Config.Acl.Wildcard (ip 40 0 0 0, ip 0 0 0 255))
      ~dst_port:(Config.Acl.Range (80, 443)) Config.Action.Permit
  in
  let apart k =
    Config.Acl.make "T"
      (List.init k (fun i ->
           let seq = (i + 1) * 10 in
           match i mod 3 with
           | 0 ->
               Config.Acl.rule ~seq ~protocol:Config.Packet.Udp
                 ~dst_port:(Config.Acl.Eq i) Config.Action.Deny
           | 1 ->
               Config.Acl.rule ~seq ~src:(Config.Acl.Host (ip 40 0 1 i))
                 Config.Action.Deny
           | _ ->
               Config.Acl.rule ~seq ~protocol:Config.Packet.Tcp
                 ~dst_port:(Config.Acl.Gt (443 + i)) Config.Action.Deny))
  in
  let misses f =
    let m = Symbdd.Bdd.Manager.create () in
    ignore (Symbdd.Bdd.with_manager m f);
    (Symbdd.Bdd.Manager.stats m).cache_misses
  in
  let batch target () = Ca.batch_insertions ~target [ candidate ] in
  let empty = misses (batch (apart 0)) in
  Alcotest.(check bool) "the candidate itself is compiled" true (empty > 0);
  List.iter
    (fun k ->
      let target = apart k in
      Alcotest.(check int) (Printf.sprintf "sweep, %d apart rules" k) empty
        (misses (fun () -> Ca.adjacent_insertions ~target candidate));
      Alcotest.(check int) (Printf.sprintf "batch, %d apart rules" k) empty
        (misses (batch target)))
    [ 1; 3; 16 ]

(* ------------------------------------------------------------------ *)
(* Prefix lists                                                       *)
(* ------------------------------------------------------------------ *)

let random_action rng =
  if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny

(* Entries over windows of 50.0.0.0/14's /10s to /16s, each with its
   own [ge]/[le] window. *)
let windowed_entry rng j =
  let len = 10 + Random.State.int rng 7 in
  let base =
    Netaddr.Prefix.make (ip 50 (Random.State.int rng 4) (j mod 4) 0) len
  in
  let ge = len + Random.State.int rng (33 - len) in
  let le = ge + Random.State.int rng (33 - ge) in
  let action = random_action rng in
  Config.Prefix_list.entry ~seq:((j + 1) * 10) ~action
    (Netaddr.Prefix_range.make base ~ge:(Some ge) ~le:(Some le))

(* [le 32] supernets mixed with exact entries, on seven nested bases
   in 60.0.0.0/8: an exact entry often matches the least prefix a
   supernet shares with another, and nothing else of it. *)
let nested_entry rng j =
  let base =
    Netaddr.Prefix.make
      (ip 60 (Random.State.int rng 4 * 64) 0 0)
      (8 + Random.State.int rng 3)
  in
  let range =
    if Random.State.bool rng then Netaddr.Prefix_range.exact base
    else Netaddr.Prefix_range.make base ~ge:None ~le:(Some 32)
  in
  Config.Prefix_list.entry ~seq:((j + 1) * 10) ~action:(random_action rng)
    range

let prefix_list_case entry_at rng case =
  let n = 1 + Random.State.int rng 8 in
  let target =
    Config.Prefix_list.make
      (Printf.sprintf "P%d" case)
      (List.init n (entry_at rng))
  in
  let entry = { (entry_at rng 0) with Config.Prefix_list.seq = 5 } in
  (target, entry)

let render_pl_question q = Format.asprintf "%a" Pd.pp_question q

(* The reference decides each position on the atoms of the new entry's
   and the target's ranges ({!Prefix_atoms}): the placements at [i] and
   [i + 1] treat a prefix alike iff they treat its atom's
   representative alike, and the first representative they treat
   differently is the least prefix of position [i]'s region. *)
let pl_reference ~(target : Config.Prefix_list.t)
    (entry : Config.Prefix_list.entry) =
  let entries = Array.of_list target.entries in
  let representatives =
    Prefix_atoms.representatives
      (entry.range
      :: List.map (fun (e : Config.Prefix_list.entry) -> e.range) target.entries
      )
  in
  let eval pl w =
    Option.value ~default:Config.Action.Deny (Config.Prefix_list.eval pl w)
  in
  List.map snd
    (definition ~width:(Array.length entries)
       ~at:(fun p -> (p, Pd.insert_entry_at target p entry))
       ~differ:(fun (i, a) (_, b) ->
         List.find_map
           (fun w ->
             let if_new_first = eval a w and if_old_first = eval b w in
             if Config.Action.equal if_new_first if_old_first then None
             else
               Some
                 {
                   Pd.position = i;
                   boundary_seq = entries.(i).seq;
                   prefix = w;
                   if_new_first;
                   if_old_first;
                 })
           representatives))

let check_pl_modes ~case ~target ~entry =
  let precomputed = pl_reference ~target entry in
  check_modes ~what:"prefix-list" ~case
    ~same:(fun (a : Pd.outcome) b ->
      a.position = b.position && a.prefix_list = b.prefix_list
      && a.boundaries = b.boundaries && a.questions = b.questions)
    (fun ~mode ~oracle ~reference ->
      let precomputed = if reference then Some precomputed else None in
      Pd.run ~mode ?precomputed ~target ~entry ~oracle ())

let test_prefix_list_equivalence () =
  List.iter
    (fun (seed, entry_at) ->
      let rng = Random.State.make [| 0x5eed; seed |] in
      for case = 0 to cases - 1 do
        let target, entry = prefix_list_case entry_at rng case in
        check_same ~what:"prefix-list boundaries" ~case
          ~render:render_pl_question
          (pl_reference ~target entry)
          (Pd.boundaries ~target entry);
        if case mod 3 = 0 then check_pl_modes ~case ~target ~entry
      done)
    [ (3, windowed_entry); (4, nested_entry) ]

(* The smallest case a single overlap witness misses. Entry 0 matches
   only 10.0.0.0/8, the least prefix entry 1 and the new entry share,
   but 10.0.0.0/9 and every longer prefix of 10/8 still reach entry 1:
   position 1 is a boundary, shown 10.0.0.0/9, and a user who wants
   the new entry first gets those prefixes permitted. *)
let test_prefix_list_shadowed_witness () =
  let ten = Netaddr.Prefix.of_string_exn "10.0.0.0/8" in
  let supernet = Netaddr.Prefix_range.make ten ~ge:None ~le:(Some 32) in
  let target =
    Config.Prefix_list.make "PL"
      [
        Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
          (Netaddr.Prefix_range.exact ten);
        Config.Prefix_list.entry ~seq:20 ~action:Config.Action.Deny supernet;
      ]
  in
  let entry =
    Config.Prefix_list.entry ~seq:5 ~action:Config.Action.Permit supernet
  in
  let slash9 = Netaddr.Prefix.of_string_exn "10.0.0.0/9" in
  let boundary =
    {
      Pd.position = 1;
      boundary_seq = 20;
      prefix = slash9;
      if_new_first = Config.Action.Permit;
      if_old_first = Config.Action.Deny;
    }
  in
  check_same ~what:"shadowed-witness boundaries" ~case:0
    ~render:render_pl_question [ boundary ]
    (Pd.boundaries ~target entry);
  match Pd.run ~target ~entry ~oracle:(fun _ -> Pd.Prefer_new) () with
  | Error _ -> Alcotest.fail "an always-new user is consistent"
  | Ok o ->
      Alcotest.(check int) "placed at position 1" 1 o.position;
      Alcotest.(check (list string))
        "one question, about 10.0.0.0/9"
        [ render_pl_question boundary ]
        (List.map render_pl_question o.questions);
      Alcotest.(check bool)
        "10.0.0.0/9 permitted" true
        (Config.Prefix_list.permits o.prefix_list slash9)

(* Top/bottom mode asks one question, at the top of the list, for every
   family: the first boundary's witness with the first entry's seq, and
   one boundary reported. *)
let test_prefix_list_top_bottom () =
  let entry action text =
    let base, len = Scanf.sscanf text "%s@/%d" (fun ip len -> (ip, len)) in
    Config.Prefix_list.entry ~seq:0 ~action
      (Netaddr.Prefix_range.make
         (Netaddr.Prefix.make (Netaddr.Ipv4.of_string_exn base) len)
         ~ge:None ~le:(Some 32))
  in
  let target =
    Config.Prefix_list.make "PL"
      (List.mapi
         (fun i e -> { e with Config.Prefix_list.seq = (i + 1) * 10 })
         [
           entry Config.Action.Permit "20.0.0.0/8";
           entry Config.Action.Permit "10.1.0.0/16";
           entry Config.Action.Permit "10.2.0.0/16";
         ])
  in
  let entry = entry Config.Action.Deny "10.0.0.0/8" in
  Alcotest.(check int)
    "two boundaries" 2
    (List.length (Pd.boundaries ~target entry));
  List.iter
    (fun (answer, position) ->
      match
        Pd.run ~mode:Pd.Top_bottom ~target ~entry ~oracle:(fun _ -> answer) ()
      with
      | Error _ -> Alcotest.fail "top/bottom cannot be inconsistent"
      | Ok o ->
          Alcotest.(check (list (pair int int)))
            "one question at position 0, seq 10" [ (0, 10) ]
            (List.map
               (fun (q : Pd.question) -> (q.position, q.boundary_seq))
               o.questions);
          Alcotest.(check int) "one boundary reported" 1 o.boundaries;
          Alcotest.(check int) "placed at an extreme" position o.position)
    [ (Pd.Prefer_new, 0); (Pd.Prefer_old, 3) ]

(* ------------------------------------------------------------------ *)
(* Witnesses on demand                                                *)
(* ------------------------------------------------------------------ *)

(* Oracles for the on-demand runs: both constants, a user who wants the
   new rule to win from position [t] on (monotone, so Linear places
   too), and one whose answers alternate with the position (so the
   search takes other paths and Linear reports an inconsistency). *)
let position_oracles ~t position =
  Clarify.Disambig_common.
    [
      (fun _ -> Prefer_new);
      (fun _ -> Prefer_old);
      (fun q -> if position q >= t then Prefer_new else Prefer_old);
      (fun q -> if position q land 1 = 0 then Prefer_new else Prefer_old);
    ]

(* [run] without [?precomputed] decodes only the questions it asks;
   handed the eager sweep's boundaries it decodes nothing. Placement,
   questions and witnesses must be the same in every mode, for every
   oracle. *)
let check_on_demand ~what ~case ~width ~position run =
  let t = width / 2 in
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          if run ~mode ~oracle ~eager:false <> run ~mode ~oracle ~eager:true
          then
            Alcotest.failf "case %d: %s: on-demand run differs from eager (%s)"
              case what
              (Clarify.Disambig_common.mode_to_string mode))
        (position_oracles ~t position))
    Clarify.Disambig_common.[ Binary_search; Top_bottom; Linear ]

let check_rm_on_demand ~case ?pool ~db ~(target : Rm.t) stanza =
  let eager = D.boundaries ?pool ~db ~target stanza in
  check_on_demand ~what:"route-map" ~case ~width:(List.length target.stanzas)
    ~position:(fun (q : D.question) -> q.position)
    (fun ~mode ~oracle ~eager:e ->
      let precomputed = if e then Some eager else None in
      D.run ~mode ?pool ?precomputed ~db ~target ~stanza ~oracle ())

let check_acl_on_demand ~case ?pool ~(target : Config.Acl.t) rule =
  let eager = Ad.boundaries ?pool ~target rule in
  check_on_demand ~what:"acl" ~case ~width:(List.length target.rules)
    ~position:(fun (q : Ad.question) -> q.position)
    (fun ~mode ~oracle ~eager:e ->
      let precomputed = if e then Some eager else None in
      Ad.run ~mode ?pool ?precomputed ~target ~rule ~oracle ())

(* Every position the sweep decided without a witness (its witness is
   still undecoded) must be one where the two placements treat the
   witness, once decoded, differently. Returns how many there were. *)
let rm_witness_free ~case ~db ~(target : Rm.t) stanza =
  let at p route =
    Config.Semantics.eval_route_map db (Rm.insert_at target p stanza) route
  in
  List.fold_left
    (fun n (i, w) ->
      if Lazy.is_val w then n
      else begin
        let (d : Crp.difference) = Lazy.force w in
        if Config.Semantics.route_result_equal (at i d.route) (at (i + 1) d.route)
        then
          Alcotest.failf
            "case %d: witness-free boundary %d: both placements treat its \
             witness alike"
            case i;
        n + 1
      end)
    0
    (Crp.lazy_insertions ~db ~target stanza)

let acl_witness_free ~case ~(target : Config.Acl.t) rule =
  let at p packet =
    Config.Semantics.eval_acl (Config.Acl.insert_at target p rule) packet
  in
  List.fold_left
    (fun n (i, w) ->
      if Lazy.is_val w then
        Alcotest.failf "case %d: acl boundary %d decoded by the sweep" case i;
      let (d : Ca.difference) = Lazy.force w in
      if Config.Action.equal (at i d.packet) (at (i + 1) d.packet) then
        Alcotest.failf
          "case %d: acl boundary %d: both placements treat its witness alike"
          case i;
      n + 1)
    0
    (Ca.lazy_insertions ~target rule)

(* One candidate of a route-map generator: on-demand ≡ eager in every
   mode, serially and (every [pooled]th case) on the pool, and the
   witness-free positions sound. Returns their number. *)
let rm_on_demand ~pool ~pooled ~case ~db ~target stanza =
  check_rm_on_demand ~case ~db ~target stanza;
  if case mod pooled = 0 then check_rm_on_demand ~case ~pool ~db ~target stanza;
  rm_witness_free ~case ~db ~target stanza

let expect_witness_free what n =
  if n = 0 then Alcotest.failf "%s: no position was decided witness-free" what

let test_on_demand_route_maps () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let rng = Random.State.make [| 0x5eed; 1 |] in
  let free = ref 0 in
  for case = 0 to cases - 1 do
    let db, target, stanza = route_map_case rng case in
    free := !free + rm_on_demand ~pool ~pooled:5 ~case ~db ~target stanza
  done;
  let rng = Random.State.make [| 0x5eed; 4 |] in
  for case = 0 to wide_cases - 1 do
    let stanzas = 32 + Random.State.int rng 65 in
    let db, target, stanza = route_map_case ~stanzas rng (cases + case) in
    free := !free + rm_on_demand ~pool ~pooled:2 ~case ~db ~target stanza
  done;
  expect_witness_free "route-maps" !free;
  (* With an as-path list in scope the sweep decodes every witness
     itself. *)
  let db, target, stanza = route_map_as_path_case () in
  Alcotest.(check int) "no witness-free boundary under as-path lists" 0
    (rm_on_demand ~pool ~pooled:1 ~case:0 ~db ~target stanza)

let test_on_demand_mixed_clauses () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let rng = Random.State.make [| 0x5eed; 5 |] in
  let db = mixed_db in
  for case = 0 to cases - 1 do
    let target, candidates = mixed_case rng in
    List.iter
      (fun stanza ->
        ignore (rm_on_demand ~pool ~pooled:5 ~case ~db ~target stanza))
      candidates
  done

(* Stanzas that match a pinned attribute and set attributes from the
   same small pools, so one side often sets exactly the value the
   region already pins ([match metric 5] against [set metric 5]: no
   boundary), besides permit/deny pairs and pairs that set one
   attribute to different constants. The as-path lists' atoms are
   jointly infeasible in pairs (^100$ and ^200$; ^200$ and _100_) and
   one implies another (^100$ implies _100_), so some regions are
   non-empty BDDs that no route lives in. PALL covers every
   representable prefix, so a candidate without a prefix-list clause
   can meet a cell holding only non-representable ones. *)
let pinned_db =
  Config.Parser.parse_exn
    {|
ip prefix-list PALL permit 0.0.0.0/0 le 32
ip prefix-list PA permit 70.0.0.0/8 le 32
ip prefix-list PB permit 70.1.0.0/16 le 24
ip as-path access-list XA permit ^100$
ip as-path access-list XB permit ^200$
ip as-path access-list XC permit _100_
|}

let pinned_clause rng ~as_path =
  match Random.State.int rng (if as_path then 5 else 4) with
  | 0 -> Rm.Match_metric 5
  | 1 -> Rm.Match_local_pref 200
  | 2 -> Rm.Match_tag [ 7 ]
  | 3 -> Rm.Match_prefix_list [ pick rng [| "PALL"; "PA"; "PB" |] ]
  | _ -> Rm.Match_as_path [ pick rng [| "XA"; "XB"; "XC" |] ]

let pinned_sets rng =
  let maybe set = if Random.State.int rng 3 = 0 then Some (set ()) else None in
  List.filter_map Fun.id
    [
      maybe (fun () -> Rm.Set_metric (pick rng [| 5; 9 |]));
      maybe (fun () -> Rm.Set_local_pref (pick rng [| 200; 300 |]));
      maybe (fun () -> Rm.Set_tag (pick rng [| 7; 8 |]));
      maybe (fun () -> Rm.Set_weight (pick rng [| 0; 10 |]));
      maybe (fun () -> Rm.Set_origin (pick rng Bgp.Route.[| Igp; Incomplete |]));
      maybe (fun () -> Rm.Set_next_hop (pick rng [| ip 0 0 0 1; ip 0 0 0 2 |]));
    ]

let pinned_stanza rng ~as_path =
  let matches =
    List.init (1 + Random.State.int rng 2) (fun _ -> pinned_clause rng ~as_path)
  in
  let action =
    if Random.State.int rng 3 = 0 then Config.Action.Deny else Config.Action.Permit
  in
  Rm.stanza ~matches ~sets:(pinned_sets rng) action

(* Half the cases keep as-path lists out of scope, so the witness-free
   rule applies; the other half mix them in, so it must step aside.
   Those end with a stanza naming every list, so a batch has the same
   as-path universe as each candidate's own sweep (see [mixed_case]). *)
let pinned_case rng =
  let as_path = Random.State.bool rng in
  let body =
    List.init (1 + Random.State.int rng 8) (fun _ -> pinned_stanza rng ~as_path)
  in
  let anchor =
    Rm.stanza ~matches:[ Rm.Match_as_path [ "XA"; "XB"; "XC" ] ] Config.Action.Deny
  in
  let target =
    Rm.make "T"
      (List.mapi
         (fun i s -> { s with Rm.seq = (i + 1) * 10 })
         (if as_path then body @ [ anchor ] else body))
  in
  let candidates =
    List.init (1 + Random.State.int rng 3) (fun _ ->
        { (pinned_stanza rng ~as_path) with Rm.seq = 5 })
  in
  (target, candidates)

let test_on_demand_pinned () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let rng = Random.State.make [| 0x5eed; 7 |] in
  let db = pinned_db and render = render_rm in
  let free = ref 0 in
  for case = 0 to cases - 1 do
    let target, candidates = pinned_case rng in
    let sequential =
      List.map
        (fun stanza ->
          let reference = rm_definition ~db ~target stanza in
          let serial = Crp.adjacent_insertions ~db ~target stanza in
          check_same ~what:"pinned sweep" ~case ~render reference serial;
          free := !free + rm_on_demand ~pool ~pooled:3 ~case ~db ~target stanza;
          serial)
        candidates
    in
    List.iter
      (fun pool ->
        let batch = Crp.batch_insertions ?pool ~db ~target candidates in
        List.iteri
          (fun k seq ->
            check_same ~what:"pinned batch vs sequential sweep" ~case ~render
              seq batch.Crp.per_candidate.(k))
          sequential)
      [ None; Some pool ]
  done;
  expect_witness_free "pinned route-maps" !free

let test_on_demand_acls () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let rng = Random.State.make [| 0x5eed; 2 |] in
  let free = ref 0 in
  for case = 0 to cases - 1 do
    let target, rule = acl_case rng case in
    check_acl_on_demand ~case ~target rule;
    if case mod 5 = 0 then check_acl_on_demand ~case ~pool ~target rule;
    free := !free + acl_witness_free ~case ~target rule
  done;
  let rng = Random.State.make [| 0x5eed; 6 |] in
  for case = 0 to cases - 1 do
    let target =
      Config.Acl.make "M"
        (List.init (Random.State.int rng 10) (fun i ->
             mixed_acl_rule rng ~seq:((i + 1) * 10)))
    in
    List.iter
      (fun rule ->
        check_acl_on_demand ~case ~target rule;
        if case mod 5 = 0 then check_acl_on_demand ~case ~pool ~target rule;
        free := !free + acl_witness_free ~case ~target rule)
      (List.init (1 + Random.State.int rng 3) (fun _ -> mixed_acl_rule rng ~seq:5))
  done;
  expect_witness_free "acls" !free

(* A 256-stanza map whose every position is a witness-free boundary:
   permit stanzas on disjoint /20s, each setting its own metric, and a
   candidate over all of them setting another. Decoding follows the
   questions: Binary_search decodes exactly what it asks, Top_bottom
   one witness, Linear and the eager sweep every boundary. *)
let counted_scenario n =
  let lists, stanzas =
    List.split
      (List.init n (fun i ->
           let name = Printf.sprintf "C%d" i in
           ( Config.Prefix_list.make name
               [
                 Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
                   (Netaddr.Prefix_range.make
                      (Netaddr.Prefix.make
                         (Netaddr.Ipv4.of_int (0x0A00_0000 lor (i lsl 12)))
                         20)
                      ~ge:None ~le:(Some 24));
               ],
             Rm.stanza ~seq:((i + 1) * 10)
               ~matches:[ Rm.Match_prefix_list [ name ] ]
               ~sets:[ Rm.Set_metric i ] Config.Action.Permit )))
  in
  let all =
    Config.Prefix_list.make "CALL"
      [
        Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
          (Netaddr.Prefix_range.make
             (Netaddr.Prefix.of_string_exn "10.0.0.0/8")
             ~ge:None ~le:(Some 32));
      ]
  in
  let db =
    List.fold_left Config.Database.add_prefix_list Config.Database.empty
      (all :: lists)
  in
  let stanza =
    Rm.stanza ~seq:5
      ~matches:[ Rm.Match_prefix_list [ "CALL" ] ]
      ~sets:[ Rm.Set_metric 100_000 ] Config.Action.Permit
  in
  (db, Rm.make "T" stanzas, stanza)

let test_decoding_follows_questions () =
  let n = 256 in
  let db, target, stanza = counted_scenario n in
  let pool = Parallel.Pool.create ~domains:4 () in
  let decoded f =
    let before = Obs.Counter.value Engine.Metrics.witnesses_decoded in
    let r = f () in
    (r, Obs.Counter.value Engine.Metrics.witnesses_decoded - before)
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  List.iter
    (fun pool ->
      let bs, eager = decoded (fun () -> D.boundaries ?pool ~db ~target stanza) in
      Alcotest.(check int) "every position is a boundary" n (List.length bs);
      Alcotest.(check int) "the eager sweep decodes every boundary" n eager;
      let run mode =
        (* The user wants the new stanza below the first 100 stanzas. *)
        decoded (fun () ->
            match
              D.run ~mode ?pool ~db ~target ~stanza
                ~oracle:(fun q -> if q.position >= 100 then D.Prefer_new else D.Prefer_old)
                ()
            with
            | Ok o -> o
            | Error _ -> Alcotest.fail "a monotone user is consistent")
      in
      let o, k = run D.Binary_search in
      Alcotest.(check int) "placed" 100 o.position;
      Alcotest.(check bool) "binary search asks about log2 n questions" true
        (List.length o.questions <= 9);
      Alcotest.(check int) "binary search decodes what it asks"
        (List.length o.questions) k;
      let o, k = run D.Linear in
      Alcotest.(check int) "linear asks every boundary" n (List.length o.questions);
      Alcotest.(check int) "linear decodes every boundary" n k;
      let _, k = run D.Top_bottom in
      Alcotest.(check int) "top/bottom decodes one witness" 1 k)
    [ None; Some pool ]

let () =
  Alcotest.run "boundaries"
    [
      ( "naive-vs-incremental",
        [
          Alcotest.test_case "route-maps" `Quick test_route_map_equivalence;
          Alcotest.test_case "wide route-maps" `Quick
            test_route_map_wide_equivalence;
          Alcotest.test_case "route-map as-path" `Quick (fun () ->
              ignore (route_map_as_path_case ()));
          Alcotest.test_case "mixed-clause route-maps" `Quick
            test_route_map_mixed_clauses;
          Alcotest.test_case "apart stanzas are not compiled" `Quick
            test_apart_stanzas_not_compiled;
          Alcotest.test_case "acls" `Quick test_acl_equivalence;
          Alcotest.test_case "mixed-field acls" `Quick test_acl_mixed_fields;
          Alcotest.test_case "apart acl rules are not compiled" `Quick
            test_apart_acl_rules_not_compiled;
          Alcotest.test_case "prefix lists" `Quick
            test_prefix_list_equivalence;
          Alcotest.test_case "prefix-list top/bottom" `Quick
            test_prefix_list_top_bottom;
          Alcotest.test_case "prefix-list shadowed overlap witness" `Quick
            test_prefix_list_shadowed_witness;
        ] );
      ( "witnesses-on-demand",
        [
          Alcotest.test_case "route-maps" `Quick test_on_demand_route_maps;
          Alcotest.test_case "mixed-clause route-maps" `Quick
            test_on_demand_mixed_clauses;
          Alcotest.test_case "pinned attributes and infeasible as-paths"
            `Quick test_on_demand_pinned;
          Alcotest.test_case "acls" `Quick test_on_demand_acls;
          Alcotest.test_case "decoding follows the questions" `Quick
            test_decoding_follows_questions;
        ] );
    ]
