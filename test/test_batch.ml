(* Batch synthesis equivalence: for every family (route-map, ACL,
   prefix-list), a batch run over N intents must produce exactly the
   configuration N sequential pipeline runs produce, asking a question
   set contained in the sequential one and, for route-maps and ACLs,
   decoding exactly as many boundary witnesses — serial and with a
   pool handed in. Plus pinned
   cases: a conflicting pair with its witness checked exactly, a
   conflict-free batch building one context per intent plus one for
   its conflict graph, match-disjoint intents shown the examples of
   their own sequential runs, and the answer-cache dedup regression
   (policy/position are part of the key, not just the rendered
   text). Route-map conflict witnesses are checked against the concrete
   semantics, and the experiments' routers, each one batch, against the
   per-step fold they replaced (test/router_fold.ml). *)

open Config
module I = Llm.Intent
module P = Clarify.Pipeline
module B = Clarify.Batch
module D = Clarify.Disambiguator
module AD = Clarify.Acl_disambiguator
module PD = Clarify.Prefix_list_disambiguator
module DC = Clarify.Disambig_common

let pfx = Netaddr.Prefix.of_string_exn
let comm = Bgp.Community.of_string_exn
let check_int = Alcotest.(check int)

(* One pool for every pooled case; workers are reused across calls. *)
let pool = lazy (Parallel.Pool.create ~domains:4 ())
let get_pool = function true -> Some (Lazy.force pool) | false -> None

let config_string db = Parser.to_string db

(* Questions are compared through their telemetry views, tagged with the
   target policy: the view carries position, boundary seq, the rendered
   example and both candidate behaviours. *)
let rm_key target q = (target, D.view q)
let acl_key target q = (target, AD.view q)
let pd_key target q = (target, PD.view q)

let subset ~of_:ys xs = List.for_all (fun x -> List.mem x ys) xs

(* [f ()] and how far it moves [counter], counted with the
   observability layer on. *)
let counting counter f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let before = Obs.Counter.value counter in
  let r = f () in
  (r, Obs.Counter.value counter - before)

(* [f ()] and the boundary witnesses it decodes. *)
let decoding f = counting Engine.Metrics.witnesses_decoded f

(* A batch decodes the witnesses its intents decode one by one: only
   the questions it asks, plus those a sweep needs to decide a
   boundary. *)
let check_decoded ~sequential ~batch =
  if batch <> sequential then
    QCheck.Test.fail_reportf
      "batch decoded %d witnesses, the sequential runs %d" batch sequential

let same_multiset xs ys =
  List.length xs = List.length ys && subset ~of_:ys xs && subset ~of_:xs ys

(* ------------------------------------------------------------------ *)
(* Route-map scenarios                                                *)
(* ------------------------------------------------------------------ *)

let base_lists =
  {|ip prefix-list WIDE permit 10.0.0.0/8 le 24
ip prefix-list NARROW permit 10.1.0.0/16 le 32
ip prefix-list OTHER permit 99.0.0.0/8 le 16
ip as-path access-list FROM32 permit _32$
ip community-list expanded GOLD permit _300:3_
|}

let gen_action = QCheck.Gen.oneofl [ Action.Permit; Action.Deny ]

let gen_existing_map =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (pair gen_action
         (oneofl
            [
              [ Route_map.Match_prefix_list [ "WIDE" ] ];
              [ Route_map.Match_prefix_list [ "NARROW" ] ];
              [ Route_map.Match_prefix_list [ "OTHER" ] ];
              [ Route_map.Match_as_path [ "FROM32" ] ];
              [ Route_map.Match_community [ "GOLD" ] ];
              [ Route_map.Match_local_pref 300 ];
            ]))
    >>= fun stanzas ->
    return
      (Route_map.make "TARGET"
         (List.mapi
            (fun i (action, matches) ->
              Route_map.stanza ~seq:((i + 1) * 10) ~matches action)
            stanzas)))

(* Prefix windows, community tags and set clauses generate overlaps and
   genuine conflicts between intents; communities only one intent
   mentions must not reach another intent's examples. *)
let gen_rm_intent =
  QCheck.Gen.(
    gen_action >>= fun action ->
    oneofl
      [
        [ Netaddr.Prefix_range.make (pfx "10.0.0.0/8") ~ge:None ~le:(Some 16) ];
        [ Netaddr.Prefix_range.make (pfx "10.1.0.0/16") ~ge:None ~le:(Some 24) ];
        [ Netaddr.Prefix_range.exact (pfx "99.0.0.0/8") ];
        [ Netaddr.Prefix_range.make (pfx "172.16.0.0/12") ~ge:None ~le:(Some 20) ];
      ]
    >>= fun prefixes ->
    oneofl [ []; [ comm "300:3" ]; [ comm "65000:7" ]; [ comm "100:1" ] ]
    >>= fun communities ->
    oneofl
      [
        [];
        [ Route_map.Set_metric 55 ];
        [ Route_map.Set_local_pref 200 ];
        [
          Route_map.Set_community
            { communities = [ comm "300:9" ]; additive = true };
        ];
        [
          Route_map.Set_community
            { communities = [ comm "200:2" ]; additive = false };
        ];
      ]
    >>= fun sets ->
    return
      {
        I.action;
        prefixes;
        communities;
        as_path_origin = None;
        as_path_contains = None;
        local_pref = None;
        metric_match = None;
        tag_match = None;
        sets;
      })

let gen_rm_scenario =
  QCheck.Gen.(pair gen_existing_map (list_size (int_range 2 3) gen_rm_intent))

let arb_rm_scenario =
  QCheck.make
    ~print:(fun (rm, intents) ->
      Format.asprintf "%a@.%s" Route_map.pp rm
        (String.concat "\n"
           (List.map (fun i -> I.to_prompt (I.Route_map i)) intents)))
    gen_rm_scenario

let rm_setup rm = Database.add_route_map (Parser.parse_exn base_lists) rm

let sequential_route_maps db prompts =
  let llm = Llm.Mock_llm.create () in
  List.fold_left
    (fun (db, qs) prompt ->
      match
        P.run_route_map_update ~llm ~oracle:D.always_new ~db ~target:"TARGET"
          ~prompt ()
      with
      | Error e ->
          QCheck.Test.fail_reportf "sequential: %s" (P.error_to_string e)
      | Ok r -> (r.P.db, qs @ List.map (rm_key "TARGET") r.P.questions))
    (db, []) prompts

let batch_route_maps ~pooled db prompts =
  let llm = Llm.Mock_llm.create () in
  let items =
    List.map (fun prompt -> B.Route_map_update { target = "TARGET"; prompt }) prompts
  in
  let oracle ~intent:_ ~target:_ _ = DC.Prefer_new in
  match B.run ?pool:(get_pool pooled) ~llm ~oracle ~db items with
  | Error e -> QCheck.Test.fail_reportf "batch: %s" (B.error_to_string e)
  | Ok r ->
      let qs =
        List.concat_map
          (function
            | B.Route_map_result rr ->
                List.map (rm_key "TARGET") rr.P.questions
            | B.Acl_result _ -> [])
          r.B.items
      in
      (r, qs)

let prop_rm_batch_equals_sequential ~pooled ~count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "route-map batch == sequential (%s)"
         (if pooled then "pooled" else "serial"))
    ~count arb_rm_scenario
    (fun (rm, intents) ->
      let db = rm_setup rm in
      let prompts = List.map (fun i -> I.to_prompt (I.Route_map i)) intents in
      let (db_seq, seq_qs), sequential =
        decoding (fun () -> sequential_route_maps db prompts)
      in
      let (report, batch_qs), batch =
        decoding (fun () -> batch_route_maps ~pooled db prompts)
      in
      check_decoded ~sequential ~batch;
      if config_string report.B.db <> config_string db_seq then
        QCheck.Test.fail_reportf "final configs differ:@.%s@.-- vs --@.%s"
          (config_string report.B.db)
          (config_string db_seq);
      if not (subset ~of_:seq_qs batch_qs) then
        QCheck.Test.fail_reportf
          "batch asked a question the sequential run never asked";
      (* With the always-new user the question streams are in fact
         identical, not just contained. *)
      same_multiset batch_qs seq_qs)

(* Every route-map conflict edge's witness is matched by both intents'
   stanzas, and the two stanzas treat it differently, with the
   outcomes the edge reports. *)
let prop_rm_conflict_witnesses ~count =
  QCheck.Test.make ~name:"route-map conflict witnesses differ" ~count
    arb_rm_scenario (fun (rm, intents) ->
      let prompts = List.map (fun i -> I.to_prompt (I.Route_map i)) intents in
      let report, _ = batch_route_maps ~pooled:false (rm_setup rm) prompts in
      let db = report.B.db and items = Array.of_list report.B.items in
      let stanza k =
        match items.(k) with
        | B.Route_map_result r -> r.P.stanza
        | B.Acl_result _ -> QCheck.Test.fail_report "an ACL item"
      in
      List.for_all
        (fun (c : B.conflict) ->
          match c.witness with
          | B.Route_witness d ->
              let a = stanza c.intent_a and b = stanza c.intent_b in
              let outcome (s : Route_map.stanza) =
                Semantics.apply_action db s.action s.sets d.route
              in
              Semantics.stanza_matches db a d.route
              && Semantics.stanza_matches db b d.route
              && Semantics.route_result_equal (outcome a) d.result_a
              && Semantics.route_result_equal (outcome b) d.result_b
              && not (Semantics.route_result_equal d.result_a d.result_b)
          | B.Acl_witness _ | B.Prefix_witness _ -> false)
        report.B.conflicts)

(* ------------------------------------------------------------------ *)
(* ACL scenarios                                                      *)
(* ------------------------------------------------------------------ *)

let gen_existing_acl =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (oneofl
         [
           Acl.rule ~protocol:Packet.Tcp ~dst_port:(Acl.Eq 23) Action.Deny;
           Acl.rule ~protocol:Packet.Tcp
             ~src:(Acl.addr_of_prefix (pfx "10.20.0.0/16"))
             Action.Permit;
           Acl.rule ~protocol:Packet.Udp ~dst_port:(Acl.Eq 53) Action.Permit;
           Acl.rule ~protocol:Packet.Udp Action.Deny;
           Acl.rule ~protocol:Packet.Icmp
             ~src:(Acl.addr_of_prefix (pfx "10.20.0.0/16"))
             Action.Permit;
           Acl.rule ~dst:(Acl.addr_of_prefix (pfx "192.168.0.0/24")) Action.Deny;
         ])
    >>= fun rules ->
    return
      (Acl.make "FW"
         (List.mapi (fun i (r : Acl.rule) -> { r with seq = (i + 1) * 10 }) rules)))

let gen_acl_intent =
  QCheck.Gen.(
    gen_action >>= fun action ->
    oneofl [ Packet.Tcp; Packet.Udp ] >>= fun protocol ->
    oneofl [ Acl.Any; Acl.addr_of_prefix (pfx "10.20.0.0/16") ] >>= fun src ->
    oneofl [ Acl.Any_port; Acl.Eq 443; Acl.Eq 53; Acl.Range (8000, 8080) ]
    >>= fun dst_port ->
    return (I.acl_intent ~protocol ~src ~dst_port action))

let gen_acl_scenario =
  QCheck.Gen.(pair gen_existing_acl (list_size (int_range 2 3) gen_acl_intent))

let arb_acl_scenario =
  QCheck.make
    ~print:(fun (acl, intents) ->
      Format.asprintf "%a@.%s" Acl.pp acl
        (String.concat "\n" (List.map I.to_prompt intents)))
    gen_acl_scenario

let acl_setup acl = Database.add_acl Database.empty acl

let sequential_acls db prompts =
  let llm = Llm.Mock_llm.create () in
  List.fold_left
    (fun (db, qs) prompt ->
      match
        P.run_acl_update ~llm
          ~oracle:(fun _ -> AD.Prefer_new)
          ~db ~target:"FW" ~prompt ()
      with
      | Error e ->
          QCheck.Test.fail_reportf "sequential: %s" (P.error_to_string e)
      | Ok r -> (r.P.db, qs @ List.map (acl_key "FW") r.P.questions))
    (db, []) prompts

let batch_acls ~pooled db prompts =
  let llm = Llm.Mock_llm.create () in
  let items =
    List.map (fun prompt -> B.Acl_update { target = "FW"; prompt }) prompts
  in
  let oracle ~intent:_ ~target:_ _ = DC.Prefer_new in
  match B.run ?pool:(get_pool pooled) ~llm ~oracle ~db items with
  | Error e -> QCheck.Test.fail_reportf "batch: %s" (B.error_to_string e)
  | Ok r ->
      let qs =
        List.concat_map
          (function
            | B.Acl_result ar -> List.map (acl_key "FW") ar.P.questions
            | B.Route_map_result _ -> [])
          r.B.items
      in
      (r, qs)

let prop_acl_batch_equals_sequential ~pooled ~count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "acl batch == sequential (%s)"
         (if pooled then "pooled" else "serial"))
    ~count arb_acl_scenario
    (fun (acl, intents) ->
      let db = acl_setup acl in
      let prompts = List.map I.to_prompt intents in
      let (db_seq, seq_qs), sequential =
        decoding (fun () -> sequential_acls db prompts)
      in
      let (report, batch_qs), batch =
        decoding (fun () -> batch_acls ~pooled db prompts)
      in
      check_decoded ~sequential ~batch;
      config_string report.B.db = config_string db_seq
      && same_multiset batch_qs seq_qs)

(* ------------------------------------------------------------------ *)
(* Prefix-list scenarios                                              *)
(* ------------------------------------------------------------------ *)

let gen_range =
  QCheck.Gen.oneofl
    [
      Netaddr.Prefix_range.make (pfx "10.0.0.0/8") ~ge:None ~le:(Some 24);
      Netaddr.Prefix_range.make (pfx "10.1.0.0/16") ~ge:None ~le:(Some 32);
      Netaddr.Prefix_range.make (pfx "10.0.0.0/8") ~ge:(Some 25) ~le:None;
      Netaddr.Prefix_range.exact (pfx "99.0.0.0/8");
      Netaddr.Prefix_range.make (pfx "172.16.0.0/12") ~ge:None ~le:(Some 20);
    ]

let gen_existing_prefix_list =
  QCheck.Gen.(
    list_size (int_range 1 4) (pair gen_action gen_range) >>= fun entries ->
    return
      (Prefix_list.make "PL"
         (List.mapi
            (fun i (action, range) ->
              Prefix_list.entry ~seq:((i + 1) * 10) ~action range)
            entries)))

let gen_prefix_scenario =
  QCheck.Gen.(
    pair gen_existing_prefix_list
      (list_size (int_range 2 4) (pair gen_action gen_range)))

let arb_prefix_scenario =
  QCheck.make
    ~print:(fun (pl, entries) ->
      Format.asprintf "%a@.+%d entries" Prefix_list.pp pl (List.length entries))
    gen_prefix_scenario

let prop_prefix_batch_equals_sequential ~count =
  QCheck.Test.make ~name:"prefix-list batch == sequential" ~count
    arb_prefix_scenario
    (fun (pl, entries) ->
      let entries =
        List.map
          (fun (action, range) -> Prefix_list.entry ~action range)
          entries
      in
      (* Sequential: one disambiguation per entry against the evolving
         list, always-new user. *)
      let _, seq_qs, seq_pl =
        List.fold_left
          (fun (cur, qs, _) entry ->
            match
              PD.run ~target:cur ~entry ~oracle:(fun _ -> PD.Prefer_new) ()
            with
            | Error _ -> QCheck.Test.fail_report "sequential: inconsistent"
            | Ok o ->
                ( o.PD.prefix_list,
                  qs @ List.map (pd_key "PL") o.PD.questions,
                  o.PD.prefix_list ))
          (pl, [], pl) entries
      in
      let db = Database.add_prefix_list Database.empty pl in
      let items = List.map (fun entry -> { B.target = "PL"; entry }) entries in
      let oracle ~intent:_ ~target:_ _ = DC.Prefer_new in
      match B.insert_prefix_list_entries ~oracle ~db items with
      | Error e -> QCheck.Test.fail_reportf "batch: %s" (B.error_to_string e)
      | Ok r ->
          let batch_qs =
            List.concat_map
              (fun (o : PD.outcome) -> List.map (pd_key "PL") o.PD.questions)
              r.B.outcomes
          in
          let final =
            match Database.prefix_list r.B.db "PL" with
            | Some got -> got
            | None -> QCheck.Test.fail_report "batch dropped the prefix list"
          in
          (* The conflict edges are exactly the pairs [i < j] whose
             actions differ and whose ranges share a prefix, decided on
             the atoms of the two ranges, in input order; each witness
             is matched by both entries. *)
          let es = Array.of_list entries in
          let share (a : Prefix_list.entry) (b : Prefix_list.entry) =
            List.exists
              (fun w ->
                Netaddr.Prefix_range.matches a.range w
                && Netaddr.Prefix_range.matches b.range w)
              (Prefix_atoms.representatives [ a.range; b.range ])
          in
          let n = Array.length es in
          let expected =
            List.concat_map
              (fun i ->
                List.filter_map
                  (fun j ->
                    if
                      (not (Action.equal es.(i).action es.(j).action))
                      && share es.(i) es.(j)
                    then Some (i, j)
                    else None)
                  (List.init (n - i - 1) (fun d -> i + d + 1)))
              (List.init n Fun.id)
          in
          let witnessed (c : B.conflict) =
            c.target = "PL"
            &&
            match c.witness with
            | B.Prefix_witness w ->
                Netaddr.Prefix_range.matches es.(c.intent_a).range w
                && Netaddr.Prefix_range.matches es.(c.intent_b).range w
            | B.Route_witness _ | B.Acl_witness _ -> false
          in
          Format.asprintf "%a" Prefix_list.pp final
          = Format.asprintf "%a" Prefix_list.pp seq_pl
          && same_multiset batch_qs seq_qs
          && List.map (fun (c : B.conflict) -> (c.intent_a, c.intent_b))
               r.B.conflicts
             = expected
          && List.for_all witnessed r.B.conflicts)

(* ------------------------------------------------------------------ *)
(* Pinned cases                                                       *)
(* ------------------------------------------------------------------ *)

let lab_edge =
  {|ip access-list extended FW
 deny tcp any any eq 23
 permit tcp 10.20.0.0 0.0.255.255 any
 deny udp any any|}

(* Two intents whose match regions coincide and whose actions differ:
   the sweep must report exactly one conflict edge, oriented from the
   earlier intent to the later one, with a differential witness packet
   that both rules match and on which they disagree. *)
let test_pinned_acl_conflict () =
  let db = Parser.parse_exn lab_edge in
  let llm = Llm.Mock_llm.create () in
  let items =
    [
      B.Acl_update
        {
          target = "FW";
          prompt =
            "Write an access list rule that permits tcp traffic from \
             anywhere to any destination with destination port 443.";
        };
      B.Acl_update
        {
          target = "FW";
          prompt =
            "Write an access list rule that denies tcp traffic from anywhere \
             to any destination with destination port 443.";
        };
    ]
  in
  let oracle ~intent:_ ~target:_ _ = DC.Prefer_new in
  let report =
    match B.run ~llm ~oracle ~db items with
    | Ok r -> r
    | Error e -> Alcotest.failf "batch failed: %s" (B.error_to_string e)
  in
  check_int "one conflict edge" 1 (List.length report.B.conflicts);
  let c = List.hd report.B.conflicts in
  check_int "edge from the first intent" 0 c.B.intent_a;
  check_int "edge to the second intent" 1 c.B.intent_b;
  Alcotest.(check string) "edge target" "FW" c.B.target;
  match c.B.witness with
  | B.Acl_witness d ->
      Alcotest.(check bool)
        "witness actions disagree (permit vs deny)" true
        (d.Engine.Compare_acls.action_a = Action.Permit
        && d.Engine.Compare_acls.action_b = Action.Deny);
      let p = d.Engine.Compare_acls.packet in
      Alcotest.(check string)
        "witness protocol" "tcp"
        (Packet.protocol_to_string p.Packet.protocol);
      check_int "witness destination port" 443 p.Packet.dst_port;
      (* Both synthesized rules must actually match the witness and
         disagree on it — the edge is genuine, not a rendering. *)
      let rule_of k =
        match List.nth report.B.items k with
        | B.Acl_result ar -> ar.P.rule
        | B.Route_map_result _ -> Alcotest.fail "expected an ACL result"
      in
      Alcotest.(check bool)
        "witness matched by both rules" true
        (Acl.match_rule (rule_of 0) p && Acl.match_rule (rule_of 1) p)
  | _ -> Alcotest.fail "expected an ACL witness"

(* A conflict-free batch: three mutually match-disjoint route-map
   intents. The batch places each intent as its sequential run does,
   so it builds exactly the symbolic contexts the three sequential runs
   build, plus one for its conflict-graph pass; it reports no overlap
   and asks exactly the questions the three sequential runs ask — zero
   inter-intent questions. *)
let test_conflict_free_graph_pass () =
  let rm =
    Route_map.make "TARGET"
      [
        Route_map.stanza ~seq:10
          ~matches:[ Route_map.Match_prefix_list [ "WIDE" ] ]
          Action.Deny;
        Route_map.stanza ~seq:20
          ~matches:[ Route_map.Match_local_pref 300 ]
          Action.Permit;
      ]
  in
  let db = rm_setup rm in
  let prompts =
    [
      "Write a route-map stanza that permits routes containing the prefix \
       99.0.0.0/8. Their MED value should be set to 55.";
      "Write a route-map stanza that denies routes containing the prefix \
       172.16.0.0/12 with mask length less than or equal to 20.";
      "Write a route-map stanza that permits routes containing the prefix \
       192.168.0.0/16. Their local preference should be set to 200.";
    ]
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let contexts () = Obs.Counter.value Engine.Metrics.adjacent_contexts in
  let before = contexts () in
  let db_seq, seq_qs = sequential_route_maps db prompts in
  let sequential = contexts () - before in
  check_int "one context per sequential run" 3 sequential;
  let before = contexts () in
  let report, batch_qs = batch_route_maps ~pooled:false db prompts in
  check_int "the sequential runs' contexts plus one graph pass"
    (sequential + 1)
    (contexts () - before);
  check_int "no overlap edges" 0 report.B.overlap_pairs;
  check_int "no conflict edges" 0 (List.length report.B.conflicts);
  Alcotest.(check string)
    "same final config" (config_string db_seq)
    (config_string report.B.db);
  Alcotest.(check bool)
    "zero inter-intent questions" true
    (same_multiset batch_qs seq_qs)

(* Two match-disjoint intents, each carrying a community the other
   never mentions. A sequential run samples intent 0's example routes
   from the target and intent 0 alone, so they carry no community only
   intent 1 names (65000:7); the batch must show intent 0 exactly those
   questions. *)
let test_disjoint_intents_own_examples () =
  let rm =
    Route_map.make "TARGET"
      [
        Route_map.stanza ~seq:10
          ~matches:[ Route_map.Match_community [ "GOLD" ] ]
          Action.Permit;
        Route_map.stanza ~seq:20
          ~matches:[ Route_map.Match_local_pref 300 ]
          Action.Permit;
      ]
  in
  let db = rm_setup rm in
  let range p le = Netaddr.Prefix_range.make (pfx p) ~ge:None ~le:(Some le) in
  let prompts =
    List.map I.to_prompt
      [
        I.route_map_intent
          ~prefixes:[ range "172.16.0.0/12" 20 ]
          ~communities:[ comm "100:1" ]
          ~sets:
            [
              Route_map.Set_community
                { communities = [ comm "200:2" ]; additive = false };
            ]
          Action.Permit;
        I.route_map_intent
          ~prefixes:[ range "10.1.0.0/16" 24 ]
          ~communities:[ comm "65000:7" ]
          ~sets:[ Route_map.Set_local_pref 200 ]
          Action.Deny;
      ]
  in
  let db_seq, seq_qs = sequential_route_maps db prompts in
  let report, batch_qs = batch_route_maps ~pooled:false db prompts in
  check_int "no overlap edges" 0 report.B.overlap_pairs;
  Alcotest.(check string)
    "same final config" (config_string db_seq)
    (config_string report.B.db);
  let render (target, (v : DC.view)) =
    Printf.sprintf "%s@%d seq %d: %s | %s | %s" target v.DC.position
      v.boundary_seq v.example v.if_new_first v.if_old_first
  in
  Alcotest.(check (list string))
    "the sequential runs' question views"
    (List.map render seq_qs) (List.map render batch_qs)

(* Satellite regression: the shared answer cache keys on the policy AND
   the question's coordinates, never on the rendered text alone. *)
let test_answer_cache_dedup () =
  let cache = DC.Answer_cache.create () in
  let find ~policy (v : DC.view) =
    DC.Answer_cache.find_at cache ~policy ~position:v.position
      ~boundary_seq:v.boundary_seq (Lazy.from_val v)
  in
  let v =
    {
      DC.position = 1;
      boundary_seq = 10;
      example = "Network: 10.0.0.0/8";
      if_new_first = "ACTION: permit";
      if_old_first = "ACTION: deny";
    }
  in
  DC.Answer_cache.add_at cache ~policy:"ISP_OUT" ~position:1 ~boundary_seq:10
    (Lazy.from_val v) DC.Prefer_new;
  Alcotest.(check bool)
    "identical text, other policy: miss" true
    (find ~policy:"ISP_IN" v = None);
  Alcotest.(check bool)
    "identical text, other position: miss" true
    (find ~policy:"ISP_OUT" { v with DC.position = 2 } = None);
  Alcotest.(check bool)
    "identical text, other boundary seq: miss" true
    (find ~policy:"ISP_OUT" { v with DC.boundary_seq = 20 } = None);
  check_int "misses are not hits" 0 (DC.Answer_cache.hits cache);
  Alcotest.(check bool)
    "same policy and coordinates: hit" true
    (find ~policy:"ISP_OUT" v = Some DC.Prefer_new);
  check_int "one hit counted" 1 (DC.Answer_cache.hits cache)

(* The cache in action: the same entry inserted twice into the same
   prefix list, with a user who keeps existing behaviour. The first
   insertion lands at the bottom, leaving every original coordinate
   untouched, so the second insertion's boundary question recurs
   verbatim and is served from the cache — the user is consulted
   once. *)
let test_cache_saves_repeated_questions () =
  let pl =
    Prefix_list.make "PL"
      [
        Prefix_list.entry ~seq:10 ~action:Action.Permit
          (Netaddr.Prefix_range.make (pfx "10.0.0.0/8") ~ge:None ~le:(Some 24));
      ]
  in
  let db = Database.add_prefix_list Database.empty pl in
  let entry =
    Prefix_list.entry ~action:Action.Deny
      (Netaddr.Prefix_range.make (pfx "10.0.0.0/8") ~ge:None ~le:(Some 16))
  in
  let consulted = ref 0 in
  let oracle ~intent:_ ~target:_ _ =
    incr consulted;
    DC.Prefer_old
  in
  match
    B.insert_prefix_list_entries ~oracle ~db [ { B.target = "PL"; entry }; { B.target = "PL"; entry } ]
  with
  | Error e -> Alcotest.failf "batch failed: %s" (B.error_to_string e)
  | Ok r ->
      Alcotest.(check bool) "saved at least one question" true (r.B.questions_saved >= 1);
      let asked =
        List.fold_left
          (fun n (o : PD.outcome) -> n + List.length o.PD.questions)
          0 r.B.outcomes
      in
      check_int "user consulted once per distinct question"
        (asked - r.B.questions_saved)
        !consulted

(* ------------------------------------------------------------------ *)
(* The experiments' routers                                           *)
(* ------------------------------------------------------------------ *)

(* E4's three routers and a 64-router E5 fleet, each router placed with
   one batch, equal the per-step fold they replaced: config text,
   questions, synthesis calls and total LLM calls. No question is
   answered from the batch cache, so Figure 4 counts every question a
   user answered. *)
let test_experiment_routers_equal_fold () =
  let check_router name (got : Evaluation.Router_batch.built)
      (want : Evaluation.Router_batch.built) =
    Alcotest.(check string)
      (name ^ " config") (config_string want.config) (config_string got.config);
    check_int (name ^ " questions") want.questions got.questions;
    check_int (name ^ " synthesis calls") want.synthesis_calls
      got.synthesis_calls;
    check_int (name ^ " LLM calls") want.total_llm_calls got.total_llm_calls
  in
  let (), saved =
    counting Engine.Metrics.batch_questions_saved @@ fun () ->
    List.iter
      (fun (router, map_names, steps, reference_db) ->
        let config, (s : Evaluation.E4_lightyear.router_stats) =
          Evaluation.E4_lightyear.build_router ~router ~map_names ~steps
            ~reference_db ()
        in
        check_router ("E4 " ^ router)
          {
            config;
            questions = s.questions;
            synthesis_calls = s.synthesis_calls;
            total_llm_calls = s.total_llm_calls;
          }
          (Router_fold.build ~reference:reference_db steps))
      (Evaluation.E4_lightyear.routers ());
    let routers = 64 in
    let fleet = Evaluation.E5_fleet.run ~routers () in
    List.iter2
      (fun (plan : Netgen.Policy.plan) (r : Evaluation.E5_fleet.router_result) ->
        check_router ("E5 " ^ r.router)
          {
            config = r.config;
            questions = r.questions;
            synthesis_calls = r.synthesis_calls;
            total_llm_calls = r.total_llm_calls;
          }
          (Router_fold.build ~reference:plan.reference plan.steps))
      (Netgen.Policy.compile
         (Netgen.generate ~profile:Netgen.Fat_tree ~routers))
      fleet.results
  in
  check_int "questions answered from the batch cache" 0 saved

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "batch"
    [
      ( "equivalence",
        [
          q (prop_rm_batch_equals_sequential ~pooled:false ~count:200);
          q (prop_rm_batch_equals_sequential ~pooled:true ~count:60);
          q (prop_acl_batch_equals_sequential ~pooled:false ~count:200);
          q (prop_acl_batch_equals_sequential ~pooled:true ~count:60);
          q (prop_prefix_batch_equals_sequential ~count:200);
          q (prop_rm_conflict_witnesses ~count:200);
        ] );
      ( "pinned",
        [
          Alcotest.test_case "conflicting ACL pair with witness" `Quick
            test_pinned_acl_conflict;
          Alcotest.test_case "conflict-free batch, one graph pass" `Quick
            test_conflict_free_graph_pass;
          Alcotest.test_case "disjoint intents, own examples" `Quick
            test_disjoint_intents_own_examples;
          Alcotest.test_case "answer cache keyed on policy+position" `Quick
            test_answer_cache_dedup;
          Alcotest.test_case "cache saves repeated questions" `Quick
            test_cache_saves_repeated_questions;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E4 and E5-64 routers equal the fold" `Quick
            test_experiment_routers_equal_fold;
        ] );
    ]
