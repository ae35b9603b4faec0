open Config
module D = Clarify.Disambiguator
module Ad = Clarify.Acl_disambiguator
module P = Clarify.Pipeline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pfx = Netaddr.Prefix.of_string_exn
let comm = Bgp.Community.of_string_exn

let parse_ok src =
  match Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

let isp_out_config =
  {|
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
|}

let paper_prompt =
  "Write a route-map stanza that permits routes containing the prefix \
   100.0.0.0/16 with mask length less than or equal to 23 and tagged with \
   the community 300:3. Their MED value should be set to 55."

(* Figure 2(a): the new stanza first. *)
let fig2a_config =
  {|
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
ip community-list expanded D2 permit _300:3_
ip prefix-list D3 permit 100.0.0.0/16 le 23
route-map ISP_OUT permit 10
 match community D2
 match ip address prefix-list D3
 set metric 55
route-map ISP_OUT deny 20
 match as-path D0
route-map ISP_OUT deny 30
 match ip address prefix-list D1
route-map ISP_OUT permit 40
 match local-preference 300
|}

(* Figure 2(b): the new stanza last. *)
let fig2b_config =
  {|
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
ip community-list expanded D2 permit _300:3_
ip prefix-list D3 permit 100.0.0.0/16 le 23
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
route-map ISP_OUT permit 40
 match community D2
 match ip address prefix-list D3
 set metric 55
|}

let semantics_of config =
  let db = parse_ok config in
  let rm = Option.get (Database.route_map db "ISP_OUT") in
  fun route -> Semantics.eval_route_map db rm route

(* ------------------------------------------------------------------ *)
(* Naming                                                             *)
(* ------------------------------------------------------------------ *)

let test_fresh_names () =
  let db = parse_ok isp_out_config in
  (* D0 and D1 are taken. *)
  Alcotest.(check (list string))
    "skips taken names" [ "D2"; "D3" ]
    (Clarify.Naming.fresh_names db 2)

let test_import_snippet () =
  let db = parse_ok isp_out_config in
  let snippet =
    parse_ok
      {|
ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
|}
  in
  let rm = Option.get (Database.route_map snippet "SET_METRIC") in
  match Clarify.Naming.import_route_map_snippet ~db ~snippet rm with
  | Error m -> Alcotest.fail m
  | Ok { db = db'; stanza; renaming } ->
      (* Lists land under D2/D3 exactly as in the paper's Figure 2. *)
      check "renaming covers both lists" true (List.length renaming = 2);
      check "D2 defined" true
        (Database.community_list db' "D2" <> None
        || Database.prefix_list db' "D2" <> None);
      check "D3 defined" true
        (Database.community_list db' "D3" <> None
        || Database.prefix_list db' "D3" <> None);
      (* The stanza references only fresh names. *)
      let refs =
        Route_map.referenced_lists (Route_map.make "TMP" [ stanza ])
      in
      check "no stale references" true
        (List.for_all (fun (_, n) -> n = "D2" || n = "D3") refs)

(* ------------------------------------------------------------------ *)
(* Disambiguation on the paper's example                              *)
(* ------------------------------------------------------------------ *)

(* Build the imported stanza for the paper's update. *)
let imported_paper_stanza () =
  let db = parse_ok isp_out_config in
  let snippet =
    parse_ok
      {|
ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
|}
  in
  let rm = Option.get (Database.route_map snippet "SET_METRIC") in
  match Clarify.Naming.import_route_map_snippet ~db ~snippet rm with
  | Ok { db = db'; stanza; _ } ->
      (db', Option.get (Database.route_map db' "ISP_OUT"), stanza)
  | Error m -> Alcotest.fail m

let test_boundaries_found () =
  let db, target, stanza = imported_paper_stanza () in
  let bs = D.boundaries ~db ~target stanza in
  (* Overlaps with stanza 10 (as-path deny) and stanza 30 (local-pref
     permit); no route prefix lies in both D1 and the new prefix list. *)
  Alcotest.(check (list int))
    "boundary positions" [ 0; 2 ]
    (List.map (fun (q : D.question) -> q.position) bs);
  Alcotest.(check (list int))
    "boundary seqs" [ 10; 30 ]
    (List.map (fun (q : D.question) -> q.boundary_seq) bs);
  (* Each differential example really distinguishes its two options. *)
  List.iter
    (fun (q : D.question) ->
      check "options differ" false
        (Semantics.route_result_equal q.if_new_first q.if_old_first))
    bs

let test_disambiguate_to_fig2a () =
  let db, target, stanza = imported_paper_stanza () in
  let oracle = D.intent_driven (semantics_of fig2a_config) in
  match D.run ~db ~target ~stanza ~oracle () with
  | Error _ -> Alcotest.fail "disambiguation failed"
  | Ok o ->
      check_int "position 0 (top)" 0 o.position;
      check_int "two boundaries" 2 o.boundaries;
      check "question count logarithmic" true (List.length o.questions <= 2);
      (* The result is behaviourally the paper's Figure 2(a). *)
      let fig2a_db = parse_ok fig2a_config in
      let fig2a = Option.get (Database.route_map fig2a_db "ISP_OUT") in
      check "equals Figure 2(a)" true
        (Engine.Compare_route_policies.equal_behavior ~db_a:db ~db_b:fig2a_db
           o.map fig2a)

let test_disambiguate_to_fig2b () =
  let db, target, stanza = imported_paper_stanza () in
  let oracle = D.intent_driven (semantics_of fig2b_config) in
  match D.run ~db ~target ~stanza ~oracle () with
  | Error _ -> Alcotest.fail "disambiguation failed"
  | Ok o ->
      check_int "position 3 (bottom)" 3 o.position;
      let fig2b_db = parse_ok fig2b_config in
      let fig2b = Option.get (Database.route_map fig2b_db "ISP_OUT") in
      check "equals Figure 2(b)" true
        (Engine.Compare_route_policies.equal_behavior ~db_a:db ~db_b:fig2b_db
           o.map fig2b)

let test_top_bottom_mode () =
  let db, target, stanza = imported_paper_stanza () in
  (* Paper's §2.2 flow: one question comparing top vs bottom; choosing
     OPTION 1 (permit with metric 55) yields Figure 2(a). *)
  let oracle = D.intent_driven (semantics_of fig2a_config) in
  match D.run ~mode:D.Top_bottom ~db ~target ~stanza ~oracle () with
  | Error _ -> Alcotest.fail "disambiguation failed"
  | Ok o ->
      check_int "one question" 1 (List.length o.questions);
      check_int "top placement" 0 o.position;
      (* The differential example behaves like the paper's: denied in
         one option, permitted with metric 55 in the other. *)
      let q = List.hd o.questions in
      (match (q.if_new_first, q.if_old_first) with
      | Semantics.Accept r, Semantics.Reject ->
          check_int "metric 55" 55 r.Bgp.Route.metric
      | Semantics.Reject, Semantics.Accept _ -> ()
      | _ -> Alcotest.fail "expected permit-vs-deny options")

let test_linear_mode_detects_inconsistency () =
  let db, target, stanza = imported_paper_stanza () in
  (* Answers Prefer_new then Prefer_old violate monotonicity: want the
     new stanza to beat stanza 10 but lose to stanza 30 — impossible
     with a single insertion. *)
  let oracle = D.scripted [ D.Prefer_new; D.Prefer_old ] in
  match D.run ~mode:D.Linear ~db ~target ~stanza ~oracle () with
  | Error (D.Inconsistent_intent qs) -> check_int "both asked" 2 (List.length qs)
  | Ok _ -> Alcotest.fail "expected inconsistency"

let test_no_overlap_no_questions () =
  (* The new stanza dodges every existing stanza: its as-path list
     (exactly [44]) avoids stanza 10's _32$, 200.0.0.0/8 lies outside
     prefix-list D1 (stanza 20), and local-pref 100 misses stanza 30. *)
  let db =
    parse_ok
      (isp_out_config
     ^ "\nip prefix-list D9 permit 200.0.0.0/8\n\
        ip as-path access-list D8 permit ^44$\n")
  in
  let target = Option.get (Database.route_map db "ISP_OUT") in
  let stanza =
    Route_map.stanza ~seq:10
      ~matches:
        [
          Route_map.Match_prefix_list [ "D9" ];
          Route_map.Match_local_pref 100;
          Route_map.Match_as_path [ "D8" ];
        ]
      ~sets:[ Route_map.Set_metric 1 ]
      Action.Permit
  in
  let oracle _ = Alcotest.fail "no question expected" in
  match D.run ~db ~target ~stanza ~oracle () with
  | Ok o ->
      check_int "no boundaries" 0 o.boundaries;
      check_int "appended at bottom" 3 o.position
  | Error _ -> Alcotest.fail "disambiguation failed"

(* ------------------------------------------------------------------ *)
(* Property: the disambiguator finds a placement equivalent to any
   reachable target, with logarithmically many questions.             *)
(* ------------------------------------------------------------------ *)

let prop_disambiguator_recovers_placement =
  QCheck.Test.make ~name:"binary search recovers any desired placement"
    ~count:50
    QCheck.(int_range 0 3)
    (fun p ->
      let db, target, stanza = imported_paper_stanza () in
      let desired_map = Route_map.insert_at target p stanza in
      let desired r = Semantics.eval_route_map db desired_map r in
      let oracle = D.intent_driven desired in
      match D.run ~db ~target ~stanza ~oracle () with
      | Error _ -> false
      | Ok o ->
          Engine.Compare_route_policies.equal_behavior ~db_a:db ~db_b:db o.map
            desired_map
          && List.length o.questions <= 2 (* ceil log2(2 boundaries) + 1 *))

(* ------------------------------------------------------------------ *)
(* ACL disambiguation                                                 *)
(* ------------------------------------------------------------------ *)

let fw_config =
  {|
ip access-list extended FW
 deny tcp any any eq 23
 permit tcp 10.0.0.0/8 any
 deny udp any any
 permit udp 10.0.0.0/8 any eq 53
|}

let test_acl_boundaries () =
  let db = parse_ok fw_config in
  let target = Option.get (Database.acl db "FW") in
  (* New rule: deny tcp 10.0.0.0/8 any eq 22. Overlaps rule 20 (permit
     tcp 10/8) with conflict; rule 10 matches port 23 only (disjoint);
     udp rules disjoint by protocol. *)
  let rule =
    Acl.rule ~protocol:Packet.Tcp
      ~src:(Acl.addr_of_prefix (pfx "10.0.0.0/8"))
      ~dst:Acl.Any ~dst_port:(Acl.Eq 22) Action.Deny
  in
  let bs = Ad.boundaries ~target rule in
  Alcotest.(check (list int))
    "one boundary at rule 20" [ 1 ]
    (List.map (fun (q : Ad.question) -> q.position) bs)

let test_acl_disambiguate () =
  let db = parse_ok fw_config in
  let target = Option.get (Database.acl db "FW") in
  let rule =
    Acl.rule ~protocol:Packet.Tcp
      ~src:(Acl.addr_of_prefix (pfx "10.0.0.0/8"))
      ~dst:Acl.Any ~dst_port:(Acl.Eq 22) Action.Deny
  in
  (* The user wants SSH denied: the new rule must come before rule 20. *)
  let desired (p : Packet.t) =
    if p.Packet.protocol = Packet.Tcp && p.Packet.dst_port = 22 then
      Action.Deny
    else Semantics.eval_acl target p
  in
  match Ad.run ~target ~rule ~oracle:(Ad.intent_driven desired) () with
  | Error _ -> Alcotest.fail "acl disambiguation failed"
  | Ok o ->
      check_int "one question" 1 (List.length o.questions);
      check "ssh now denied" true
        (Semantics.eval_acl o.acl
           (Packet.make ~protocol:Packet.Tcp ~dst_port:22
              ~src:(Netaddr.Ipv4.of_string_exn "10.1.1.1")
              ~dst:(Netaddr.Ipv4.of_string_exn "8.8.8.8") ())
        = Action.Deny);
      check "http still permitted" true
        (Semantics.eval_acl o.acl
           (Packet.make ~protocol:Packet.Tcp ~dst_port:80
              ~src:(Netaddr.Ipv4.of_string_exn "10.1.1.1")
              ~dst:(Netaddr.Ipv4.of_string_exn "8.8.8.8") ())
        = Action.Permit)

(* ------------------------------------------------------------------ *)
(* Full pipeline on the paper's running example                       *)
(* ------------------------------------------------------------------ *)

let run_paper_pipeline ?(faults = []) ~oracle () =
  let llm = Llm.Mock_llm.create ~faults () in
  let db = parse_ok isp_out_config in
  P.run_route_map_update ~llm ~oracle ~db ~target:"ISP_OUT"
    ~prompt:paper_prompt ()

let test_pipeline_clean () =
  let oracle = D.intent_driven (semantics_of fig2a_config) in
  match run_paper_pipeline ~oracle () with
  | Error e -> Alcotest.fail (P.error_to_string e)
  | Ok r ->
      check_int "single synthesis attempt" 1 r.P.synthesis_attempts;
      check_int "three llm calls (classify, spec, synth)" 3 r.P.llm_calls;
      check_int "placed on top" 0 r.P.position;
      check_int "two boundaries" 2 r.P.boundaries;
      let fig2a_db = parse_ok fig2a_config in
      let fig2a = Option.get (Database.route_map fig2a_db "ISP_OUT") in
      check "behaviour equals Figure 2(a)" true
        (Engine.Compare_route_policies.equal_behavior ~db_a:r.P.db
           ~db_b:fig2a_db r.P.map fig2a);
      (* The inserted lists follow the paper's D2/D3 naming. *)
      check "renamed to D2/D3" true
        (List.sort compare (List.map snd r.P.renaming) = [ "D2"; "D3" ])

let test_pipeline_repairs_faults () =
  let oracle = D.intent_driven (semantics_of fig2b_config) in
  let faults =
    [ Llm.Fault_injector.Mask_off_by_one; Llm.Fault_injector.Syntax_error ]
  in
  match run_paper_pipeline ~faults ~oracle () with
  | Error e -> Alcotest.fail (P.error_to_string e)
  | Ok r ->
      check_int "three synthesis attempts" 3 r.P.synthesis_attempts;
      check_int "two failures recorded" 2
        (List.length r.P.verification_history);
      check_int "placed at bottom" 3 r.P.position;
      let fig2b_db = parse_ok fig2b_config in
      let fig2b = Option.get (Database.route_map fig2b_db "ISP_OUT") in
      check "behaviour equals Figure 2(b)" true
        (Engine.Compare_route_policies.equal_behavior ~db_a:r.P.db
           ~db_b:fig2b_db r.P.map fig2b)

let test_pipeline_exhausts_attempts () =
  let oracle _ = Alcotest.fail "should not reach disambiguation" in
  let faults = List.init 10 (fun _ -> Llm.Fault_injector.Flip_action) in
  match run_paper_pipeline ~faults ~oracle () with
  | Error (P.Verification_exhausted history) ->
      check_int "default attempt budget" P.default_max_attempts
        (List.length history)
  | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e)
  | Ok _ -> Alcotest.fail "expected exhaustion"

let test_pipeline_wrong_target () =
  let oracle _ = D.Prefer_new in
  let llm = Llm.Mock_llm.create () in
  let db = parse_ok isp_out_config in
  match
    P.run_route_map_update ~llm ~oracle ~db ~target:"NOPE" ~prompt:paper_prompt ()
  with
  | Error (P.Target_not_found _) -> ()
  | _ -> Alcotest.fail "expected Target_not_found"

let test_pipeline_acl () =
  let llm = Llm.Mock_llm.create () in
  let db = parse_ok fw_config in
  let target_acl = Option.get (Database.acl db "FW") in
  let desired (p : Packet.t) =
    if p.Packet.protocol = Packet.Tcp && p.Packet.dst_port = 22 then Action.Deny
    else Semantics.eval_acl target_acl p
  in
  match
    P.run_acl_update ~llm ~oracle:(Ad.intent_driven desired) ~db ~target:"FW"
      ~prompt:
        "Write an access list rule that denies tcp traffic from 10.0.0.0/8 \
         to any destination with destination port 22."
      ()
  with
  | Error e -> Alcotest.fail (P.error_to_string e)
  | Ok r ->
      check_int "one attempt" 1 r.P.synthesis_attempts;
      check "ssh denied" true
        (Semantics.eval_acl r.P.acl
           (Packet.make ~protocol:Packet.Tcp ~dst_port:22
              ~src:(Netaddr.Ipv4.of_string_exn "10.2.3.4")
              ~dst:(Netaddr.Ipv4.of_string_exn "1.1.1.1") ())
        = Action.Deny)

(* Sequential multi-stanza insertion: contiguous block case from §4. *)
let test_sequential_contiguous_inserts () =
  let db = parse_ok isp_out_config in
  let llm = Llm.Mock_llm.create () in
  let prompts =
    [
      "Write a route-map stanza that permits routes containing the prefix \
       100.0.0.0/16 with mask length less than or equal to 23 and tagged \
       with the community 300:3. Their MED value should be set to 55.";
      "Write a route-map stanza that permits routes containing the prefix \
       100.1.0.0/16 with mask length less than or equal to 23 and tagged \
       with the community 300:4. Their MED value should be set to 56.";
    ]
  in
  (* Both updates want their stanza to win over everything: top block. *)
  let oracle _ = D.Prefer_new in
  let final =
    List.fold_left
      (fun db prompt ->
        match
          P.run_route_map_update ~llm ~oracle ~db ~target:"ISP_OUT" ~prompt ()
        with
        | Ok r -> r.P.db
        | Error e -> Alcotest.fail (P.error_to_string e))
      db prompts
  in
  let rm = Option.get (Database.route_map final "ISP_OUT") in
  check_int "five stanzas" 5 (List.length rm.Route_map.stanzas);
  (* Both new routes behave as intended. *)
  let r1 =
    Bgp.Route.make ~as_path:[ 32 ] ~communities:[ comm "300:3" ]
      (pfx "100.0.0.0/16")
  in
  let r2 =
    Bgp.Route.make ~as_path:[ 32 ] ~communities:[ comm "300:4" ]
      (pfx "100.1.0.0/16")
  in
  (match Semantics.eval_route_map final rm r1 with
  | Semantics.Accept r -> check_int "metric 55" 55 r.Bgp.Route.metric
  | Semantics.Reject -> Alcotest.fail "r1 should be accepted");
  match Semantics.eval_route_map final rm r2 with
  | Semantics.Accept r -> check_int "metric 56" 56 r.Bgp.Route.metric
  | Semantics.Reject -> Alcotest.fail "r2 should be accepted"

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "clarify"
    [
      ( "naming",
        [
          Alcotest.test_case "fresh names" `Quick test_fresh_names;
          Alcotest.test_case "import snippet" `Quick test_import_snippet;
        ] );
      ( "disambiguator",
        [
          Alcotest.test_case "boundaries" `Quick test_boundaries_found;
          Alcotest.test_case "to Figure 2(a)" `Quick test_disambiguate_to_fig2a;
          Alcotest.test_case "to Figure 2(b)" `Quick test_disambiguate_to_fig2b;
          Alcotest.test_case "top/bottom mode" `Quick test_top_bottom_mode;
          Alcotest.test_case "linear detects inconsistency" `Quick
            test_linear_mode_detects_inconsistency;
          Alcotest.test_case "no overlap, no questions" `Quick
            test_no_overlap_no_questions;
          q prop_disambiguator_recovers_placement;
        ] );
      ( "acl-disambiguator",
        [
          Alcotest.test_case "boundaries" `Quick test_acl_boundaries;
          Alcotest.test_case "insert ssh deny" `Quick test_acl_disambiguate;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "paper example, clean LLM" `Quick test_pipeline_clean;
          Alcotest.test_case "repairs injected faults" `Quick
            test_pipeline_repairs_faults;
          Alcotest.test_case "gives up after budget" `Quick
            test_pipeline_exhausts_attempts;
          Alcotest.test_case "unknown target" `Quick test_pipeline_wrong_target;
          Alcotest.test_case "acl update" `Quick test_pipeline_acl;
          Alcotest.test_case "sequential contiguous inserts" `Quick
            test_sequential_contiguous_inserts;
        ] );
    ]
