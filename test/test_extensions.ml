(* Tests for the features beyond the paper's prototype: prefix-list
   insertion disambiguation (the paper's first future-work item) and
   the LLM-as-disambiguator baseline (its closing discussion). *)

open Config
module Pld = Clarify.Prefix_list_disambiguator

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pfx = Netaddr.Prefix.of_string_exn

let range ?ge ?le s = Netaddr.Prefix_range.make (pfx s) ~ge ~le

let parse_ok src =
  match Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

let target_list () =
  Prefix_list.make "PL"
    [
      Prefix_list.entry ~seq:10 ~action:Action.Permit (range ~le:24 "10.0.0.0/8");
      Prefix_list.entry ~seq:20 ~action:Action.Deny (range ~le:32 "10.1.0.0/16");
      Prefix_list.entry ~seq:30 ~action:Action.Permit (range ~le:32 "20.0.0.0/8");
    ]

let eval pl p =
  match Prefix_list.eval pl p with Some a -> a | None -> Action.Deny

(* ------------------------------------------------------------------ *)
(* Prefix-list insertion                                              *)
(* ------------------------------------------------------------------ *)

let test_pl_boundaries () =
  let target = target_list () in
  (* New deny entry for 10.0.0.0/8 le 32: overlaps entry 10 (conflict),
     overlaps entry 20 (same action -> behaviour may still differ?
     deny/deny -> no), disjoint from entry 30. *)
  let entry =
    Prefix_list.entry ~seq:99 ~action:Action.Deny (range ~le:32 "10.0.0.0/8")
  in
  let bs = Pld.boundaries ~target entry in
  Alcotest.(check (list int))
    "boundary at entry 10 only" [ 0 ]
    (List.map (fun (q : Pld.question) -> q.position) bs);
  let q = List.hd bs in
  check "example matched by both" true
    (Netaddr.Prefix_range.matches (range ~le:24 "10.0.0.0/8") q.prefix
    && Netaddr.Prefix_range.matches (range ~le:32 "10.0.0.0/8") q.prefix);
  check "options differ" true (q.if_new_first <> q.if_old_first)

let test_pl_insert_new_first () =
  let target = target_list () in
  let entry =
    Prefix_list.entry ~seq:99 ~action:Action.Deny (range ~le:32 "10.0.0.0/8")
  in
  (* The user wants all of 10/8 denied. *)
  let desired p =
    if Netaddr.Prefix_range.matches (range ~le:32 "10.0.0.0/8") p then
      Action.Deny
    else eval target p
  in
  match Pld.run ~target ~entry ~oracle:(Pld.intent_driven desired) () with
  | Error _ -> Alcotest.fail "disambiguation failed"
  | Ok o ->
      check_int "placed on top" 0 o.position;
      check_int "one question" 1 (List.length o.questions);
      check "10/8 now denied" true
        (eval o.prefix_list (pfx "10.2.0.0/16") = Action.Deny);
      check "20/8 untouched" true
        (eval o.prefix_list (pfx "20.1.0.0/16") = Action.Permit)

let test_pl_insert_old_first () =
  let target = target_list () in
  let entry =
    Prefix_list.entry ~seq:99 ~action:Action.Deny (range ~le:32 "10.0.0.0/8")
  in
  (* The user wants existing behaviour kept: only previously-unmatched
     10/8 prefixes (length 25-32 outside 10.1/16) become denied — which
     the implicit deny already did, so behaviour is unchanged. *)
  let desired p = eval target p in
  match Pld.run ~target ~entry ~oracle:(Pld.intent_driven desired) () with
  | Error _ -> Alcotest.fail "disambiguation failed"
  | Ok o ->
      check_int "placed at bottom" 3 o.position;
      check "short 10/8 prefixes still permitted" true
        (eval o.prefix_list (pfx "10.2.0.0/16") = Action.Permit)

let test_pl_no_overlap () =
  let target = target_list () in
  let entry =
    Prefix_list.entry ~seq:99 ~action:Action.Deny (range ~le:32 "99.0.0.0/8")
  in
  let oracle _ = Alcotest.fail "no question expected" in
  match Pld.run ~target ~entry ~oracle () with
  | Ok o ->
      check_int "no boundaries" 0 o.boundaries;
      check_int "appended" 3 o.position
  | Error _ -> Alcotest.fail "disambiguation failed"

let test_pl_linear_inconsistency () =
  (* Two conflicting overlaps with opposite desired outcomes cannot be
     realized by one insertion; Linear mode must notice. *)
  let target =
    Prefix_list.make "PL"
      [
        Prefix_list.entry ~seq:10 ~action:Action.Permit (range ~le:24 "10.0.0.0/8");
        Prefix_list.entry ~seq:20 ~action:Action.Permit (range ~le:24 "20.0.0.0/8");
      ]
  in
  let entry =
    Prefix_list.entry ~seq:99 ~action:Action.Deny (range ~le:24 "0.0.0.0/0")
  in
  let oracle =
    let first = ref true in
    fun (_ : Pld.question) ->
      if !first then begin
        first := false;
        Pld.Prefer_new
      end
      else Pld.Prefer_old
  in
  match Pld.run ~mode:Pld.Linear ~target ~entry ~oracle () with
  | Error (Pld.Inconsistent_intent qs) -> check_int "two asked" 2 (List.length qs)
  | Ok _ -> Alcotest.fail "expected inconsistency"

let prop_pl_binary_recovers_placement =
  QCheck.Test.make ~name:"prefix-list binary search recovers any placement"
    ~count:60
    QCheck.(int_range 0 3)
    (fun p ->
      let target = target_list () in
      let entry =
        Prefix_list.entry ~seq:99 ~action:Action.Deny (range ~le:32 "10.0.0.0/8")
      in
      let desired_list = Pld.insert_entry_at target p entry in
      let desired q = eval desired_list q in
      match Pld.run ~target ~entry ~oracle:(Pld.intent_driven desired) () with
      | Error _ -> false
      | Ok o ->
          (* Behavioural equality over a probe set that covers every
             region of interest. *)
          List.for_all
            (fun probe -> eval o.prefix_list probe = eval desired_list probe)
            [
              pfx "10.0.0.0/8"; pfx "10.2.0.0/16"; pfx "10.1.0.0/16";
              pfx "10.1.5.0/24"; pfx "10.1.5.0/32"; pfx "10.2.0.0/25";
              pfx "20.5.0.0/16"; pfx "99.0.0.0/8";
            ])

(* ------------------------------------------------------------------ *)
(* The paper's §4 caveat: sequential insertion is order/choice
   sensitive. Desired final map: [B: permit 10.1/16; A: deny 10/8;
   S1: permit all]. Inserting B into [S1] finds no behavioural boundary
   (B duplicates S1's behaviour on its region), so every position is
   equivalent *at that moment* and the algorithm freely picks the
   bottom — after which no placement of A can realize the goal. Had B
   landed on top, inserting A between B and S1 succeeds. *)
(* ------------------------------------------------------------------ *)

let order_sensitivity_db () =
  parse_ok
    {|
ip prefix-list TEN permit 10.0.0.0/8 le 32
ip prefix-list TENONE permit 10.1.0.0/16 le 32
route-map M permit 10
|}

let stanza_a =
  Route_map.stanza ~seq:99
    ~matches:[ Route_map.Match_prefix_list [ "TEN" ] ]
    Action.Deny

let stanza_b =
  Route_map.stanza ~seq:98
    ~matches:[ Route_map.Match_prefix_list [ "TENONE" ] ]
    Action.Permit

let desired_final db =
  (* [B; A; S1] built by hand. *)
  let target = Option.get (Database.route_map db "M") in
  let with_a = Route_map.insert_at target 0 stanza_a in
  Route_map.insert_at with_a 0 stanza_b

let test_sequential_insertion_order_sensitivity () =
  let db = order_sensitivity_db () in
  let target = Option.get (Database.route_map db "M") in
  let final = desired_final db in
  let desired r = Semantics.eval_route_map db final r in
  let oracle = Clarify.Disambiguator.intent_driven desired in
  (* Step 1: insert B. No boundary exists, so the algorithm appends. *)
  let after_b =
    match Clarify.Disambiguator.run ~db ~target ~stanza:stanza_b ~oracle () with
    | Ok o ->
        check_int "B: no boundaries" 0 o.Clarify.Disambiguator.boundaries;
        check_int "B appended at bottom" 1 o.Clarify.Disambiguator.position;
        o.Clarify.Disambiguator.map
    | Error _ -> Alcotest.fail "step 1 failed"
  in
  (* Step 2: inserting A can no longer realize the goal; Linear mode
     reports the inconsistency instead of silently mis-inserting. *)
  (match
     Clarify.Disambiguator.run ~mode:Clarify.Disambiguator.Linear ~db
       ~target:after_b ~stanza:stanza_a ~oracle ()
   with
  | Error (Clarify.Disambiguator.Inconsistent_intent _) -> ()
  | Ok o ->
      (* If it "succeeds", the result must NOT match the goal — prove
         the failure is real, not an artifact of the checker. *)
      check "misses the goal" false
        (Engine.Compare_route_policies.equal_behavior ~db_a:db ~db_b:db
           o.Clarify.Disambiguator.map final));
  (* The alternative placement choice at step 1 (top, behaviourally
     equivalent at the time) makes step 2 succeed — the paper's point. *)
  let after_b_top = Route_map.insert_at target 0 stanza_b in
  match
    Clarify.Disambiguator.run ~db ~target:after_b_top ~stanza:stanza_a ~oracle ()
  with
  | Ok o ->
      check "goal reached via the other branch" true
        (Engine.Compare_route_policies.equal_behavior ~db_a:db ~db_b:db
           o.Clarify.Disambiguator.map final)
  | Error _ -> Alcotest.fail "step 2 (alternative) failed"

(* ------------------------------------------------------------------ *)
(* LLM placement baseline                                             *)
(* ------------------------------------------------------------------ *)

let test_llm_placement_heuristics () =
  let db =
    parse_ok
      {|
ip prefix-list P permit 10.0.0.0/8 le 24
route-map RM deny 10
 match ip address prefix-list P
route-map RM permit 20
|}
  in
  let target = Option.get (Database.route_map db "RM") in
  (* A deny goes above the trailing catch-all permit. *)
  let deny = Route_map.stanza ~seq:99 Action.Deny in
  check_int "deny above catch-all" 1
    (Llm.Llm_placement.guess ~target ~stanza:deny);
  (* A permit goes to the bottom. *)
  let permit = Route_map.stanza ~seq:99 Action.Permit in
  check_int "permit at bottom" 2
    (Llm.Llm_placement.guess ~target ~stanza:permit);
  (* Without a catch-all, a deny goes to the top. *)
  let target2 =
    Route_map.make "RM2"
      [
        Route_map.stanza ~seq:10
          ~matches:[ Route_map.Match_prefix_list [ "P" ] ]
          Action.Permit;
      ]
  in
  check_int "deny at top" 0 (Llm.Llm_placement.guess ~target:target2 ~stanza:deny)

let test_a2_ablation () =
  let r = Evaluation.A2_llm_disambiguator.run () in
  check "clarify always correct" true
    (r.Evaluation.A2_llm_disambiguator.clarify_correct
    = r.Evaluation.A2_llm_disambiguator.scenarios);
  check "llm heuristic is worse" true
    (r.Evaluation.A2_llm_disambiguator.llm_correct
    < r.Evaluation.A2_llm_disambiguator.scenarios);
  check "questions are few" true
    (r.Evaluation.A2_llm_disambiguator.clarify_questions_total
    <= 3 * r.Evaluation.A2_llm_disambiguator.scenarios)

(* ------------------------------------------------------------------ *)
(* E2/E3/E4 drivers stay faithful (regression harness for the tables) *)
(* ------------------------------------------------------------------ *)

let test_e2_rows_match () =
  List.iter
    (fun (r : Evaluation.E23_overlap_study.row) ->
      match r.quantity with
      | "ACLs with >=1 overlap" -> check "69" true (r.measured = "69")
      | "ACLs with >20 overlaps" -> check "48" true (r.measured = "48")
      | "route-maps with overlaps" -> check "140" true (r.measured = "140")
      | _ -> ())
    (Evaluation.E23_overlap_study.cloud ())

let test_e4_matches_figure4 () =
  let r = Evaluation.E4_lightyear.run () in
  check "converged" true r.Evaluation.E4_lightyear.converged;
  check "all policies hold" true
    (Netsim.Policies.all_hold r.Evaluation.E4_lightyear.policies);
  List.iter
    (fun (s : Evaluation.E4_lightyear.router_stats) ->
      let expected =
        List.find
          (fun (n, _, _, _) -> n = s.router)
          Evaluation.E4_lightyear.paper_figure4
      in
      let _, maps, calls, questions = expected in
      check_int (s.router ^ " route-maps") maps s.route_maps;
      check_int (s.router ^ " llm calls") calls s.synthesis_calls;
      check_int (s.router ^ " questions") questions s.questions)
    r.Evaluation.E4_lightyear.stats

let test_e1_driver () =
  let o = Evaluation.E1_running_example.run () in
  check_int "four candidates" 4
    (List.length o.Evaluation.E1_running_example.candidates);
  check "differential example found" true
    (o.Evaluation.E1_running_example.question <> None);
  let report = o.Evaluation.E1_running_example.report in
  check_int "top placement" 0 report.Clarify.Pipeline.position

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "prefix-list-disambiguator",
        [
          Alcotest.test_case "boundaries" `Quick test_pl_boundaries;
          Alcotest.test_case "insert new first" `Quick test_pl_insert_new_first;
          Alcotest.test_case "insert old first" `Quick test_pl_insert_old_first;
          Alcotest.test_case "no overlap" `Quick test_pl_no_overlap;
          Alcotest.test_case "linear inconsistency" `Quick
            test_pl_linear_inconsistency;
          q prop_pl_binary_recovers_placement;
        ] );
      ( "sequential-insertion",
        [
          Alcotest.test_case "order/choice sensitivity (paper §4)" `Quick
            test_sequential_insertion_order_sensitivity;
        ] );
      ( "llm-placement",
        [
          Alcotest.test_case "heuristics" `Quick test_llm_placement_heuristics;
          Alcotest.test_case "A2 ablation" `Quick test_a2_ablation;
        ] );
      ( "evaluation-drivers",
        [
          Alcotest.test_case "E1" `Quick test_e1_driver;
          Alcotest.test_case "E2 rows" `Slow test_e2_rows_match;
          Alcotest.test_case "E4 equals Figure 4" `Slow test_e4_matches_figure4;
        ] );
    ]
