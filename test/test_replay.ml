(* Deterministic replay: a session recorded by the flight recorder must
   re-run bit-for-bit from its own log, and any tampering must surface
   as a divergence at the first differing event. Also pins the golden
   fixture in examples/ to the behaviour of the live pipeline. *)

module P = Clarify.Pipeline
module D = Clarify.Disambiguator
module R = Clarify.Replay
module E = Telemetry.Event

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok src =
  match Config.Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

(* Record an E1 route-map session in memory and hand back its events. *)
let record_route_map ?(faults = []) () =
  let llm = Llm.Mock_llm.create ~faults () in
  let result, events =
    Telemetry.with_memory_recorder (fun () ->
        P.run_route_map_update ~llm ~oracle:D.always_new
          ~db:(parse_ok Evaluation.E1_running_example.isp_out_config)
          ~target:"ISP_OUT" ~prompt:Evaluation.E1_running_example.prompt ())
  in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recording run failed: %s" (P.error_to_string e));
  events

let expect_identical events =
  match R.run_events events with
  | Error m -> Alcotest.failf "replay refused the log: %s" m
  | Ok report ->
      if not (R.identical report) then
        Alcotest.failf "replay diverged:@.%a" R.pp_report report;
      report

let test_route_map_roundtrip () =
  let events = record_route_map () in
  check_bool "session recorded" true (List.length events >= 5);
  let report = expect_identical events in
  Alcotest.(check string) "pipeline" "route_map" report.R.pipeline;
  check_int "same stream length" (List.length events)
    report.R.replayed_events

(* A fault-injected session replays too: the recorded responses carry
   the fault already baked in, so the replay sees the same faulty text,
   the same failed verdict and the same repair round. *)
let test_faulty_session_roundtrip () =
  let events = record_route_map ~faults:[ Llm.Fault_injector.Flip_action ] () in
  check_bool "verify event shows the failed attempt" true
    (List.exists
       (fun e ->
         e.E.kind = "verify" && E.str_field "verdict" e <> Some "verified")
       events);
  ignore (expect_identical events)

(* Tamper with one synthesized stanza: the replay must diverge, and at
   the tampered event, not at the end of the stream. *)
let test_tampered_response_diverges () =
  let events = record_route_map () in
  let tampered_index = ref (-1) in
  let tampered =
    List.mapi
      (fun i e ->
        if e.E.kind = "llm_synthesize" && !tampered_index < 0 then (
          tampered_index := i;
          {
            e with
            E.fields =
              List.map
                (fun (n, v) ->
                  if n = "text" then
                    (n, Json.String "route-map EVIL deny 10\n")
                  else (n, v))
                e.E.fields;
          })
        else e)
      events
  in
  check_bool "found a synthesize event to tamper with" true
    (!tampered_index >= 0);
  match R.run_events tampered with
  | Error m -> Alcotest.failf "replay refused the log: %s" m
  | Ok report -> (
      match report.R.outcome with
      | R.Identical -> Alcotest.fail "tampered log replayed as identical"
      | R.Diverged d ->
          (* The synthesize event itself matches (the mock echoes the
             recorded text), so the first visible divergence is at or
             just after the tampered event — never before it. *)
          check_bool "diverges at or after the tampered event" true
            (d.R.index >= !tampered_index))

let test_unusable_logs_rejected () =
  (match R.run_events [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty log accepted");
  let events = record_route_map () in
  match R.run_events (List.tl events) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "log without session_start accepted"

(* A recorded config holding a number out of its field's range, in a
   stanza the replayed session compiles, is refused with the config's
   line instead of raising from the compilation. *)
let test_out_of_range_config_located () =
  let events =
    List.map
      (fun e ->
        if e.E.kind <> "session_start" then e
        else
          {
            e with
            E.fields =
              List.map
                (function
                  | "config", Json.String c ->
                      ( "config",
                        Json.String
                          (Str_replace.replace c "match local-preference 300"
                             "match local-preference 4294967296") )
                  | field -> field)
                e.E.fields;
          })
      (record_route_map ())
  in
  match R.run_events events with
  | Ok _ -> Alcotest.fail "a log with an out-of-range config replayed"
  | Error m ->
      check_bool
        (Printf.sprintf "located error (%s)" m)
        true
        (String.starts_with ~prefix:"recorded config does not parse: line " m)
  | exception e ->
      Alcotest.failf "replay raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Batch sessions                                                     *)
(* ------------------------------------------------------------------ *)

let batch_config =
  Evaluation.E1_running_example.isp_out_config
  ^ {|
ip access-list extended LAB_EDGE
 deny tcp any any eq 23
 permit tcp 10.20.0.0 0.0.255.255 any
 deny udp any any|}

let batch_items =
  [
    Clarify.Batch.Route_map_update
      {
        target = "ISP_OUT";
        prompt = Evaluation.E1_running_example.prompt;
      };
    Clarify.Batch.Route_map_update
      {
        target = "ISP_OUT";
        prompt =
          "Write a route-map stanza that denies routes containing the prefix \
           100.0.0.0/18 with mask length less than or equal to 23.";
      };
    Clarify.Batch.Acl_update
      {
        target = "LAB_EDGE";
        prompt =
          "Write an access list rule that permits tcp traffic from anywhere \
           to any destination with destination port 443.";
      };
  ]

(* A batch session — including a genuine inter-intent conflict between
   the two ISP_OUT intents — records and replays bit-for-bit. *)
let test_batch_roundtrip () =
  let llm = Llm.Mock_llm.create () in
  let oracle ~intent:_ ~target:_ _ = Clarify.Disambig_common.Prefer_new in
  let result, events =
    Telemetry.with_memory_recorder (fun () ->
        Clarify.Batch.run ~llm ~oracle ~db:(parse_ok batch_config) batch_items)
  in
  let report =
    match result with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "recording batch failed: %s"
          (Clarify.Batch.error_to_string e)
  in
  check_int "one genuine conflict" 1
    (List.length report.Clarify.Batch.conflicts);
  let r = expect_identical events in
  Alcotest.(check string) "pipeline" "batch" r.R.pipeline

(* ------------------------------------------------------------------ *)
(* Golden fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let fixture = "../examples/acl_session.jsonl"
let batch_fixture = "../examples/batch_session.jsonl"

let test_golden_batch_fixture_replays () =
  let report =
    match R.run_file batch_fixture with
    | Ok r -> r
    | Error m -> Alcotest.failf "replay refused the batch fixture: %s" m
  in
  if not (R.identical report) then
    Alcotest.failf "golden batch fixture diverged:@.%a" R.pp_report report;
  Alcotest.(check string) "pipeline" "batch" report.R.pipeline

let fixture_events () =
  match Telemetry.load_file fixture with
  | Ok events -> events
  | Error m -> Alcotest.failf "cannot load %s: %s" fixture m

let test_golden_fixture_replays () =
  let report =
    match R.run_file fixture with
    | Ok r -> r
    | Error m -> Alcotest.failf "replay refused the fixture: %s" m
  in
  if not (R.identical report) then
    Alcotest.failf "golden fixture diverged:@.%a" R.pp_report report;
  Alcotest.(check string) "pipeline" "acl" report.R.pipeline

(* The fixture's recorded outcome must equal what the seed pipeline
   produces today when run directly from the fixture's inputs: the
   final configuration is reproduced verbatim. *)
let test_golden_fixture_matches_live_pipeline () =
  let events = fixture_events () in
  let start = List.hd events in
  let field name =
    match E.str_field name start with
    | Some s -> s
    | None -> Alcotest.failf "fixture session_start lacks %S" name
  in
  let db = parse_ok (field "config") in
  let llm = Llm.Mock_llm.create () in
  let oracle _ = Clarify.Acl_disambiguator.Prefer_new in
  let report =
    match
      P.run_acl_update ~llm ~oracle ~db ~target:(field "target")
        ~prompt:(field "prompt") ()
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "live run failed: %s" (P.error_to_string e)
  in
  let session_end =
    (* Span mirror events may trail session_end (the root span closes
       after the pipeline's last emission); skip them. *)
    match
      List.rev (List.filter (fun e -> e.E.kind <> "span") events)
    with
    | e :: _ when e.E.kind = "session_end" -> e
    | _ -> Alcotest.fail "fixture does not end with session_end"
  in
  let recorded_config =
    match E.str_field "config" session_end with
    | Some c -> c
    | None -> Alcotest.fail "fixture session_end lacks the final config"
  in
  Alcotest.(check string) "final configuration verbatim" recorded_config
    (Config.Parser.to_string report.P.db);
  check_int "placement position" 1 report.P.position

let () =
  Alcotest.run "replay"
    [
      ( "record/replay",
        [
          Alcotest.test_case "route-map session" `Quick
            test_route_map_roundtrip;
          Alcotest.test_case "fault-injected session" `Quick
            test_faulty_session_roundtrip;
          Alcotest.test_case "tampered response diverges" `Quick
            test_tampered_response_diverges;
          Alcotest.test_case "out-of-range config is a located error" `Quick
            test_out_of_range_config_located;
          Alcotest.test_case "unusable logs rejected" `Quick
            test_unusable_logs_rejected;
          Alcotest.test_case "batch session with a conflict" `Quick
            test_batch_roundtrip;
        ] );
      ( "golden fixture",
        [
          Alcotest.test_case "replays identically" `Quick
            test_golden_fixture_replays;
          Alcotest.test_case "matches the live pipeline" `Quick
            test_golden_fixture_matches_live_pipeline;
          Alcotest.test_case "batch session replays identically" `Quick
            test_golden_batch_fixture_replays;
        ] );
    ]
