(* Deterministic replay: a session recorded by the flight recorder must
   re-run bit-for-bit from its own log, and any tampering must surface
   as a divergence at the first differing event. Also pins the golden
   fixture in examples/ to the behaviour of the live pipeline, and
   replays every router log of E4 and of a small E5 fleet. *)

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

(* Every router log of E4 and of a 6-router E5 fleet is one batch
   session, and each replays bit-for-bit: the empty target maps the
   printer drops come back from [empty_targets], and E5's
   fleet_router events are not part of the session. *)
let test_experiment_logs_replay () =
  let dir = Filename.temp_file "experiment_logs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let logs () =
    List.filter
      (fun f -> Filename.check_suffix f ".jsonl")
      (Array.to_list (Sys.readdir dir))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  ignore (Evaluation.E4_lightyear.run ~record_dir:dir ());
  ignore (Evaluation.E5_fleet.run ~record_dir:dir ~routers:6 ());
  check_int "3 E4 and 6 E5 logs" 9 (List.length (logs ()));
  List.iter
    (fun f ->
      match R.run_file (Filename.concat dir f) with
      | Error m -> Alcotest.failf "replay refused %s: %s" f m
      | Ok r ->
          if not (R.identical r) then
            Alcotest.failf "%s diverged:@.%a" f R.pp_report r)
    (logs ())

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

(* ------------------------------------------------------------------ *)
(* Mutated logs and bench snapshots: located errors, never exceptions *)
(* ------------------------------------------------------------------ *)

(* The structure of an event line or a bench snapshot, and the keys and
   values its readers look up, for [Config_mutations.mutate] to insert. *)
let json_fragments =
  [|
    "\n"; " "; "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "null"; "true";
    "false"; "-"; "."; "e"; "\"seq\":"; "\"kind\":"; "\"span\":"; "\"ts_ns\":";
    "\"data\":{}"; "\"ctx\":{\"router\":\"R1\"}"; "\"kind\":\"span\"";
    "\"kind\":\"question\""; "\"answer\":\"old\""; "\"ok\":false";
    "\"mode\":\"linear\""; "\"pipeline\":\"batch\""; "\"items\":[]";
    "\"counters\":"; "\"gauges\":"; "\"histograms\":"; "\"buckets\":[[\"inf\",1]]";
    "\"schema\":\"clarify-bench/1\""; "\"domains\":";
  |]

let json_numbers =
  Array.append Config_mutations.splice_numbers [| "-1"; "0.5"; "1e308"; "1e999" |]

let mutated seeds =
  Config_mutations.mutated
    (fun rng -> QCheck.Gen.oneofa (Lazy.force seeds) rng)
    (Config_mutations.mutate ~fragments:json_fragments ~numbers:json_numbers)

let raises what f =
  match f () with
  | _ -> false
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let log_seeds =
  lazy
    (Array.map Config_mutations.read_file
       [| "../examples/acl_session.jsonl"; "../examples/batch_session.jsonl" |])

let prop_mutated_logs =
  QCheck.Test.make ~name:"mutated logs give Ok or Error, never an exception" ~count:2_000
    (QCheck.make ~print:(Printf.sprintf "%S") (mutated log_seeds))
    (fun text ->
      let path = Filename.temp_file "mutated_log" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      not
        (raises "parse_events and replay" (fun () ->
             Result.map R.run_events (Telemetry.parse_events text))
        || raises "Session_reference.load_file" (fun () ->
               Session_reference.load_file ~tolerant:true path)
        || raises "Stream.fold_file" (fun () -> Analytics.Stream.fold_file path)))

(* A snapshot holding every kind of series, a labeled one and the
   "inf" bucket bound, as [bench/main.exe --json] writes it. *)
let bench_seeds =
  lazy
    (Obs.enable ();
     Obs.reset ();
     Fun.protect ~finally:Obs.disable @@ fun () ->
     Obs.Counter.incr ~by:3 (Obs.Counter.labeled "test.mut.calls" [ ("k", "v") ]);
     Obs.Gauge.set (Obs.Gauge.make "test.mut.depth") 4.5;
     List.iter (Obs.Histogram.observe_ns (Obs.Histogram.make "test.mut.lat")) [ 500.; 2e10 ];
     let snapshot = Obs.Snapshot.capture () in
     let bench =
       {
         Telemetry.Bench.domains = 1;
         experiments = [ ("E1", { Telemetry.Bench.snapshot; events = 7 }) ];
         benchmarks = [ ("llm/classify", 3200.5) ];
       }
     in
     [| Json.to_string (Telemetry.Bench.to_json bench) |])

let prop_mutated_bench =
  QCheck.Test.make ~name:"mutated bench snapshots give Ok or Error" ~count:10_000
    (QCheck.make ~print:(Printf.sprintf "%S") (mutated bench_seeds))
    (fun text -> not (raises "Bench.of_string" (fun () -> Telemetry.Bench.of_string text)))

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
          Alcotest.test_case "E4 and E5 router logs" `Quick
            test_experiment_logs_replay;
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
      ( "mutations",
        [
          QCheck_alcotest.to_alcotest prop_mutated_logs;
          QCheck_alcotest.to_alcotest prop_mutated_bench;
        ] );
    ]
