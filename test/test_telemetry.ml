(* Tests for lib/telemetry: the flight-recorder event format and
   recorder lifecycle, and the bench-snapshot schema with its
   regression-gate diff. *)

module T = Telemetry
module E = Telemetry.Event
module B = Telemetry.Bench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Events                                                             *)
(* ------------------------------------------------------------------ *)

let sample_event =
  {
    E.seq = 3;
    kind = "llm_synthesize";
    span = "pipeline.route_map_update.synthesize";
    ts_ns = 12_500.;
    ctx = [ ("router", "R1") ];
    fields =
      [
        ("prompt", Json.String "Add a stanza...");
        ("ok", Json.Bool true);
        ("text", Json.String "route-map X permit 10\n");
        ("fault", Json.Null);
      ];
  }

let test_event_roundtrip () =
  match E.of_json (Json.parse_exn (Json.to_string (E.to_json sample_event))) with
  | Error m -> Alcotest.failf "event does not round-trip: %s" m
  | Ok e ->
      check_int "seq" sample_event.E.seq e.E.seq;
      Alcotest.(check string) "kind" sample_event.E.kind e.E.kind;
      Alcotest.(check string) "span" sample_event.E.span e.E.span;
      check_bool "fields preserved" true (e.E.fields = sample_event.E.fields)

let test_event_matches () =
  check_bool "matches itself" true (E.matches sample_event sample_event);
  (* seq, span and fault are informational: a replay cannot reproduce
     them, so they must not count as divergence. *)
  let tweaked =
    {
      sample_event with
      E.seq = 99;
      span = "";
      fields =
        List.map
          (fun (n, v) ->
            if n = "fault" then (n, Json.String "flip-action") else (n, v))
          sample_event.E.fields;
    }
  in
  check_bool "seq/span/fault ignored" true (E.matches sample_event tweaked);
  let other_kind = { sample_event with E.kind = "verify" } in
  check_bool "kind divergence" false (E.matches sample_event other_kind);
  let other_text =
    {
      sample_event with
      E.fields =
        List.map
          (fun (n, v) ->
            if n = "text" then (n, Json.String "tampered") else (n, v))
          sample_event.E.fields;
    }
  in
  check_bool "payload divergence" false (E.matches sample_event other_text)

let test_recorder_lifecycle () =
  T.stop ();
  let forced = ref false in
  T.emit ~kind:"ghost" (fun () ->
      forced := true;
      []);
  check_bool "payload not forced while not recording" false !forced;
  let events = T.record_to_memory () in
  check_bool "recording" true (T.recording ());
  T.emit ~kind:"one" (fun () -> [ ("n", Json.Int 1) ]);
  Obs.enable ();
  Obs.reset ();
  Obs.with_span "spanned" (fun () ->
      T.emit ~kind:"two" (fun () -> [ ("n", Json.Int 2) ]));
  Obs.disable ();
  T.stop ();
  T.emit ~kind:"three" (fun () -> []);
  match events () with
  | [ a; b ] ->
      check_int "seq 0" 0 a.E.seq;
      check_int "seq 1" 1 b.E.seq;
      Alcotest.(check string) "kind" "one" a.E.kind;
      Alcotest.(check string) "span captured" "spanned" b.E.span
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_with_memory_recorder_restores () =
  T.stop ();
  let outer = T.record_to_memory () in
  let (), inner =
    T.with_memory_recorder (fun () ->
        T.emit ~kind:"inner" (fun () -> []))
  in
  T.emit ~kind:"outer" (fun () -> []);
  T.stop ();
  check_int "inner events isolated" 1 (List.length inner);
  match outer () with
  | [ e ] -> Alcotest.(check string) "outer recorder restored" "outer" e.E.kind
  | evs -> Alcotest.failf "expected 1 outer event, got %d" (List.length evs)

let test_parse_events () =
  let src =
    String.concat "\n"
      [
        {|{"seq":0,"kind":"a","span":"","data":{}}|};
        "";
        {|{"seq":1,"kind":"b","span":"x","data":{"k":1}}|};
        "";
      ]
  in
  (match T.parse_events src with
  | Error m -> Alcotest.failf "parse_events: %s" m
  | Ok [ a; b ] ->
      Alcotest.(check string) "first kind" "a" a.E.kind;
      Alcotest.(check (option int)) "field" (Some 1) (E.int_field "k" b)
  | Ok evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  match T.parse_events "{\"seq\":0}" with
  | Error m ->
      check_bool "error mentions the line" true
        (String.length m >= 6 && String.sub m 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "malformed event accepted"

(* ------------------------------------------------------------------ *)
(* Bench snapshots and the regression gate                            *)
(* ------------------------------------------------------------------ *)

(* A bench file built from a real registry, for schema round-trips. *)
let sample_bench () =
  Obs.enable ();
  Obs.reset ();
  Obs.Counter.incr ~by:11 (Obs.Counter.make "test.bench.llm_calls");
  let h = Obs.Histogram.make "test.bench.verify" in
  List.iter (Obs.Histogram.observe_ns h) [ 1e6; 3e6 ];
  let snapshot = Obs.Snapshot.capture () in
  Obs.disable ();
  {
    B.domains = 1;
    experiments = [ ("E1", { B.snapshot; events = 13 }) ];
    benchmarks = [ ("config-parse/isp_out", 36_340.0) ];
  }

let test_bench_roundtrip () =
  let t = sample_bench () in
  match B.of_string (Json.to_string (B.to_json t)) with
  | Error m -> Alcotest.failf "bench file does not round-trip: %s" m
  | Ok t' ->
      check_int "experiments" 1 (List.length t'.B.experiments);
      let e = List.assoc "E1" t'.B.experiments in
      check_int "events" 13 e.B.events;
      check_bool "snapshot identical" true
        (Obs.Snapshot.equal
           (List.assoc "E1" t.B.experiments).B.snapshot e.B.snapshot);
      check_bool "benchmarks identical" true
        (t.B.benchmarks = t'.B.benchmarks)

let test_bench_schema_guard () =
  match B.of_string {|{"schema":"clarify-bench/999","experiments":{},"benchmarks":{}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema accepted"

let test_diff_self_is_zero () =
  let t = sample_bench () in
  let deltas = B.diff t t in
  check_bool "no regression" false (B.regressed deltas);
  check_bool "every delta is zero" true
    (List.for_all (fun d -> d.B.change = 0.) deltas);
  check_bool "some metrics compared" true (List.length deltas >= 3)

let with_hist_scaled factor t =
  {
    t with
    B.experiments =
      List.map
        (fun (name, e) ->
          ( name,
            {
              e with
              B.snapshot =
                {
                  e.B.snapshot with
                  Obs.Snapshot.histograms =
                    List.map
                      (fun (n, h) ->
                        ( n,
                          {
                            h with
                            Obs.Snapshot.sum_ns = h.Obs.Snapshot.sum_ns *. factor;
                          } ))
                      e.B.snapshot.Obs.Snapshot.histograms;
                };
            } ))
        t.B.experiments;
  }

let test_diff_latency_regression () =
  let t = sample_bench () in
  let doubled = with_hist_scaled 2.0 t in
  let deltas = B.diff t doubled in
  check_bool "2x latency regresses" true (B.regressed deltas);
  let d =
    List.find (fun d -> d.B.regressed) deltas
  in
  Alcotest.(check string)
    "the regressed metric is the histogram mean"
    "exp.E1.hist.test.bench.verify.mean_ns" d.B.metric;
  Alcotest.(check (float 1e-9)) "change is +100%" 1.0 d.B.change;
  (* The gate is directional: the same diff reversed is an improvement. *)
  check_bool "2x speedup is not a regression" false
    (B.regressed (B.diff doubled t))

let test_diff_threshold () =
  let t = sample_bench () in
  let a_bit_slower = with_hist_scaled 1.1 t in
  check_bool "+10% passes the default 20% gate" false
    (B.regressed (B.diff t a_bit_slower));
  check_bool "+10% trips a 5% gate" true
    (B.regressed (B.diff ~threshold:0.05 t a_bit_slower))

let test_diff_counter_regression () =
  let t = sample_bench () in
  let more_calls =
    {
      t with
      B.experiments =
        List.map
          (fun (name, e) ->
            ( name,
              {
                e with
                B.snapshot =
                  {
                    e.B.snapshot with
                    Obs.Snapshot.counters =
                      List.map
                        (fun (n, v) -> (n, v * 2))
                        e.B.snapshot.Obs.Snapshot.counters;
                  };
              } ))
          t.B.experiments;
    }
  in
  check_bool "doubled counter regresses" true
    (B.regressed (B.diff t more_calls))

let test_diff_added_removed () =
  let t = sample_bench () in
  let renamed =
    { t with B.benchmarks = [ ("config-parse/renamed", 36_340.0) ] }
  in
  let deltas = B.diff t renamed in
  check_bool "added/removed metrics never regress" false (B.regressed deltas);
  check_bool "removed metric reported" true
    (List.exists
       (fun d -> d.B.new_value = None && d.B.metric = "bench.config-parse/isp_out.ns_per_run")
       deltas);
  check_bool "added metric reported" true
    (List.exists
       (fun d -> d.B.old_value = None && d.B.metric = "bench.config-parse/renamed.ns_per_run")
       deltas)

let () =
  Alcotest.run "telemetry"
    [
      ( "events",
        [
          Alcotest.test_case "round-trip" `Quick test_event_roundtrip;
          Alcotest.test_case "replay equivalence" `Quick test_event_matches;
          Alcotest.test_case "recorder lifecycle" `Quick test_recorder_lifecycle;
          Alcotest.test_case "memory recorder restores" `Quick
            test_with_memory_recorder_restores;
          Alcotest.test_case "parse jsonl" `Quick test_parse_events;
        ] );
      ( "bench gate",
        [
          Alcotest.test_case "file round-trip" `Quick test_bench_roundtrip;
          Alcotest.test_case "schema guard" `Quick test_bench_schema_guard;
          Alcotest.test_case "self diff is zero" `Quick test_diff_self_is_zero;
          Alcotest.test_case "2x latency regresses" `Quick
            test_diff_latency_regression;
          Alcotest.test_case "threshold" `Quick test_diff_threshold;
          Alcotest.test_case "counter regression" `Quick
            test_diff_counter_regression;
          Alcotest.test_case "added/removed" `Quick test_diff_added_removed;
        ] );
    ]
