(* Tests for the observability layer (lib/obs) and its wiring through
   the Clarify pipeline: primitives first (counters, histograms, spans,
   sinks), then end-to-end assertions that a full [Pipeline.run_*]
   emits a span per stage and that the counters match the LLM calls,
   verification attempts and disambiguation questions the scenario
   forces. *)

module P = Clarify.Pipeline
module D = Clarify.Disambiguator
module Ad = Clarify.Acl_disambiguator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every test starts from a clean enabled registry and leaves the layer
   disabled with the silent sink, so test order cannot matter. *)
let with_obs f () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.silent;
      Obs.disable ())
    f

let counter_value name =
  match Obs.Counter.find name with
  | Some c -> Obs.Counter.value c
  | None -> Alcotest.failf "counter %s is not registered" name

(* Spans reach consumers only through the sink: install one that
   collects every completed span; the thunk returns them in completion
   order. *)
let collect_spans () =
  let acc = ref [] in
  Obs.set_sink { Obs.on_span = (fun s -> acc := s :: !acc) };
  fun () -> List.rev !acc

let span_paths spans = List.map (fun s -> s.Obs.Span.path) (spans ())

(* ------------------------------------------------------------------ *)
(* Primitives                                                         *)
(* ------------------------------------------------------------------ *)

let test_counter_basics =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.counter" in
  check_int "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:4 c;
  check_int "accumulates" 5 (Obs.Counter.value c);
  check_bool "make is idempotent" true (Obs.Counter.make "test.counter" == c);
  Obs.reset ();
  check_int "reset zeroes" 0 (Obs.Counter.value c);
  Obs.disable ();
  Obs.Counter.incr c;
  check_int "disabled incr is a no-op" 0 (Obs.Counter.value c)

let test_histogram_basics =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.hist" in
  List.iter (Obs.Histogram.observe_ns h) [ 500.; 5_000.; 2_000_000. ];
  check_int "count" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" 2_005_500. (Obs.Histogram.sum_ns h);
  Alcotest.(check (float 1e-6)) "max" 2_000_000. (Obs.Histogram.max_ns h);
  (* 500ns lands in the <=1us bucket, 5us in <=10us, 2ms in <=10ms. *)
  let cum = Obs.Histogram.buckets h in
  check_int "first bucket" 1 (snd (List.nth cum 0));
  check_int "second bucket" 2 (snd (List.nth cum 1));
  check_int "last bucket is total" 3 (snd (List.nth cum (List.length cum - 1)))

let test_spans_nest =
  with_obs @@ fun () ->
  let spans = collect_spans () in
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span "inner" (fun () -> 21) * 2)
  in
  check_int "value passes through" 42 r;
  (match spans () with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner path" "outer.inner" inner.Obs.Span.path;
      check_int "inner depth" 1 inner.Obs.Span.depth;
      Alcotest.(check string) "outer path" "outer" outer.Obs.Span.path;
      check_int "outer depth" 0 outer.Obs.Span.depth;
      check_bool "children complete first" true
        (inner.Obs.Span.seq < outer.Obs.Span.seq)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  (* Span latencies are recorded as histograms named by the path. *)
  (match Obs.Histogram.find "outer.inner" with
  | Some h -> check_int "span histogram count" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "no histogram for span path");
  (* A raising body still closes its span. *)
  (try Obs.with_span "outer" (fun () -> failwith "boom") with Failure _ -> ());
  check_int "span recorded on raise" 3 (List.length (spans ()))

let test_disabled_is_passthrough () =
  Obs.disable ();
  Obs.reset ();
  let spans = collect_spans () in
  Fun.protect ~finally:(fun () -> Obs.set_sink Obs.silent) @@ fun () ->
  let r = Obs.with_span "ghost" (fun () -> 7) in
  check_int "value passes through" 7 r;
  check_int "no spans recorded" 0 (List.length (spans ()))

let test_sinks =
  with_obs @@ fun () ->
  let buf = Buffer.create 128 in
  let fmt = Format.formatter_of_buffer buf in
  Obs.set_sink (Obs.text_sink fmt);
  Obs.with_span "sinked" (fun () -> ());
  Format.pp_print_flush fmt ();
  Obs.set_sink Obs.silent;
  let text = Buffer.contents buf in
  check_bool "text sink mentions the span" true
    (String.length text > 0
    && String.length text >= String.length "sinked")

(* The default clock must be wall-clock ([Unix.gettimeofday]), not
   [Sys.time]: a sleeping span consumes no CPU time, so under the old
   default its latency vanished from the histogram. *)
let test_default_clock_sees_sleep =
  with_obs @@ fun () ->
  Obs.with_span "sleepy" (fun () -> Unix.sleepf 0.05);
  match Obs.Histogram.find "sleepy" with
  | None -> Alcotest.fail "no histogram for sleepy span"
  | Some h ->
      check_int "one observation" 1 (Obs.Histogram.count h);
      check_bool "sleep time is visible (>= 40ms)" true
        (Obs.Histogram.sum_ns h >= 4e7)

(* Values landing exactly on the 1us/10us/.../10s bucket boundaries
   belong to the bucket they bound (slots are <= upper_bound), and
   anything beyond 10s lands in the +inf overflow bucket. *)
let test_histogram_bucket_edges =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.edges" in
  let bounds = [ 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 ] in
  List.iter (Obs.Histogram.observe_ns h) bounds;
  Obs.Histogram.observe_ns h 2e10;
  (* beyond the last finite bound *)
  let cum = Obs.Histogram.buckets h in
  check_int "nine buckets" 9 (List.length cum);
  List.iteri
    (fun i (bound, c) ->
      if bound <> infinity then begin
        Alcotest.(check (float 0.)) "finite bound" (List.nth bounds i) bound;
        (* Cumulative count at bucket i includes exactly bounds 0..i. *)
        check_int (Printf.sprintf "cumulative at %g" bound) (i + 1) c
      end
      else check_int "overflow bucket holds the rest" 9 c)
    cum;
  Alcotest.(check (float 0.)) "max" 2e10 (Obs.Histogram.max_ns h)

let test_current_path =
  with_obs @@ fun () ->
  Alcotest.(check string) "empty outside spans" "" (Obs.current_path ());
  Obs.with_span "a" (fun () ->
      Obs.with_span "b" (fun () ->
          Alcotest.(check string) "nested path" "a.b" (Obs.current_path ())));
  Alcotest.(check string) "empty again" "" (Obs.current_path ())

let test_snapshot_roundtrip =
  with_obs @@ fun () ->
  Obs.Counter.incr ~by:7 (Obs.Counter.make "test.rt.counter");
  let h = Obs.Histogram.make "test.rt.hist" in
  (* Edge values exercise every bucket including +inf in the buckets
     list, whose bound must survive the "inf" JSON encoding. *)
  List.iter (Obs.Histogram.observe_ns h) [ 1e3; 5e5; 2e10; 123.456 ];
  let snap = Obs.Snapshot.capture () in
  let json_text = Json.to_string (Obs.Snapshot.to_json snap) in
  (match Result.bind (Json.parse json_text) Obs.Snapshot.of_json with
  | Error m -> Alcotest.failf "snapshot does not round-trip: %s" m
  | Ok snap' ->
      check_bool "snapshot |> to_json |> of_json identity" true
        (Obs.Snapshot.equal snap snap'));
  (* The snapshot only freezes non-zero aggregates. *)
  check_bool "counter present" true
    (List.mem_assoc "test.rt.counter" snap.Obs.Snapshot.counters);
  let hist = List.assoc "test.rt.hist" snap.Obs.Snapshot.histograms in
  check_int "hist count" 4 hist.Obs.Snapshot.count;
  Alcotest.(check (float 1e-6))
    "mean" (hist.Obs.Snapshot.sum_ns /. 4.)
    (Obs.Snapshot.mean_ns hist)

(* ------------------------------------------------------------------ *)
(* Labeled metrics                                                    *)
(* ------------------------------------------------------------------ *)

let test_labeled_counters =
  with_obs @@ fun () ->
  let c =
    Obs.Counter.labeled "test.lab" [ ("router", "R1"); ("phase", "sync") ]
  in
  Obs.Counter.incr ~by:3 c;
  Alcotest.(check string)
    "base name survives" "test.lab" (Obs.Counter.base_name c);
  Alcotest.(check string)
    "full name is prometheus-style"
    {|test.lab{phase="sync",router="R1"}|}
    (Obs.Counter.name c);
  check_bool "label order is canonicalized" true
    (Obs.Counter.labeled "test.lab" [ ("phase", "sync"); ("router", "R1") ]
    == c);
  check_bool "find_labeled resolves the series" true
    (match
       Obs.Counter.find_labeled "test.lab"
         [ ("router", "R1"); ("phase", "sync") ]
     with
    | Some c' -> c' == c
    | None -> false);
  check_bool "other label sets are distinct series" true
    (Obs.Counter.labeled "test.lab" [ ("router", "R2"); ("phase", "sync") ]
    != c);
  (* The unlabeled API is exactly the zero-label case. *)
  check_bool "labeled [] is make" true
    (Obs.Counter.labeled "test.lab.plain" [] == Obs.Counter.make "test.lab.plain");
  (* Values land in the labeled series, not the base family. *)
  check_int "labeled value" 3 (Obs.Counter.value c);
  check_bool "base family not registered by labeling" true
    (Obs.Counter.find "test.lab" = None);
  (* Reset drops labeled series (their cardinality is data-driven) but
     keeps zero-label registrations at zero. *)
  Obs.reset ();
  check_bool "labeled series dropped on reset" true
    (Obs.Counter.find_labeled "test.lab" [ ("router", "R1"); ("phase", "sync") ]
    = None);
  check_bool "zero-label registration survives reset" true
    (Obs.Counter.find "test.lab.plain" <> None)

(* Label values may contain the encoding's own metacharacters. *)
let test_label_escaping =
  with_obs @@ fun () ->
  let kvs = [ ("q", {|say "hi"|}); ("b", {|a\b|}) ] in
  let name = Obs.Labels.full_name "test.esc" kvs in
  Alcotest.(check string)
    "quotes and backslashes escaped"
    {|test.esc{b="a\\b",q="say \"hi\""}|}
    name;
  let c = Obs.Counter.labeled "test.esc" kvs in
  Obs.Counter.incr c;
  check_bool "registered under the escaped name" true
    (match Obs.Counter.find name with Some c' -> c' == c | None -> false)

(* Labeled series flow through snapshots as ordinary metrics with
   richer names, and the JSON round-trip preserves them — including a
   histogram whose overflow bucket bound is the "inf" encoding. *)
let test_labeled_snapshot_roundtrip =
  with_obs @@ fun () ->
  Obs.Counter.incr ~by:11
    (Obs.Counter.labeled "test.lsr.calls" [ ("endpoint", "classify") ]);
  Obs.Counter.incr ~by:2 (Obs.Counter.labeled "test.lsr.empty_value" [ ("k", "") ]);
  let h = Obs.Histogram.labeled "test.lsr.lat" [ ("router", "M") ] in
  (* 2e10 lands beyond the last finite bound: the +inf bucket must
     survive to_json/of_json via the "inf" string encoding. *)
  List.iter (Obs.Histogram.observe_ns h) [ 1e3; 2e10 ];
  let snap = Obs.Snapshot.capture () in
  check_bool "labeled counter snapshotted under its full name" true
    (List.mem_assoc
       (Obs.Labels.full_name "test.lsr.calls" [ ("endpoint", "classify") ])
       snap.Obs.Snapshot.counters);
  (match
     Result.bind
       (Json.parse (Json.to_string (Obs.Snapshot.to_json snap)))
       Obs.Snapshot.of_json
   with
  | Error m -> Alcotest.failf "labeled snapshot does not round-trip: %s" m
  | Ok snap' ->
      check_bool "round-trip is the identity" true
        (Obs.Snapshot.equal snap snap');
      let hist =
        List.assoc
          (Obs.Labels.full_name "test.lsr.lat" [ ("router", "M") ])
          snap'.Obs.Snapshot.histograms
      in
      let inf_bound, inf_count =
        List.nth hist.Obs.Snapshot.buckets
          (List.length hist.Obs.Snapshot.buckets - 1)
      in
      check_bool "inf bound decoded" true (inf_bound = infinity);
      check_int "overflow observation survives" 2 inf_count)

(* Obs.reset clears *every* piece of mutable state, so two back-to-back
   identical runs — under a deterministic clock — produce identical
   snapshots and identical spans (sequence numbers included). *)
let test_reset_determinism () =
  Obs.enable ();
  (* Whole-second ticks: small-integer differences are exact in
     floating point, so timings are bit-identical across the two runs
     even though each run starts from a different clock origin. *)
  let t = ref 0. in
  Obs.set_clock (fun () ->
      t := !t +. 1.;
      !t);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock Unix.gettimeofday;
      Obs.set_sink Obs.silent;
      Obs.disable ())
    (fun () ->
      let workload () =
        Obs.reset ();
        let spans = collect_spans () in
        Obs.Counter.incr ~by:2 (Obs.Counter.make "test.det.plain");
        Obs.Counter.incr
          (Obs.Counter.labeled "test.det.lab" [ ("router", "R1") ]);
        Obs.Histogram.observe_ns (Obs.Histogram.make "test.det.hist") 5e4;
        Obs.with_span "det.outer" (fun () ->
            Obs.with_span "det.inner" (fun () -> ()));
        (try Obs.with_span "det.raising" (fun () -> failwith "boom")
         with Failure _ -> ());
        ( Obs.Snapshot.capture (),
          List.map
            (fun s ->
              ( s.Obs.Span.path,
                s.Obs.Span.depth,
                s.Obs.Span.seq,
                s.Obs.Span.start_ns,
                s.Obs.Span.duration_ns ))
            (spans ()) )
      in
      let snap1, spans1 = workload () in
      let snap2, spans2 = workload () in
      check_bool "snapshots identical across runs" true
        (Obs.Snapshot.equal snap1 snap2);
      check_bool "spans identical across runs" true (spans1 = spans2);
      check_bool "runs actually recorded spans" true (spans1 <> []))

(* The registry's JSON is the snapshot's: a counter and the latency
   histogram of a span, while the span itself reaches only the sink. *)
let test_snapshot_json =
  with_obs @@ fun () ->
  let spans = collect_spans () in
  Obs.Counter.incr ~by:3 (Obs.Counter.make "test.snapshot.events");
  Obs.with_span "snap" (fun () -> ());
  let j = Obs.Snapshot.to_json (Obs.Snapshot.capture ()) in
  let member path =
    List.fold_left (fun j name -> Option.bind j (Json.member name)) (Some j) path
  in
  Alcotest.(check (option int))
    "counter in snapshot" (Some 3)
    (Option.bind (member [ "counters"; "test.snapshot.events" ]) Json.to_int);
  Alcotest.(check (option int))
    "span latency in snapshot" (Some 1)
    (Option.bind (member [ "histograms"; "snap"; "count" ]) Json.to_int);
  check_int "span in sink" 1 (List.length (spans ()))

(* ------------------------------------------------------------------ *)
(* Gauges                                                             *)
(* ------------------------------------------------------------------ *)

let check_float = Alcotest.(check (float 0.))

let test_gauge_basics =
  with_obs @@ fun () ->
  let g = Obs.Gauge.make "test.g.depth" in
  check_float "starts at zero" 0. (Obs.Gauge.value g);
  Obs.Gauge.set g 4.5;
  check_float "set" 4.5 (Obs.Gauge.value g);
  check_bool "make is idempotent" true (Obs.Gauge.make "test.g.depth" == g);
  let tick = ref 0. in
  let c = Obs.Gauge.collector "test.g.tick" (fun () -> !tick) in
  tick := 7.;
  check_float "collector samples at read" 7. (Obs.Gauge.value c);
  let flaky_up = ref true in
  let f =
    Obs.Gauge.collector "test.g.flaky" (fun () ->
        if !flaky_up then 3. else failwith "down")
  in
  check_float "collector while healthy" 3. (Obs.Gauge.value f);
  flaky_up := false;
  check_float "failing collector keeps last good sample" 3. (Obs.Gauge.value f);
  (* Reset zeroes pushed gauges but keeps collector registrations. *)
  Obs.reset ();
  check_float "reset zeroes pushed" 0. (Obs.Gauge.value g);
  check_float "reset keeps collectors" 7. (Obs.Gauge.value c);
  Obs.disable ();
  Obs.Gauge.set g 9.;
  check_float "disabled set is a no-op" 0. (Obs.Gauge.value g)

let test_gauge_sample_all_and_snapshot =
  with_obs @@ fun () ->
  Obs.Gauge.set (Obs.Gauge.make "test.g.a") 1.5;
  let all = Obs.Gauge.sample_all () in
  check_bool "sample_all sees the pushed gauge" true
    (List.assoc_opt "test.g.a" all = Some 1.5);
  check_bool "built-in GC collectors are registered" true
    (List.mem_assoc "runtime.gc.minor_collections" all);
  check_bool "live heap words are sampled" true
    (match List.assoc_opt "runtime.gc.live_words" all with
    | Some v -> v > 0.
    | None -> false);
  let snap = Obs.Snapshot.capture () in
  check_bool "snapshot carries gauges" true
    (List.assoc_opt "test.g.a" snap.Obs.Snapshot.gauges = Some 1.5);
  (match
     Result.bind
       (Json.parse (Json.to_string (Obs.Snapshot.to_json snap)))
       Obs.Snapshot.of_json
   with
  | Error m -> Alcotest.failf "gauge snapshot does not round-trip: %s" m
  | Ok snap' ->
      check_bool "gauge values survive the JSON round-trip" true
        (snap'.Obs.Snapshot.gauges = snap.Obs.Snapshot.gauges));
  (* Snapshots written before gauges existed still load. *)
  match
    Obs.Snapshot.of_json (Json.parse_exn {|{"counters": {}, "histograms": {}}|})
  with
  | Error m -> Alcotest.failf "pre-gauge snapshot rejected: %s" m
  | Ok s ->
      check_int "missing gauges key loads empty" 0
        (List.length s.Obs.Snapshot.gauges)

(* ------------------------------------------------------------------ *)
(* Sharded recording and the cardinality guard                        *)
(* ------------------------------------------------------------------ *)

(* The sharded hot path must merge losslessly: four domains hammering
   the same counter and histogram, no lock anywhere, exact totals after
   the domains are joined. *)
let test_sharded_exactness_across_domains =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.shard.counter" in
  let h = Obs.Histogram.make "test.shard.hist" in
  let per_domain = 1000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Counter.incr c;
              Obs.Histogram.observe_ns h (float_of_int i)
            done))
  in
  List.iter Domain.join ds;
  Obs.Counter.incr c;
  check_int "no increment lost across 4 domains" ((4 * per_domain) + 1)
    (Obs.Counter.value c);
  check_int "histogram count exact" (4 * per_domain) (Obs.Histogram.count h);
  let cum = Obs.Histogram.buckets h in
  check_int "bucket totals exact" (4 * per_domain)
    (snd (List.nth cum (List.length cum - 1)))

(* Two domains racing to register the same (base, labels) must receive
   the same series — the lost-update variant would silently split the
   count across two registry entries. *)
let test_labeled_registration_race =
  with_obs @@ fun () ->
  let per_domain = 500 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c = Obs.Counter.labeled "test.race" [ ("k", "v") ] in
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done;
            c))
  in
  let series = List.map Domain.join ds in
  (match series with
  | first :: rest ->
      List.iter
        (fun c -> check_bool "all domains got the same series" true (c == first))
        rest
  | [] -> assert false);
  match Obs.Counter.find_labeled "test.race" [ ("k", "v") ] with
  | None -> Alcotest.fail "raced series not registered"
  | Some c ->
      check_int "one series holds every increment" (4 * per_domain)
        (Obs.Counter.value c)

let test_cardinality_guard =
  with_obs @@ fun () ->
  let old = Obs.series_limit () in
  Fun.protect ~finally:(fun () -> Obs.set_series_limit old) @@ fun () ->
  Obs.set_series_limit 2;
  let c1 = Obs.Counter.labeled "test.card" [ ("k", "a") ] in
  let c2 = Obs.Counter.labeled "test.card" [ ("k", "b") ] in
  let c3 = Obs.Counter.labeled "test.card" [ ("k", "c") ] in
  let c4 = Obs.Counter.labeled "test.card" [ ("k", "d") ] in
  check_bool "within budget: distinct series" true (c1 != c2);
  check_bool "beyond budget: the overflow sink" true
    (Obs.Counter.labels c3 = Obs.overflow_labels);
  check_bool "every overflow registration shares the sink" true (c3 == c4);
  check_bool "budgeted sets still resolve" true
    (Obs.Counter.labeled "test.card" [ ("k", "a") ] == c1);
  Obs.Counter.incr ~by:5 c3;
  (match Obs.Counter.find_labeled "test.card" Obs.overflow_labels with
  | Some s ->
      check_bool "sink addressable explicitly" true (s == c3);
      check_int "sink absorbs overflow increments" 5 (Obs.Counter.value s)
  | None -> Alcotest.fail "overflow sink not registered");
  (* The budget is per base name, and gauges share the guard. *)
  check_bool "other bases unaffected" true
    (Obs.Counter.labels (Obs.Counter.labeled "test.card2" [ ("k", "c") ])
    <> Obs.overflow_labels);
  let g3 =
    List.map (fun v -> Obs.Gauge.labeled "test.cardg" [ ("k", v) ]) [ "a"; "b"; "c" ]
    |> fun l -> List.nth l 2
  in
  check_bool "gauge overflow collapses too" true
    (Obs.Gauge.labels g3 = Obs.overflow_labels)

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                               *)
(* ------------------------------------------------------------------ *)

let parse_ok src =
  match Config.Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

let isp_db () = parse_ok Evaluation.E1_running_example.isp_out_config

let run_e1 ?(faults = []) () =
  let llm = Llm.Mock_llm.create ~faults () in
  match
    P.run_route_map_update ~llm ~oracle:D.always_new ~db:(isp_db ())
      ~target:"ISP_OUT" ~prompt:Evaluation.E1_running_example.prompt ()
  with
  | Ok report -> report
  | Error e -> Alcotest.failf "pipeline: %s" (P.error_to_string e)

let route_map_stage_spans =
  [
    "pipeline.route_map_update";
    "pipeline.route_map_update.classify";
    "pipeline.route_map_update.spec_extract";
    "pipeline.route_map_update.synthesize";
    "pipeline.route_map_update.synthesize.llm";
    "pipeline.route_map_update.synthesize.verify";
    "pipeline.route_map_update.import";
    "pipeline.route_map_update.disambiguate";
    "pipeline.route_map_update.disambiguate.find_boundaries";
  ]

let test_pipeline_emits_stage_spans =
  with_obs @@ fun () ->
  let spans = collect_spans () in
  let _report = run_e1 () in
  let paths = span_paths spans in
  List.iter
    (fun stage ->
      check_bool ("span " ^ stage) true (List.mem stage paths))
    route_map_stage_spans;
  (* BDD nodes are hash-consed process-wide, so fresh allocations are
     only guaranteed on the first pipeline run in the binary — which is
     this test. *)
  check_bool "bdd allocations counted" true
    (counter_value "bdd.nodes_allocated" > 0)

let test_pipeline_counters_clean_run =
  with_obs @@ fun () ->
  let report = run_e1 () in
  (* The paper's single-pass run: one call per LLM endpoint. *)
  check_int "classify calls" 1 (counter_value "llm.calls.classify");
  check_int "spec calls" 1 (counter_value "llm.calls.spec");
  check_int "synthesize calls" 1 (counter_value "llm.calls.synthesize");
  check_int "pipeline llm calls" report.P.llm_calls
    (counter_value "pipeline.llm_calls");
  check_int "runs" 1 (counter_value "pipeline.runs");
  check_int "errors" 0 (counter_value "pipeline.errors");
  check_int "synthesis attempts" report.P.synthesis_attempts
    (counter_value "pipeline.synthesis_attempts");
  check_int "verification attempts" 1
    (counter_value "pipeline.verification_attempts");
  check_int "counterexample loops" 0
    (counter_value "pipeline.counterexample_loops");
  check_int "questions" (List.length report.P.questions)
    (counter_value "disambiguator.questions");
  check_int "boundaries" report.P.boundaries
    (counter_value "disambiguator.boundaries");
  check_int "binary probes equal questions"
    (counter_value "disambiguator.questions")
    (counter_value "disambiguator.binary_search.probes");
  (* The E1 target overlaps the new stanza, so disambiguation is real. *)
  check_bool "scenario forces questions" true
    (List.length report.P.questions > 0);
  check_bool "verifier ran" true
    (counter_value "engine.search_route_policies.solver_calls" >= 1);
  (* Boundary discovery goes through the batch incremental sweep: one
     call, one shared context, the remaining positions served from it. *)
  check_bool "differ ran" true
    (counter_value "engine.adjacent_insertions.calls" >= 1);
  check_bool "incremental sweep compiled once" true
    (counter_value "engine.adjacent_insertions.contexts_built" >= 1);
  check_bool "prefix cells reused" true
    (counter_value "engine.adjacent_insertions.prefix_cells_reused" >= 1)

let test_pipeline_counters_faulty_run =
  with_obs @@ fun () ->
  let report = run_e1 ~faults:[ Llm.Fault_injector.Flip_action ] () in
  check_int "two attempts" 2 report.P.synthesis_attempts;
  check_int "attempts counter" 2 (counter_value "pipeline.synthesis_attempts");
  check_int "verification ran twice" 2
    (counter_value "pipeline.verification_attempts");
  check_int "one counterexample loop" 1
    (counter_value "pipeline.counterexample_loops");
  check_int "one fault injected" 1 (counter_value "llm.faults.injected");
  check_int "per-class fault counter" 1
    (counter_value
       (Obs.Labels.full_name "llm.faults.injected"
          [ ("class", "flip-action") ]))

let fw_config =
  {|ip access-list extended LAB_EDGE
 deny tcp any any eq 23
 permit tcp 10.20.0.0/16 any
 permit udp 10.20.0.0/16 any eq 53
 deny udp any any
 permit icmp 10.20.0.0/16 any|}

let test_acl_pipeline_spans_and_counters =
  with_obs @@ fun () ->
  let spans = collect_spans () in
  let llm = Llm.Mock_llm.create () in
  let report =
    match
      P.run_acl_update ~llm
        ~oracle:(fun _ -> Ad.Prefer_new)
        ~db:(parse_ok fw_config)
        ~target:"LAB_EDGE"
        ~prompt:
          "Write an access list rule that denies tcp traffic from \
           10.20.0.0/16 to any destination with destination port 22."
        ()
    with
    | Ok report -> report
    | Error e -> Alcotest.failf "pipeline: %s" (P.error_to_string e)
  in
  let paths = span_paths spans in
  List.iter
    (fun stage -> check_bool ("span " ^ stage) true (List.mem stage paths))
    [
      "pipeline.acl_update";
      "pipeline.acl_update.classify";
      "pipeline.acl_update.spec_extract";
      "pipeline.acl_update.synthesize";
      "pipeline.acl_update.synthesize.llm";
      "pipeline.acl_update.synthesize.verify";
      "pipeline.acl_update.disambiguate";
      "pipeline.acl_update.disambiguate.find_boundaries";
    ];
  check_int "acl questions" (List.length report.P.questions)
    (counter_value "acl_disambiguator.questions");
  check_int "acl boundaries" report.P.boundaries
    (counter_value "acl_disambiguator.boundaries");
  check_int "verification attempts" 1
    (counter_value "pipeline.verification_attempts");
  check_bool "searchFilters ran" true
    (counter_value "engine.search_filters.solver_calls" >= 1);
  check_bool "acl boundary sweep ran" true
    (counter_value "engine.adjacent_insertions.calls" >= 1)

let test_disabled_pipeline_records_nothing () =
  Obs.disable ();
  Obs.reset ();
  let spans = collect_spans () in
  Fun.protect ~finally:(fun () -> Obs.set_sink Obs.silent) @@ fun () ->
  let _report = run_e1 () in
  check_int "no spans" 0 (List.length (spans ()));
  check_int "no counters"
    0
    (counter_value "pipeline.runs" + counter_value "llm.calls.synthesize")

let test_report_renders =
  with_obs @@ fun () ->
  let _report = run_e1 () in
  let text = Format.asprintf "%a" Obs.pp_report () in
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and tl = String.length text in
        let rec go i =
          i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
        in
        go 0
      in
      check_bool ("report mentions " ^ needle) true contains)
    [
      "pipeline.runs";
      "disambiguator.questions";
      "pipeline.route_map_update.disambiguate";
      "llm.calls.synthesize";
    ]

let () =
  Alcotest.run "obs"
    [
      ( "primitives",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "spans nest" `Quick test_spans_nest;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "sinks" `Quick test_sinks;
          Alcotest.test_case "json snapshot" `Quick test_snapshot_json;
          Alcotest.test_case "default clock sees sleep" `Quick
            test_default_clock_sees_sleep;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "current path" `Quick test_current_path;
          Alcotest.test_case "snapshot round-trip" `Quick
            test_snapshot_roundtrip;
        ] );
      ( "labels",
        [
          Alcotest.test_case "labeled counters" `Quick test_labeled_counters;
          Alcotest.test_case "label escaping" `Quick test_label_escaping;
          Alcotest.test_case "labeled snapshot round-trip" `Quick
            test_labeled_snapshot_roundtrip;
          Alcotest.test_case "reset determinism" `Quick
            test_reset_determinism;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "sample_all and snapshot" `Quick
            test_gauge_sample_all_and_snapshot;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "exact across domains" `Quick
            test_sharded_exactness_across_domains;
          Alcotest.test_case "labeled registration race" `Quick
            test_labeled_registration_race;
          Alcotest.test_case "cardinality guard" `Quick test_cardinality_guard;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage spans" `Quick test_pipeline_emits_stage_spans;
          Alcotest.test_case "counters (clean run)" `Quick
            test_pipeline_counters_clean_run;
          Alcotest.test_case "counters (faulty run)" `Quick
            test_pipeline_counters_faulty_run;
          Alcotest.test_case "acl pipeline" `Quick
            test_acl_pipeline_spans_and_counters;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_pipeline_records_nothing;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
    ]
