(* Metric names, units and their computation from samples and traces. *)

(* End-to-end metrics of the untraced run, in report order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("intents_per_s", "1/s");
    ("intent_ms.p50", "ms");
    ("intent_ms.tail", "ms");
    ("first_question_ms.p50", "ms");
    ("first_question_ms.tail", "ms");
    ("question_wait_ms.tail", "ms");
    ("questions_per_intent", "count");
    ("llm_calls_per_intent", "count");
  ]

(* Per-layer metrics of the traced run. A layer a workload does not
   exercise reports 0. *)
let per_layer =
  [
    ("llm.ms_per_intent", "ms");
    ("config.parse_ms_per_intent", "ms");
    ("engine.verify_ms_per_intent", "ms");
    ("core.import_ms_per_intent", "ms");
    ("llm.calls_per_intent", "count");
    ("llm.verified_per_attempt", "ratio");
    ("engine.sweep_ms.p50", "ms");
    ("engine.sweep_ms.tail", "ms");
    ("engine.sweep_us_per_position.w64", "us");
    ("engine.sweep_us_per_position.w128", "us");
    ("engine.sweep_us_per_position.w256", "us");
    ("engine.sweep_us_per_position.w512", "us");
    ("engine.boundaries_per_position", "ratio");
    ("engine.sweep_share", "ratio");
    ("engine.sweep_share.widest", "ratio");
    ("front.share", "ratio");
    ("engine.batch_sweep_ms", "ms");
    ("engine.conflict_pairs", "count");
    ("core.placement_ms_per_intent", "ms");
    ("core.answer_cache_hit_ratio", "ratio");
    ("bdd.ms_per_intent", "ms");
    ("bdd.nodes_per_intent", "count");
    ("bdd.cache_hit_ratio", "ratio");
    ("bdd.uniq_probes_per_lookup", "ratio");
    ("bdd.memo_evictions", "count");
    ("parallel.busy_ratio", "ratio");
    ("parallel.task_wait_ms.tail", "ms");
    ("parallel.imbalance", "ratio");
    ("netgen.generate_s", "s");
    ("netgen.compile_s", "s");
    ("gc.minor_words_per_intent", "count");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MiB");
    ("oracle.ms_per_question", "ms");
    ("telemetry.events_per_intent", "count");
    ("trace.coverage_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let ms s = s *. 1e3

(* (name, value, unit, note): the note carries a tail's percentile and
   sample count for the human-readable lines. *)
let end_to_end_values (o : Drive.outcome) =
  let s = o.samples in
  let n = float_of_int (max 1 s.intents) in
  let tail pct xs =
    let v, p, k = Stats.tail_array ~pct (Stats.Series.to_array xs) in
    (ms v, Printf.sprintf "p%.1f of n=%d" p k)
  in
  let p50 xs =
    ( ms (Stats.median_array (Stats.Series.to_array xs)),
      Printf.sprintf "n=%d" (Stats.Series.length xs) )
  in
  let intent_p, first_p, wait_p = o.tails in
  let values =
    [
      ("setup_s", (o.setup_s, ""));
      ("peak_rss_mb", (o.peak_rss_mb, "VmHWM after the timed loop"));
      ( "intents_per_s",
        ( Stats.median o.rates,
          Printf.sprintf "median of %d windows, %d intents" (List.length o.rates) s.intents ) );
      ("intent_ms.p50", p50 s.intent_s);
      ("intent_ms.tail", tail intent_p s.intent_s);
      ("first_question_ms.p50", p50 s.first_q_s);
      ("first_question_ms.tail", tail first_p s.first_q_s);
      ("question_wait_ms.tail", tail wait_p s.wait_s);
      ("questions_per_intent", (float_of_int s.questions /. n, ""));
      ("llm_calls_per_intent", (float_of_int s.llm_calls /. n, ""));
    ]
  in
  List.map
    (fun (name, unit) ->
      let v, note = List.assoc name values in
      (name, v, unit, note))
    end_to_end

type extras = {
  units : int; (* routers, sessions or batches traced *)
  pool : (int * Drive.pool_run list) option; (* domains, map calls *)
  netgen : (float * float) option; (* generate_s, compile_s *)
  gc_major : int;
  gc_top_heap_words : int;
  recording : float * float; (* of the real path: events per intent, overhead ratio *)
  widest_share : float; (* engine.sweep share at the widest width *)
}

let per_layer_values (t : Drive.tr) (s : Drive.samples) (x : extras) =
  let self l = Layer.self t.acc l in
  let n = float_of_int (max 1 s.intents) in
  let per_intent_ms l = ms (self l) /. n in
  let share ls = Stats.ratio (Stats.sum (List.map self ls)) t.system_s in
  let sweeps = t.acc.Layer.sweeps in
  let sweep_ms = List.map (fun (w : Layer.sweep) -> ms w.seconds) sweeps in
  let per_position width =
    Stats.median
      (List.filter_map
         (fun (w : Layer.sweep) ->
           if w.width = width then Some (w.seconds *. 1e6 /. float_of_int width) else None)
         sweeps)
  in
  let positions = List.fold_left (fun a (w : Layer.sweep) -> a + w.width) 0 sweeps in
  let boundaries = List.fold_left (fun a (w : Layer.sweep) -> a + w.boundaries) 0 sweeps in
  let bsum f = float_of_int (List.fold_left (fun a st -> a + f st) 0 t.bdd) in
  let open Symbdd.Bdd.Manager in
  let busy, wait, imbalance =
    match x.pool with
    | Some (domains, runs) -> Drive.pool_stats ~domains runs
    | None -> (0., 0., 0.)
  in
  let generate_s, compile_s = Option.value x.netgen ~default:(0., 0.) in
  let covered =
    Stats.sum
      (List.filter_map
         (fun l -> if l = Layer.Oracle then None else Some (self l))
         Layer.all)
  in
  let values =
    [
      ("llm.ms_per_intent", per_intent_ms Layer.Llm);
      ("config.parse_ms_per_intent", per_intent_ms Layer.Config);
      ("engine.verify_ms_per_intent", per_intent_ms Layer.Verify);
      ("core.import_ms_per_intent", per_intent_ms Layer.Naming);
      ("llm.calls_per_intent", float_of_int s.llm_calls /. n);
      ("llm.verified_per_attempt", Stats.ratio (float_of_int t.verified) (float_of_int t.attempts));
      ("engine.sweep_ms.p50", Stats.median sweep_ms);
      ("engine.sweep_ms.tail", (fun (v, _, _) -> v) (Stats.tail sweep_ms));
      ("engine.sweep_us_per_position.w64", per_position 64);
      ("engine.sweep_us_per_position.w128", per_position 128);
      ("engine.sweep_us_per_position.w256", per_position 256);
      ("engine.sweep_us_per_position.w512", per_position 512);
      ("engine.boundaries_per_position", Stats.ratio (float_of_int boundaries) (float_of_int positions));
      ("engine.sweep_share", share [ Layer.Sweep ]);
      ("engine.sweep_share.widest", x.widest_share);
      ("front.share", share [ Layer.Llm; Layer.Config; Layer.Verify ]);
      ("engine.batch_sweep_ms", ms (Stats.median t.batch_sweep_s));
      ("engine.conflict_pairs", Stats.ratio (float_of_int t.conflicts) (float_of_int x.units));
      ("core.placement_ms_per_intent", per_intent_ms Layer.Disambig);
      ("core.answer_cache_hit_ratio", Stats.ratio (float_of_int t.hits) (float_of_int t.lookups));
      ("bdd.ms_per_intent", per_intent_ms Layer.Bdd);
      ("bdd.nodes_per_intent", bsum (fun st -> st.nodes) /. n);
      ( "bdd.cache_hit_ratio",
        Stats.ratio (bsum (fun st -> st.cache_hits))
          (bsum (fun st -> st.cache_hits + st.cache_misses)) );
      ( "bdd.uniq_probes_per_lookup",
        Stats.ratio (bsum (fun st -> st.uniq_probes)) (bsum (fun st -> st.uniq_lookups)) );
      ("bdd.memo_evictions", bsum (fun st -> st.memo_evictions));
      ("parallel.busy_ratio", busy);
      ("parallel.task_wait_ms.tail", ms wait);
      ("parallel.imbalance", imbalance);
      ("netgen.generate_s", generate_s);
      ("netgen.compile_s", compile_s);
      ("gc.minor_words_per_intent", t.minor_words /. n);
      ("gc.major_collections", float_of_int x.gc_major);
      ( "gc.top_heap_mb",
        float_of_int (x.gc_top_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ("oracle.ms_per_question", ms (self Layer.Oracle) /. float_of_int (max 1 s.questions));
      ("telemetry.events_per_intent", fst x.recording);
      ("trace.coverage_ratio", Stats.ratio covered t.system_s);
      ("trace.overhead_ratio", snd x.recording);
    ]
  in
  List.map (fun (name, unit) -> (name, List.assoc name values, unit)) per_layer

(* The share of system time [engine.sweep] takes in the units of one
   width. *)
let sweep_share (ts : Drive.tr list) =
  let t = Drive.merge_tr ts in
  Stats.ratio (Layer.self t.acc Layer.Sweep) t.system_s
