(* The benchmark and experiment harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (E1 = Section 2 / Figure 2 running example, E2 =
   Section 3.1 cloud study, E3 = Section 3.2 campus study, E4 = Section
   5 / Figures 3-4), prints the disambiguation-mode ablation, and then
   times the substrate. Every leg reads the clock through [cold_min],
   and every acceptance bar is checked where its leg is measured, with
   one [gate NAME: value op bar PASS|FAIL|skipped] line.

   Usage: dune exec bench/main.exe [-- --fast] [--jobs N] [--json FILE]
   --fast runs the campus corpus at 10% scale (the full 11,088-ACL
   corpus takes about half a minute); --jobs N sizes the pool (default
   CLARIFY_JOBS, else 1); --json additionally writes the per-experiment
   Obs snapshots and every leg's timing as a machine-readable
   BENCH.json (schema clarify-bench/1) for `clarify obs diff`. The run
   exits 1 if any bar failed, after writing that file. *)

let fast = Array.exists (fun a -> a = "--fast") Sys.argv

let json_out =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* --jobs N overrides CLARIFY_JOBS; default 1 (serial). *)
let pool =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--jobs" then int_of_string_opt Sys.argv.(i + 1)
    else find (i + 1)
  in
  Parallel.Pool.create ?domains:(find 1) ()

(* ------------------------------------------------------------------ *)
(* Experiments                                                        *)
(* ------------------------------------------------------------------ *)

(* Each experiment runs under the observability layer and the flight
   recorder; its counter and span snapshot is printed right after its
   tables so the cost profile (LLM calls, verifier invocations, BDD
   allocations, stage latencies) is visible per experiment, and the
   frozen snapshot is kept for the --json bench file. The layer is
   disabled again before the timed legs so they measure uninstrumented
   hot paths. *)
let experiments : (string * Telemetry.Bench.experiment) list ref = ref []

(* Sum one labeled counter family — e.g. llm.tokens.prompt{endpoint=..}
   — across all its label sets in a frozen snapshot. *)
let sum_family snapshot base =
  let prefix = base ^ "{" in
  let plen = String.length prefix in
  List.fold_left
    (fun acc (name, v) ->
      if
        name = base
        || (String.length name >= plen && String.sub name 0 plen = prefix)
      then acc + v
      else acc)
    0 snapshot.Obs.Snapshot.counters

(* Each window opens on a collected heap, so no experiment pays a major
   slice for the garbage an earlier one left: E3 leaves about 11.8M dead
   words, whose collection otherwise lands inside one of E4's spans. *)
let with_metrics name f =
  Gc.full_major ();
  Obs.enable ();
  Obs.reset ();
  let recorded = Telemetry.record_to_memory () in
  f ();
  Telemetry.stop ();
  (* BDD manager sizes are gauge collectors, sampled by the capture. *)
  let snapshot = Obs.Snapshot.capture () in
  let events = List.length (recorded ()) in
  experiments := !experiments @ [ (name, { Telemetry.Bench.snapshot; events }) ];
  Format.printf "--- metrics (%s) ---@.%a@.(flight recorder: %d events)@."
    name Obs.pp_report () events;
  let prompt = sum_family snapshot "llm.tokens.prompt"
  and completion = sum_family snapshot "llm.tokens.completion" in
  if prompt + completion > 0 then
    Format.printf
      "(llm tokens: %d prompt + %d completion, est. cost $%.6f)@." prompt
      completion
      (Llm.Tokens.cost ~prompt_tokens:prompt ~completion_tokens:completion);
  Format.printf "@.";
  Obs.disable ()

let run_experiments () =
  let fmt = Format.std_formatter in
  with_metrics "E1" (fun () ->
      Evaluation.E1_running_example.(print fmt (run ()));
      Format.fprintf fmt "@.");
  with_metrics "E2" (fun () ->
      Evaluation.E23_overlap_study.(
        print ~title:"E2: cloud WAN overlap study (Section 3.1)" fmt
          (cloud ~pool ())));
  let scale = if fast then 0.1 else 1.0 in
  Format.fprintf fmt "(campus corpus scale: %.2f%s)@.@." scale
    (if fast then "; drop --fast for full size" else "");
  with_metrics "E3" (fun () ->
      Evaluation.E23_overlap_study.(
        print ~title:"E3: campus overlap study (Section 3.2)" fmt
          (campus ~scale ~pool ())));
  with_metrics "E4" (fun () ->
      Evaluation.E4_lightyear.(print fmt (run ~pool ())))

(* ------------------------------------------------------------------ *)
(* Ablation: disambiguation question counts per mode                  *)
(* ------------------------------------------------------------------ *)

(* A target map with [n] mutually overlapping permit stanzas (nested
   prefix windows) and a new stanza overlapping all of them: the number
   of user questions is what each mode pays. *)
let ablation_scenario n =
  let db = ref Config.Database.empty in
  (* n stanzas on pairwise-disjoint /20s of 10.0.0.0/8 (room for 4096):
     the catch-all new stanza overlaps each one on that stanza's own
     routes, so every position is a boundary. *)
  let stanzas =
    List.init n (fun i ->
        let name = Printf.sprintf "AB%d" i in
        db :=
          Config.Database.add_prefix_list !db
            (Config.Prefix_list.make name
               [
                 Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
                   (Netaddr.Prefix_range.make
                      (Netaddr.Prefix.make
                         (Netaddr.Ipv4.of_int (0x0A00_0000 lor (i lsl 12)))
                         20)
                      ~ge:None ~le:(Some 24));
               ]);
        Config.Route_map.stanza ~seq:((i + 1) * 10)
          ~matches:[ Config.Route_map.Match_prefix_list [ name ] ]
          ~sets:[ Config.Route_map.Set_metric i ]
          Config.Action.Permit)
  in
  let target = Config.Route_map.make "AB" stanzas in
  db := Config.Database.add_route_map !db target;
  let new_list = "ABNEW" in
  db :=
    Config.Database.add_prefix_list !db
      (Config.Prefix_list.make new_list
         [
           Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
             (Netaddr.Prefix_range.make
                (Netaddr.Prefix.of_string_exn "10.0.0.0/8")
                ~ge:None ~le:(Some 32));
         ]);
  let stanza =
    Config.Route_map.stanza ~seq:999
      ~matches:[ Config.Route_map.Match_prefix_list [ new_list ] ]
      ~sets:[ Config.Route_map.Set_metric 99 ]
      Config.Action.Permit
  in
  (!db, target, stanza)

let run_ablation () =
  Format.printf "=== Ablation: user questions per disambiguation mode ===@.";
  Format.printf
    "(new stanza overlapping all n existing stanzas; user wants position 0)@.";
  Format.printf "%-6s %14s %10s %12s@." "n" "binary-search" "linear"
    "top-bottom";
  List.iter
    (fun n ->
      let db, target, stanza = ablation_scenario n in
      let desired_map = Config.Route_map.insert_at target 0 stanza in
      let desired r = Config.Semantics.eval_route_map db desired_map r in
      let count mode =
        match
          Clarify.Disambiguator.run ~mode ~db ~target ~stanza
            ~oracle:(Clarify.Disambiguator.intent_driven desired)
            ()
        with
        | Ok o -> string_of_int (List.length o.Clarify.Disambiguator.questions)
        | Error _ -> "fail"
      in
      Format.printf "%-6d %14s %10s %12s@." n
        (count Clarify.Disambiguator.Binary_search)
        (count Clarify.Disambiguator.Linear)
        (count Clarify.Disambiguator.Top_bottom))
    [ 2; 4; 8; 16 ];
  Format.printf
    "(top-bottom is the paper prototype's restricted mode: one question but \
     only two candidate positions)@.@."

(* ------------------------------------------------------------------ *)
(* Density sweep: overlap pairs vs generation density                 *)
(* ------------------------------------------------------------------ *)

let run_density_sweep () =
  Format.printf "=== Density sweep: mean overlap/conflict pairs in random 40-rule ACLs ===@.";
  Format.printf "%-10s %10s %10s@." "density" "overlaps" "conflicts";
  List.iter
    (fun density ->
      let n = 20 in
      let totals =
        List.init n (fun i ->
            let rng = Random.State.make [| 7000 + i |] in
            Overlap.Acl_overlap.analyze
              (Workload.Random_corpus.acl ~rng ~name:"SWEEP" ~rules:40
                 ~overlap_density:density))
      in
      let mean f =
        float_of_int (List.fold_left (fun a s -> a + f s) 0 totals)
        /. float_of_int n
      in
      Format.printf "%-10.2f %10.1f %10.1f@." density
        (mean (fun (s : Overlap.Acl_overlap.stats) -> s.overlap_pairs))
        (mean (fun (s : Overlap.Acl_overlap.stats) -> s.conflict_pairs)))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Format.printf "@."


(* ------------------------------------------------------------------ *)
(* The clock and the bars                                             *)
(* ------------------------------------------------------------------ *)

(* The bench's one clock. [cold_min ~runs f] times [runs] attempts of
   [f], each under a fresh BDD manager so no attempt reuses what an
   earlier one compiled or cached, and returns the last attempt's
   result with the fastest attempt's ns. [~iters] calls [f] that many
   times an attempt and reports ns per call, for legs below the
   clock's grain. [~under m] runs every attempt under [m] instead, for
   legs that time a warm manager. [~each] sees every attempt's result,
   untimed, for legs that check or keep every attempt. *)
let cold_min ?(iters = 1) ?under ?(each = ignore) ~runs f =
  let best = ref infinity and result = ref None in
  for _ = 1 to runs do
    let manager =
      match under with Some m -> m | None -> Symbdd.Bdd.Manager.create ()
    in
    let r, ns =
      Symbdd.Bdd.with_manager manager (fun () ->
          let t0 = Obs.now () in
          let r = ref (f ()) in
          for _ = 2 to iters do
            r := f ()
          done;
          (!r, (Obs.now () -. t0) *. 1e9 /. float_of_int iters))
    in
    each r;
    result := Some r;
    best := Float.min !best ns
  done;
  (Option.get !result, !best)

(* The middle of an odd number of samples. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let serial_run = Parallel.Pool.domains pool = 1

(* The acceptance bars. Each prints one [gate] line where its leg is
   measured; a run that does not check a bar (it is checked on the
   serial run, or needs four real cores) or has no value for it reports
   it as skipped. A failed bar makes the run exit 1 once its --json is
   written. *)
let failed_gates = ref 0

let gate ?(checked = true) name op bar value =
  let verdict =
    match value with
    | Some v when checked ->
        if (match op with `Le -> v <= bar | `Ge -> v >= bar) then "PASS"
        else begin
          incr failed_gates;
          "FAIL"
        end
    | _ -> "skipped"
  in
  Format.printf "gate %s: %s %s %g %s@." name
    (match value with Some v -> Printf.sprintf "%.3f" v | None -> "-")
    (match op with `Le -> "<=" | `Ge -> ">=")
    bar verdict

(* [f] over [items], the pool claiming contiguous runs of [chunk]
   items instead of single ones: with [chunk] = items / domains, the
   one-chunk-per-worker fork-join split the per-item scheduler
   replaced, which the skew legs compare against. *)
let chunked_map ?bdd_base ~chunk ~f items =
  let a = Array.of_list items in
  let n = Array.length a in
  List.init ((n + chunk - 1) / chunk) (fun c ->
      Array.to_list (Array.sub a (c * chunk) (min chunk (n - (c * chunk)))))
  |> Parallel.Pool.map ?bdd_base pool ~f:(List.map f)
  |> List.concat

(* How many boundary witnesses one untimed run of [f] decodes, counted
   with the observability layer on. *)
let witnesses_decoded f =
  let was = Obs.enabled () in
  Obs.enable ();
  let before = Obs.Counter.value Engine.Metrics.witnesses_decoded in
  ignore (f ());
  let k = Obs.Counter.value Engine.Metrics.witnesses_decoded - before in
  if not was then Obs.disable ();
  k

(* ------------------------------------------------------------------ *)
(* BDD store: the int-packed arena on operation loops (DESIGN.md §15) *)
(* ------------------------------------------------------------------ *)

(* Fixed operation sequences, each timed by [cold_min ~runs:3] so every
   attempt starts from a cold unique table and cold memos. Each
   workload counts its satisfiable results. With a multi-domain pool,
   the conjunction workload additionally runs across domains layered on
   one frozen base and must count what the serial run counts. *)
let run_bdd_microbench () =
  Format.printf "=== BDD store: int-packed arena ===@.";
  let module B = Symbdd.Bdd in
  let module V = Symbdd.Bvec in
  let port = Symbolic.Packet_space.dst_port in
  let ranges =
    List.init 64 (fun i ->
        let lo = i * 389 mod 57344 in
        (lo, lo + 8191))
  in
  let mk_workload () =
    (* Each eq_const is a fresh 16-literal chain: ~64k mk calls
       hammering the unique table. *)
    let s = ref 0 in
    for v = 0 to 4095 do
      if B.is_sat (V.eq_const port v) then incr s
    done;
    !s
  in
  let build_ranges () =
    Array.of_list (List.map (fun (lo, hi) -> V.in_range port lo hi) ranges)
  in
  let conj_workload () =
    let arr = build_ranges () in
    let s = ref 0 in
    Array.iter
      (fun a -> Array.iter (fun b -> if B.is_sat (B.conj a b) then incr s) arr)
      arr;
    !s
  in
  let restrict_workload () =
    let arr = build_ranges () in
    let s = ref 0 in
    Array.iter
      (fun a ->
        List.iter
          (fun v ->
            if B.is_sat (B.restrict v true a) then incr s;
            if B.is_sat (B.restrict v false a) then incr s)
          (V.vars port))
      arr;
    !s
  in
  let bigstore_workload () =
    (* Hundreds of thousands of live nodes, held in Bigarray storage
       that the major GC does not trace. *)
    let blocks =
      Array.init 8 (fun k ->
          B.disj_list
            (List.init 1024 (fun i ->
                 V.eq_const port (((i * 16) + (k * 3)) land 0xffff))))
    in
    let s = ref 0 in
    Array.iter
      (fun a ->
        Array.iter (fun b -> if B.is_sat (B.conj a b) then incr s) blocks)
      blocks;
    !s
  in
  let legs =
    [
      ("mk", mk_workload);
      ("conj", conj_workload);
      ("restrict", restrict_workload);
      ("bigstore", bigstore_workload);
    ]
  in
  let timings =
    ref
      (List.map
         (fun (leg, w) ->
           let _, ns = cold_min ~runs:3 w in
           Format.printf "%-10s arena %9.2f ms  (min of 3)@." leg (ns /. 1e6);
           (Printf.sprintf "bdd/%s-arena" leg, ns))
         legs)
  in
  if Parallel.Pool.domains pool > 1 then begin
    (* The all-pairs conjunctions across the pool, every worker under a
       private delta on one frozen base holding the operand BDDs.
       Single conjunctions are far below per-claim bookkeeping, so the
       pool claims them 64 at a time. *)
    let pairs =
      let n = List.length ranges in
      List.concat
        (List.init n (fun i -> List.init n (fun j -> (i, j))))
    in
    let base = B.Manager.create () in
    let arr = B.with_manager base build_ranges in
    B.Manager.freeze base;
    let sum, ns =
      cold_min ~runs:1 (fun () ->
          List.fold_left ( + ) 0
            (chunked_map ~bdd_base:base ~chunk:64
               ~f:(fun (i, j) ->
                 if B.is_sat (B.conj arr.(i) arr.(j)) then 1 else 0)
               pairs))
    in
    let serial_sum = B.with_manager (B.Manager.create ()) conj_workload in
    if sum <> serial_sum then
      failwith "pooled BDD conj workload differs from serial";
    Format.printf "conj x%-2d   arena %9.2f ms@." (Parallel.Pool.domains pool)
      (ns /. 1e6);
    timings := !timings @ [ ("bdd/conj-arena-x4", ns) ]
  end;
  Format.printf "@.";
  !timings

(* ------------------------------------------------------------------ *)
(* Boundary sweeps: naive vs incremental (DESIGN.md §11)              *)
(* ------------------------------------------------------------------ *)

(* The definition of a boundary sweep: position [i] is a boundary when
   the stanza inserted at [i] and at [i + 1] behave differently, with
   the first difference as its witness. Two n-stanza maps compared per
   position, O(n²) cell work per sweep. *)
let naive_sweep ~db ~target stanza =
  let map_at p = Config.Route_map.insert_at target p stanza in
  List.filter_map
    (fun i ->
      Option.map
        (fun d -> (i, d))
        (Engine.Compare_route_policies.first_difference ~db_a:db ~db_b:db
           (map_at i) (map_at (i + 1))))
    (List.init (List.length target.Config.Route_map.stanzas) Fun.id)

(* Same ablation target, the definition and the engine's sweep,
   asserted identical on every run. The engine compiles the target once
   and answers every boundary from the shared partition and two
   stanzas. The serial run holds it to >= 3x the definition at width
   128, and its per-position cost at width 2048 to at most twice that
   at width 128. *)
let run_disambig_comparison () =
  Format.printf "=== Boundary sweeps: naive vs incremental ===@.";
  let timings = ref [] in
  (* A cold incremental sweep: nothing an earlier leg compiled is
     reused; min of 3. *)
  let incremental ~db ~target stanza =
    cold_min ~runs:3 (fun () ->
        Engine.Compare_route_policies.adjacent_insertions ~db ~target stanza)
  in
  List.iter
    (fun n ->
      let db, target, stanza = ablation_scenario n in
      let naive, naive_ns =
        cold_min ~runs:1 (fun () -> naive_sweep ~db ~target stanza)
      in
      let incr, incr_ns = incremental ~db ~target stanza in
      if naive <> incr then failwith "incremental sweep differs from naive";
      timings :=
        (Printf.sprintf "disambig/incremental-w%d" n, incr_ns)
        :: (Printf.sprintf "disambig/naive-w%d" n, naive_ns)
        :: !timings;
      Format.printf
        "width %-4d naive %9.2f ms  incremental %9.2f ms  speedup %.1fx  \
         (%.1f us per position)@."
        n (naive_ns /. 1e6) (incr_ns /. 1e6) (naive_ns /. incr_ns)
        (incr_ns /. 1e3 /. float_of_int n))
    [ 8; 32; 128 ];
  (* Widths where the naive reference would take minutes: incremental
     only, to show the per-position cost stays flat. *)
  List.iter
    (fun n ->
      let db, target, stanza = ablation_scenario n in
      let _, incr_ns = incremental ~db ~target stanza in
      timings :=
        (Printf.sprintf "disambig/incremental-w%d" n, incr_ns) :: !timings;
      Format.printf "width %-4d incremental %9.2f ms  (%.1f us per position)@."
        n (incr_ns /. 1e6)
        (incr_ns /. 1e3 /. float_of_int n))
    [ 512; 2048 ];
  let t key = List.assoc key !timings in
  gate ~checked:serial_run "sweep-speedup-w128" `Ge 3.
    (Some (t "disambig/naive-w128" /. t "disambig/incremental-w128"));
  gate ~checked:serial_run "sweep-flatness-w2048" `Le 2.
    (Some
       (t "disambig/incremental-w2048" /. 2048.
       /. (t "disambig/incremental-w128" /. 128.)));
  (* The placement, not only the sweep: one Binary_search run for a user
     who wants the new stanza in the middle, a cold manager per
     attempt, min of 3. It decodes only the witnesses it asks about,
     where the incremental legs above decode every boundary's; asserted
     to place and ask exactly as a run on those eager boundaries. *)
  List.iter
    (fun n ->
      let db, target, stanza = ablation_scenario n in
      let wanted = Config.Route_map.insert_at target (n / 2) stanza in
      let oracle =
        Clarify.Disambiguator.intent_driven
          (Config.Semantics.eval_route_map db wanted)
      in
      let place ?precomputed () =
        match
          Clarify.Disambiguator.run ?precomputed ~db ~target ~stanza ~oracle ()
        with
        | Ok o -> o
        | Error _ -> failwith "an intent-driven user is consistent"
      in
      let o, place_ns = cold_min ~runs:3 place in
      let eager =
        place ~precomputed:(Clarify.Disambiguator.boundaries ~db ~target stanza) ()
      in
      if o.position <> eager.position || o.questions <> eager.questions then
        failwith "on-demand placement differs from eager";
      let decoded = witnesses_decoded place in
      timings := (Printf.sprintf "disambig/place-w%d" n, place_ns) :: !timings;
      Format.printf
        "width %-4d place %9.2f ms  (%d questions, %d of %d witnesses decoded; \
         eager sweep %.2f ms)@."
        n (place_ns /. 1e6) (List.length o.questions) decoded o.boundaries
        (t (Printf.sprintf "disambig/incremental-w%d" n) /. 1e6))
    [ 128; 512; 2048 ];
  Format.printf "@.";
  List.rev !timings

(* ------------------------------------------------------------------ *)
(* Config text: one scanner, one printer (DESIGN.md, "Config text")   *)
(* ------------------------------------------------------------------ *)

(* The config of the placement legs above, as text: parsed and printed
   at two widths, min of 5 cold runs each, with the minor words one
   untimed run allocates per line of text beside each. Parsing it back
   must give a config that prints the same text. *)
let run_config_text () =
  Format.printf "=== Config text: parse and print ===@.";
  let per_line text f =
    let lines = List.length (String.split_on_char '\n' text) in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. before) /. float_of_int lines
  in
  let timings =
    List.concat_map
      (fun n ->
        let db, _, _ = ablation_scenario n in
        let text = Config.Parser.to_string db in
        let parsed, parse_ns = cold_min ~runs:5 (fun () -> Config.Parser.parse_exn text) in
        let printed, print_ns = cold_min ~runs:5 (fun () -> Config.Parser.to_string parsed) in
        if printed <> text then failwith "config text does not round-trip";
        Format.printf
          "width %-4d %5d lines  parse %7.3f ms (%5.1f words/line)  print %7.3f ms \
           (%5.1f words/line)@."
          n
          (List.length (String.split_on_char '\n' text))
          (parse_ns /. 1e6)
          (per_line text (fun () -> Config.Parser.parse_exn text))
          (print_ns /. 1e6)
          (per_line text (fun () -> Config.Parser.to_string parsed));
        [
          (Printf.sprintf "config/parse-w%d" n, parse_ns);
          (Printf.sprintf "config/print-w%d" n, print_ns);
        ])
      [ 64; 512 ]
  in
  Format.printf "@.";
  timings

(* ------------------------------------------------------------------ *)
(* The simulated LLM's text layer (DESIGN.md §18)                     *)
(* ------------------------------------------------------------------ *)

(* The README's paper prompt through the simulated LLM: the classifier,
   the route-map intent parser, and one route-map front half (classify,
   spec, synthesis with its verification, import) under a fresh mock
   LLM. Each is min of 5 cold runs of [iters] calls, reported per call,
   with the minor words one untimed call allocates beside it; the first
   two take microseconds, so a run loops them past the clock's grain. *)
let run_llm_text () =
  Format.printf "=== LLM layer: one pass per prompt ===@.";
  let prompt = Evaluation.E1_running_example.prompt in
  let db = Config.Parser.parse_exn Evaluation.E1_running_example.isp_out_config in
  let front () =
    match
      Clarify.Pipeline.route_map_front ~llm:(Llm.Mock_llm.create ())
        ~max_attempts:Clarify.Pipeline.default_max_attempts ~db ~target:"ISP_OUT"
        ~prompt
    with
    | Ok _ -> ()
    | Error e -> failwith (Clarify.Pipeline.error_to_string e)
  in
  let legs =
    [
      ( "llm/classify",
        1000,
        fun () -> ignore (Sys.opaque_identity (Llm.Classifier.classify prompt)) );
      ( "llm/parse-route-map",
        1000,
        fun () -> ignore (Sys.opaque_identity (Llm.Nl_parser.parse_route_map prompt)) );
      ("llm/front-route-map", 1, front);
    ]
  in
  let timings =
    List.map
      (fun (name, iters, f) ->
        let (), per_call = cold_min ~iters ~runs:5 f in
        let before = Gc.minor_words () in
        f ();
        let words = Gc.minor_words () -. before in
        Format.printf "%-20s %9.2f us/call (%6.0f words/call)@." name (per_call /. 1e3)
          words;
        (name, per_call))
      legs
  in
  Format.printf "@.";
  timings

(* ------------------------------------------------------------------ *)
(* Parallel speedup: serial vs pool on the corpus sweeps and E4       *)
(* ------------------------------------------------------------------ *)

let pp_speedup name serial_ns par_ns =
  Format.printf "%-24s %10.0f ms serial %10.0f ms x%d  speedup %.2fx@." name
    (serial_ns /. 1e6) (par_ns /. 1e6)
    (Parallel.Pool.domains pool)
    (serial_ns /. par_ns)

(* Runs only when a multi-domain pool was requested; returns the
   timings for the bench JSON so `clarify obs diff` tracks them. The
   serial and parallel results are asserted identical — the
   determinism contract, checked on every bench run. *)
let run_parallel_comparison () =
  if serial_run then begin
    Format.printf
      "(parallel comparison skipped: serial pool; use --jobs N or \
       CLARIFY_JOBS)@.@.";
    []
  end
  else begin
    Format.printf "=== Parallel speedup (%d domains) ===@."
      (Parallel.Pool.domains pool);
    let corpus =
      Workload.Campus.generate ~scale:(if fast then 0.05 else 0.25) ()
    in
    let acls = corpus.Workload.Campus.acls in
    let once f = cold_min ~runs:1 f in
    let s_sum, overlap_serial =
      once (fun () -> Overlap.Corpus.summarize_acls acls)
    in
    let p_sum, overlap_par =
      once (fun () -> Overlap.Corpus.summarize_acls ~pool acls)
    in
    if s_sum <> p_sum then
      failwith "parallel overlap summary differs from serial";
    pp_speedup "overlap/campus-sweep" overlap_serial overlap_par;
    let s_e4, e4_serial = once (fun () -> Evaluation.E4_lightyear.run ()) in
    let p_e4, e4_par = once (fun () -> Evaluation.E4_lightyear.run ~pool ()) in
    if s_e4.Evaluation.E4_lightyear.stats <> p_e4.Evaluation.E4_lightyear.stats
    then failwith "parallel E4 stats differ from serial";
    pp_speedup "e4/three-routers" e4_serial e4_par;
    Format.printf "@.";
    [
      ("overlap_parallel/serial", overlap_serial);
      ("overlap_parallel/parallel", overlap_par);
      ("e4_parallel/serial", e4_serial);
      ("e4_parallel/parallel", e4_par);
    ]
  end

(* ------------------------------------------------------------------ *)
(* Batch synthesis: batch-of-N vs N sequential pipeline runs          *)
(* ------------------------------------------------------------------ *)

(* N pairwise match-disjoint intents against one wide target map: the
   batch places each intent with one live sweep, as the sequential
   baseline does, plus one conflict-graph pass over the N candidates'
   matches. Final configurations and the number of witnesses decoded
   are asserted identical on every bench run, and the batch must never
   ask more questions than the sequential runs (a bar on every run). *)
let batch_scenario ~intents =
  let db, _, _ = ablation_scenario 16 in
  let prompts =
    List.init intents (fun k ->
        if k mod 2 = 0 then
          Printf.sprintf
            "Write a route-map stanza that permits routes containing the \
             prefix 10.%d.0.0/16 with mask length less than or equal to 24. \
             Their MED value should be set to %d."
            k (50 + k)
        else
          Printf.sprintf
            "Write a route-map stanza that denies routes containing the \
             prefix 10.%d.0.0/16 with mask length less than or equal to 24."
            k)
  in
  (db, prompts)

let run_batch_comparison () =
  Format.printf "=== Batch synthesis: batch-of-N vs N sequential runs ===@.";
  let intents = 6 in
  let db, prompts = batch_scenario ~intents in
  (* Each run with a fresh mock LLM of its own. *)
  let run_sequential () =
    let llm = Llm.Mock_llm.create () in
    List.fold_left
      (fun (db, questions) prompt ->
        match
          Clarify.Pipeline.run_route_map_update ~llm
            ~oracle:(fun _ -> Clarify.Disambiguator.Prefer_new)
            ~db ~target:"AB" ~prompt ()
        with
        | Ok r ->
            ( r.Clarify.Pipeline.db,
              questions + List.length r.Clarify.Pipeline.questions )
        | Error e -> failwith (Clarify.Pipeline.error_to_string e))
      (db, 0) prompts
  in
  let run_batch () =
    let llm = Llm.Mock_llm.create () in
    let items =
      List.map
        (fun prompt -> Clarify.Batch.Route_map_update { target = "AB"; prompt })
        prompts
    in
    match
      Clarify.Batch.run ~llm
        ~oracle:(fun ~intent:_ ~target:_ _ -> Clarify.Disambig_common.Prefer_new)
        ~db items
    with
    | Ok r -> r
    | Error e -> failwith (Clarify.Batch.error_to_string e)
  in
  (* A leg is a few milliseconds, so one sample is mostly noise: min of
     5 cold runs. *)
  let (seq_db, seq_questions), seq_ns = cold_min ~runs:5 run_sequential in
  let report, batch_ns = cold_min ~runs:5 run_batch in
  if
    Config.Parser.to_string report.Clarify.Batch.db
    <> Config.Parser.to_string seq_db
  then failwith "batch configuration differs from sequential";
  let batch_questions =
    List.fold_left
      (fun n -> function
        | Clarify.Batch.Route_map_result rr ->
            n + List.length rr.Clarify.Pipeline.questions
        | Clarify.Batch.Acl_result ar ->
            n + List.length ar.Clarify.Pipeline.questions)
      0 report.Clarify.Batch.items
    - report.Clarify.Batch.questions_saved
  in
  let seq_witnesses = witnesses_decoded run_sequential
  and batch_witnesses = witnesses_decoded run_batch in
  if batch_witnesses <> seq_witnesses then
    failwith "batch decoded other witnesses than sequential";
  Format.printf
    "batch of %-2d  sequential %9.2f ms  batch %9.2f ms  speedup %.1fx@."
    intents (seq_ns /. 1e6) (batch_ns /. 1e6) (seq_ns /. batch_ns);
  Format.printf "questions: sequential %d, batch %d (saved %d)@."
    seq_questions batch_questions report.Clarify.Batch.questions_saved;
  Format.printf "witnesses decoded: sequential %d, batch %d@." seq_witnesses
    batch_witnesses;
  gate "batch-questions" `Le (float_of_int seq_questions)
    (Some (float_of_int batch_questions));
  Format.printf "@.";
  [
    (Printf.sprintf "batch/sequential-%d" intents, seq_ns);
    (Printf.sprintf "batch/batch-of-%d" intents, batch_ns);
    ("batch/questions-sequential", float_of_int seq_questions);
    ("batch/questions-batch", float_of_int batch_questions);
    ("batch/witnesses-sequential", float_of_int seq_witnesses);
    ("batch/witnesses-batch", float_of_int batch_witnesses);
  ]

(* ------------------------------------------------------------------ *)
(* Observability overhead: the sharded recording hot path             *)
(* ------------------------------------------------------------------ *)

(* The per-op cost of the sharded hot path (per-domain DLS shard, no
   lock), serial and with four domains hammering the same series; then
   the end-to-end cost of leaving the layer ON during the width-128
   incremental sweep, held to <= 5% on every run. Merge exactness under
   contention is asserted on every bench run: domains x per-domain
   increments must survive the shard merge losslessly. *)
let run_obs_overhead () =
  Format.printf "=== Observability overhead: sharded recording ===@.";
  let iters = 1_000_000 in
  let contenders = 4 in
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make "bench.obs.incr" in
  let h = Obs.Histogram.make "bench.obs.observe" in
  let (), incr_ns = cold_min ~iters ~runs:1 (fun () -> Obs.Counter.incr c) in
  if Obs.Counter.value c <> iters then failwith "sharded counter lost updates";
  let observe_ns =
    let i = ref 0 in
    snd
      (cold_min ~iters ~runs:1 (fun () ->
           incr i;
           Obs.Histogram.observe_ns h (float_of_int !i)))
  in
  let (), contended_ns =
    cold_min ~runs:1 (fun () ->
        let ds =
          List.init contenders (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to iters do
                    Obs.Counter.incr c
                  done))
        in
        List.iter Domain.join ds)
  in
  if Obs.Counter.value c <> (contenders + 1) * iters then
    failwith "sharded counter lost updates under contention";
  let contended_ns = contended_ns /. float_of_int (contenders * iters) in
  Obs.reset ();
  Obs.disable ();
  Format.printf "counter incr        sharded %6.1f ns/op  (serial)@." incr_ns;
  Format.printf
    "counter incr        sharded %6.1f ns/op  (%d domains, one series)@."
    contended_ns contenders;
  Format.printf "histogram observe   sharded %6.1f ns/op  (serial)@." observe_ns;
  (* End to end: the width-128 incremental sweep with the layer off vs
     on, under one manager that a first sweep warmed. The sweep is
     about a millisecond, so scheduler noise of the same order decides
     single samples. Each of 101 rounds times both sides back to back,
     the first side alternating between rounds so neither always runs
     second (on a warmer cache, or after a sibling process woke), and
     the bar reads the median of the per-round on/off ratios: a slow
     window then moves both sides of its round, not one side's median.
     The medians of each side are reported beside it. One sweep
     allocates just under one minor heap (259k of 262k words), so each
     timed sweep starts from an empty one and collects nothing:
     otherwise nearly every sweep would contain one collection (at
     --jobs 4 a collection also stops the parked worker domains). *)
  let db, target, stanza = ablation_scenario 128 in
  let sweep () =
    ignore
      (Engine.Compare_route_policies.adjacent_insertions ~db ~target
         stanza)
  in
  let warm = Symbdd.Bdd.Manager.create () in
  Symbdd.Bdd.with_manager warm sweep;
  let time on =
    if on then begin
      Obs.enable ();
      Obs.reset ()
    end
    else Obs.disable ();
    Gc.minor ();
    snd (cold_min ~under:warm ~runs:1 sweep)
  in
  let rounds = 101 in
  let pairs =
    List.init rounds (fun round ->
        if round mod 2 = 0 then
          let off = time false in
          (off, time true)
        else
          let on = time true in
          (time false, on))
  in
  Obs.reset ();
  Obs.disable ();
  let off = median (List.map fst pairs) and on = median (List.map snd pairs) in
  let ratio = median (List.map (fun (off, on) -> on /. off) pairs) in
  Format.printf
    "disambig w128       off %9.2f ms   on %9.2f ms   overhead %+.1f%%  \
     (median of %d alternating pairs)@."
    (off /. 1e6) (on /. 1e6)
    ((ratio -. 1.) *. 100.)
    rounds;
  gate "obs-overhead-w128" `Le 1.05 (Some ratio);
  Format.printf "@.";
  [
    ("obs/counter-incr", incr_ns);
    ("obs/counter-incr-contended", contended_ns);
    ("obs/histogram-observe", observe_ns);
    ("obs/disambig-w128-off", off);
    ("obs/disambig-w128-on", on);
    ("obs/disambig-w128-overhead", ratio);
  ]

(* ------------------------------------------------------------------ *)
(* Fleet generation: set-up must grow linearly with the fleet         *)
(* ------------------------------------------------------------------ *)

(* [Netgen.generate] at 1,024 and 4,096 fat-tree routers, min of 3 each.
   Generation builds and validates the topology in O(routers +
   sessions), so on the serial run four times the routers may cost at
   most eight times the wall. *)
let run_netgen_scaling () =
  Format.printf "=== Fleet generation: Netgen.generate vs fleet size ===@.";
  let timings =
    List.map
      (fun routers ->
        let net, ns =
          cold_min ~runs:3 (fun () ->
              Netgen.generate ~profile:Netgen.Fat_tree ~routers)
        in
        Format.printf "fat-tree %4d routers %8.2f ms (%d sessions)@." routers
          (ns /. 1e6)
          (List.fold_left
             (fun a (r : Netsim.Topology.router) -> a + List.length r.neighbors)
             0 net.Netgen.topology.Netsim.Topology.routers);
        (Printf.sprintf "netgen/generate-%d" routers, ns))
      [ 1024; 4096 ]
  in
  let growth =
    List.assoc "netgen/generate-4096" timings
    /. List.assoc "netgen/generate-1024" timings
  in
  Format.printf "growth 1024 -> 4096: %.2fx@." growth;
  gate ~checked:serial_run "netgen-scaling-4096" `Le 8. (Some growth);
  Format.printf "@.";
  timings

(* ------------------------------------------------------------------ *)
(* Fleet scaling: per-router synthesis cost must stay flat            *)
(* ------------------------------------------------------------------ *)

(* E5 at 64 and 256 routers with the configured pool. Per-router wall
   must not grow with fleet size: the BDD manager is scratch per
   router and the analytics fold is constant-memory, so there is no
   shared state to congest. The serial run holds per-router@256 <=
   1.25x per-router@64 (min-of-3 each). Beside each wall, the
   major-heap words and major collections per router over the three
   runs: a router's scratch manager is most of its major heap. *)
let run_fleet_scaling () =
  Format.printf "=== Fleet scaling: per-router cost vs fleet size ===@.";
  let min_of = 3 in
  let time routers =
    let words = ref 0. and collections = ref 0 in
    let r, best =
      cold_min ~runs:min_of (fun () ->
          let gc0 = Gc.quick_stat () in
          let r = Evaluation.E5_fleet.run ~pool ~routers () in
          let gc1 = Gc.quick_stat () in
          words := !words +. gc1.Gc.major_words -. gc0.Gc.major_words;
          collections :=
            !collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
          r)
    in
    ( best,
      List.fold_left
        (fun a (x : Evaluation.E5_fleet.router_result) -> a + x.questions)
        0 r.Evaluation.E5_fleet.results,
      !words /. float_of_int (min_of * routers),
      !collections )
  in
  let t64, q64, w64, c64 = time 64 in
  let t256, q256, w256, c256 = time 256 in
  let per64 = t64 /. 64. and per256 = t256 /. 256. in
  Format.printf
    "e5 fat-tree  64 routers %8.1f ms (%6.2f ms/router, %d questions; \
     %5.0f major words a router, %d major GCs in %d routers)@."
    (t64 /. 1e6) (per64 /. 1e6) q64 w64 c64 (min_of * 64);
  Format.printf
    "e5 fat-tree 256 routers %8.1f ms (%6.2f ms/router, %d questions; \
     %5.0f major words a router, %d major GCs in %d routers)@."
    (t256 /. 1e6) (per256 /. 1e6) q256 w256 c256 (min_of * 256);
  Format.printf "per-router growth 64 -> 256: %.2fx@." (per256 /. per64);
  gate ~checked:serial_run "fleet-scaling-256" `Le 1.25 (Some (per256 /. per64));
  Format.printf "@.";
  [
    ("fleet/e5-64", t64);
    ("fleet/e5-256", t256);
    ("fleet/per-router-64", per64);
    ("fleet/per-router-256", per256);
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler skew: coarse fork-join chunks vs per-item claims         *)
(* ------------------------------------------------------------------ *)

(* The legs below compare schedules, so they need a core per domain:
   with more domains than cores, domains time-share and the comparison
   times the OS scheduler instead. Such a run prints why it skipped and
   reports no keys. Their bars are checked at four or more domains. *)
let skew_legs title =
  let d = Parallel.Pool.domains pool in
  let cores = Domain.recommended_domain_count () in
  if d = 1 then false
  else if d <= cores then begin
    Format.printf "=== %s ===@." title;
    true
  end
  else begin
    Format.printf "=== %s ===@.skipped: %d domains on %d cores@." title d
      cores;
    false
  end

let skew_gate name op bar value =
  gate ~checked:(Parallel.Pool.domains pool >= 4) name op bar value

(* 64 boundary-sweep scenarios, the first 8 at full width [w] and the
   remaining 56 at [w/8]: under the pre-scheduler one-contiguous-
   chunk-per-worker split ([chunked_map]) the heavy head lands on one
   or two workers while the rest go idle; with per-item claims the
   idle domains claim the heavy head one scenario at a time. The bars
   hold per-item >= 2x coarse at both widths (the [-steal] key names
   the per-item leg); results are asserted identical to the serial
   sweep on every timed attempt. *)
let run_sched_skew () =
  let ran = skew_legs "Scheduler skew: coarse chunks vs per-item claims" in
  let nscen = 64 and heavy = 8 in
  let timings =
    List.concat_map
      (fun w ->
        let name = Printf.sprintf "sched-skew-w%d" w in
        if not ran then begin
          skew_gate name `Ge 2. None;
          []
        end
        else begin
          let scenarios =
            List.init nscen (fun i ->
                ablation_scenario (if i < heavy then w else w / 8))
          in
          let sweep (db, target, stanza) =
            Engine.Compare_route_policies.adjacent_insertions ~db ~target
              stanza
          in
          let serial = List.map sweep scenarios in
          let time map =
            snd
              (cold_min ~runs:3
                 ~each:(fun r ->
                   if r <> serial then failwith "skewed sweep differs from serial")
                 map)
          in
          let d = Parallel.Pool.domains pool in
          let coarse =
            time (fun () ->
                chunked_map ~chunk:((nscen + d - 1) / d) ~f:sweep scenarios)
          in
          let per_item = time (fun () -> Parallel.Pool.map pool ~f:sweep scenarios) in
          Format.printf
            "width %-4d coarse %9.2f ms  per-item %9.2f ms  speedup %.2fx  (8 \
             heavy + %d light, min of 3)@."
            w (coarse /. 1e6) (per_item /. 1e6) (coarse /. per_item)
            (nscen - heavy);
          skew_gate name `Ge 2. (Some (coarse /. per_item));
          [
            (Printf.sprintf "sched/skew-boundaries-w%d-coarse" w, coarse);
            (Printf.sprintf "sched/skew-boundaries-w%d-steal" w, per_item);
          ]
        end)
      [ 32; 128 ]
  in
  Format.printf "@.";
  timings

(* ------------------------------------------------------------------ *)
(* Fleet skew: pathological fat-tree, 5% of routers carry 10x work    *)
(* ------------------------------------------------------------------ *)

(* A pathological fleet: the first [heavy] plans carry [factor]x the
   policy work — their step sequence is replayed [factor - 1] extra
   times under fresh map names (suffix __Sk), with the reference config
   extended to answer for the copies. Heavies are contiguous (compile
   order = generation order), modelling one pod of fat edge routers,
   which is exactly the shape that straggles a scheduler dealing
   contiguous chunks. *)
let skew ~heavy ~factor plans =
  List.mapi
    (fun idx (p : Netgen.Policy.plan) ->
      if idx >= heavy then p
      else
        let copy_name m k = Printf.sprintf "%s__S%d" m k in
        let ks = List.init (factor - 1) (fun k -> k + 1) in
        let copies =
          List.concat_map
            (fun k ->
              List.map
                (fun (s : Netgen.Policy.step) ->
                  { s with map = copy_name s.map k })
                p.steps)
            ks
        in
        let reference =
          List.fold_left
            (fun db k ->
              List.fold_left
                (fun db m ->
                  match Config.Database.route_map p.reference m with
                  | None -> db
                  | Some rm ->
                      Config.Database.add_route_map db
                        (Config.Route_map.make (copy_name m k)
                           rm.Config.Route_map.stanzas))
                db p.maps)
            p.reference ks
        in
        {
          p with
          maps = p.maps @ List.concat_map (fun k -> List.map (fun m -> copy_name m k) p.maps) ks;
          steps = p.steps @ copies;
          reference;
        })
    plans

(* E5 at 256 routers with the first 12 plans replayed 10x (one pod of
   fat edge routers), built as [E5_fleet.run] builds a fleet: generated
   and compiled, then every router placed by [E5_fleet.build_router] on
   one frozen base of the shared prefix ranges. A timed attempt is all
   of that. Coarse contiguous chunks serialize the heavy pod behind one
   worker; per-router claims spread it. Router configs and question
   counts are asserted byte-identical to the serial run on every timed
   attempt.

   The straggler figure is p99/p50 of per-router *stretch*: each
   router's build wall under per-router claims divided by the same
   router's wall in the serial run. Raw walls are 10x bimodal by
   construction and per-step costs vary ~5x across roles, but a router
   compared against itself cancels all intrinsic heterogeneity — the
   ratio only grows when scheduling makes some routers pay (a task
   descheduled mid-build behind a fat neighbor, contention on the
   shared claim cursor). The bar holds the tail to <= 1.5: even the
   p99 router costs at most 1.5x its undisturbed serial latency. *)
let run_fleet_skew () =
  let ran = skew_legs "Fleet skew: 5% of routers carry 10x stanzas" in
  if not ran then begin
    skew_gate "fleet-skew-256" `Ge 1.3 None;
    skew_gate "fleet-skew-p99-p50" `Le 1.5 None;
    Format.printf "@.";
    []
  end
  else begin
    let routers = 256 in
    (* Each router's result and build wall. The build installs its own
       delta on the base, so the helper need not make a manager. *)
    let build bdd_base plan =
      cold_min ~under:(Symbdd.Bdd.Manager.current ()) ~runs:1 (fun () ->
          Evaluation.E5_fleet.build_router ~bdd_base plan)
    in
    let fleet map () =
      let plans =
        skew ~heavy:(routers / 20) ~factor:10
          (Netgen.Policy.compile
             (Netgen.generate ~profile:Netgen.Fat_tree ~routers))
      in
      let bdd_base = Symbdd.Bdd.Manager.create () in
      Symbdd.Bdd.with_manager bdd_base (fun () ->
          List.iter
            (fun r -> ignore (Symbolic.Route_ctx.of_prefix_range r))
            (Netgen.Policy.shared_ranges ()));
      Symbdd.Bdd.Manager.freeze bdd_base;
      map (build bdd_base) plans
    in
    let view =
      List.map (fun ((x : Evaluation.E5_fleet.router_result), _) ->
          (x.router, x.questions, Config.Parser.to_string x.config))
    in
    let serial_rs = fleet List.map () in
    let serial = view serial_rs in
    let time map =
      let attempts = ref [] in
      let _, best =
        cold_min ~runs:2
          ~each:(fun rs ->
            if view rs <> serial then failwith "skewed fleet differs from serial";
            attempts := rs :: !attempts)
          (fleet map)
      in
      (best, !attempts)
    in
    let d = Parallel.Pool.domains pool in
    let coarse, _ =
      time (fun f plans -> chunked_map ~chunk:((routers + d - 1) / d) ~f plans)
    in
    let per_router, per_router_rs =
      time (fun f plans -> Parallel.Pool.map pool ~f plans)
    in
    let walls = List.map (fun (_, ns) -> Float.max 1. ns) in
    (* Per-router minimum across the per-router attempts: a router that
       is slow in every run pays a systematic scheduling cost; a one-off
       spike is OS noise the tail bar should not flake on. *)
    let pooled_walls =
      List.fold_left
        (fun acc rs -> List.map2 Float.min acc (walls rs))
        (walls (List.hd per_router_rs))
        (List.tl per_router_rs)
    in
    let stretches =
      List.map2 (fun p s -> p /. s) pooled_walls (walls serial_rs)
      |> List.sort compare |> Array.of_list
    in
    let pct p =
      stretches.(min (Array.length stretches - 1)
                   (p * Array.length stretches / 100))
    in
    let p50 = pct 50 and p99 = pct 99 in
    Format.printf
      "e5 skewed %-4d coarse %9.1f ms  per-router %9.1f ms  speedup %.2fx  \
       (min of 2)@."
      routers (coarse /. 1e6) (per_router /. 1e6) (coarse /. per_router);
    Format.printf
      "per-router stretch vs serial: p50 %.2f  p99 %.2f  p99/p50 %.2f@."
      p50 p99 (p99 /. p50);
    skew_gate "fleet-skew-256" `Ge 1.3 (Some (coarse /. per_router));
    skew_gate "fleet-skew-p99-p50" `Le 1.5 (Some (p99 /. p50));
    Format.printf "@.";
    [
      ("fleet/e5-skewed-256-coarse", coarse);
      ("fleet/e5-skewed-256", per_router);
      ("fleet/e5-skewed-p99-p50", p99 /. p50);
    ]
  end

(* ------------------------------------------------------------------ *)
(* Substrate microbenchmarks                                          *)
(* ------------------------------------------------------------------ *)

let isp_out_config = Evaluation.E1_running_example.isp_out_config

let parse_ok src =
  match Config.Parser.parse src with Ok db -> db | Error m -> failwith m

(* One call per substrate, in steady state: every leg runs under one
   shared manager, and each reports its fastest of 9 attempts of
   [iters] calls (about a millisecond an attempt), so the cold first
   attempt never counts. The BDD legs drop the operation memos on each
   call, so they time the encoding against a warm unique table. *)
let run_microbenchmarks () =
  Format.printf "=== Substrate microbenchmarks ===@.";
  let range =
    Netaddr.Prefix_range.make
      (Netaddr.Prefix.of_string_exn "100.0.0.0/16")
      ~ge:None ~le:(Some 23)
  in
  let acl =
    let rng = Random.State.make [| 7 |] in
    Workload.Acl_gen.make ~rng ~name:"BENCH" ~plain:20 ~crossing:5
      ~trailing_deny_any:true
  in
  let fig2a_db = parse_ok Test_configs.fig2a
  and fig2b_db = parse_ok Test_configs.fig2b in
  let rma = Option.get (Config.Database.route_map fig2a_db "ISP_OUT")
  and rmb = Option.get (Config.Database.route_map fig2b_db "ISP_OUT") in
  let verify_db =
    parse_ok
      {|ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55|}
  in
  let verify_rm = Option.get (Config.Database.route_map verify_db "SET_METRIC") in
  let spec =
    Result.get_ok
      (Engine.Spec.of_string
         {|{"permit": true, "prefix": ["100.0.0.0/16:16-23"], "community": "/_300:3_/", "set": {"metric": 55}}|})
  in
  let legs =
    [
      ( "config-parse/isp_out",
        200,
        fun () -> ignore (parse_ok isp_out_config) );
      (* One prefix range built anew each call: [clear_caches] drops the
         operation memos, the range is in no compilation cache, and
         every node it lays is found in the unique table. *)
      ( "bdd/prefix-range-encode",
        1000,
        fun () ->
          Symbdd.Bdd.clear_caches ();
          ignore (Symbolic.Route_ctx.of_prefix_range range) );
      (* Ablation B1: one port interval as a range predicate vs a
         disjunction of 256 equality predicates. *)
      ( "bdd/port-interval-range",
        500,
        fun () ->
          Symbdd.Bdd.clear_caches ();
          ignore (Symbdd.Bvec.in_range Symbolic.Packet_space.dst_port 1024 8191) );
      ( "bdd/port-interval-enum256",
        2,
        fun () ->
          Symbdd.Bdd.clear_caches ();
          ignore
            (Symbdd.Bdd.disj_list
               (List.init 256 (fun i ->
                    Symbdd.Bvec.eq_const Symbolic.Packet_space.dst_port
                      (1024 + i)))) );
      ( "sre/aspath-intersection",
        100,
        fun () ->
          let a = Sre.As_path_regex.compile "_32$" in
          let b = Sre.As_path_regex.compile "^(44|55)_" in
          ignore (Sre.As_path_regex.sat_witness ~pos:[ a; b ] ~neg:[]) );
      ("overlap/acl-31-rules", 20, fun () -> ignore (Overlap.Acl_overlap.analyze acl));
      ( "engine/compareRoutePolicies",
        5,
        fun () ->
          ignore
            (Engine.Compare_route_policies.compare ~db_a:fig2a_db
               ~db_b:fig2b_db rma rmb) );
      ( "engine/searchRoutePolicies",
        5,
        fun () ->
          ignore (Engine.Search_route_policies.verify_stanza verify_db verify_rm spec)
      );
      ( "clarify/binary-search-run",
        20,
        fun () ->
          let db, target, stanza = ablation_scenario 8 in
          let desired_map = Config.Route_map.insert_at target 0 stanza in
          let desired r = Config.Semantics.eval_route_map db desired_map r in
          ignore
            (Clarify.Disambiguator.run ~db ~target ~stanza
               ~oracle:(Clarify.Disambiguator.intent_driven desired)
               ()) );
      ( "clarify/full-pipeline",
        2,
        fun () ->
          ignore
            (Clarify.Pipeline.run_route_map_update
               ~llm:(Llm.Mock_llm.create ())
               ~oracle:(fun _ -> Clarify.Disambiguator.Prefer_new)
               ~db:(parse_ok isp_out_config) ~target:"ISP_OUT"
               ~prompt:Evaluation.E1_running_example.prompt ()) );
      ( "netsim/figure3-propagation",
        7,
        fun () -> ignore (Netsim.Simulator.run (Netsim.Figure3.reference ())) );
    ]
  in
  let under = Symbdd.Bdd.Manager.create () in
  let timings =
    List.map
      (fun (name, iters, f) ->
        let (), ns = cold_min ~under ~iters ~runs:9 f in
        let pretty =
          if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        Format.printf "%-42s %12s/run@." name pretty;
        (name, ns))
      legs
  in
  Format.printf "@.";
  timings

let write_bench_json path benchmarks =
  let t =
    {
      Telemetry.Bench.domains = Parallel.Pool.domains pool;
      experiments = !experiments;
      benchmarks;
    }
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:2 (Telemetry.Bench.to_json t));
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote bench snapshot to %s (schema %s)@." path
    Telemetry.Bench.schema

let () =
  run_experiments ();
  run_ablation ();
  Evaluation.A2_llm_disambiguator.(print Format.std_formatter (run ()));
  run_density_sweep ();
  let bdd_timings = run_bdd_microbench () in
  let disambig_timings = run_disambig_comparison () in
  let config_timings = run_config_text () in
  let llm_timings = run_llm_text () in
  let batch_timings = run_batch_comparison () in
  let parallel_timings = run_parallel_comparison () in
  let obs_timings = run_obs_overhead () in
  let netgen_timings = run_netgen_scaling () in
  let fleet_timings = run_fleet_scaling () in
  let sched_timings = run_sched_skew () in
  let fleet_skew_timings = run_fleet_skew () in
  let timings = run_microbenchmarks () in
  Option.iter
    (fun path ->
      write_bench_json path
        (timings @ bdd_timings @ disambig_timings @ config_timings @ llm_timings
       @ batch_timings @ parallel_timings @ obs_timings @ netgen_timings
       @ fleet_timings @ sched_timings @ fleet_skew_timings))
    json_out;
  if !failed_gates > 0 then begin
    Format.printf "%d gate(s) failed@." !failed_gates;
    exit 1
  end
