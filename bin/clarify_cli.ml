(* The Clarify command-line interface.

   clarify update  — run one incremental update through the pipeline,
                     asking disambiguation questions interactively (or
                     answering them from a script);
   clarify audit   — Section 3 overlap analysis of a configuration;
   clarify verify  — check a single-stanza route-map against a JSON spec;
   clarify eval    — regenerate the paper's experiments E1-E4. *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_config path =
  match Config.Parser.parse (read_file path) with
  | Ok db -> db
  | Error m ->
      prerr_endline ("error: cannot parse " ^ path ^ ": " ^ m);
      exit 1

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

let obs_term =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print an observability run report at exit: counters (LLM calls, \
             verification attempts, disambiguation questions, solver \
             invocations, BDD allocations) and per-stage span latencies.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stream pipeline span traces to stderr as stages complete \
             (implies the instrumentation is enabled).")
  in
  Term.(const (fun metrics trace -> (metrics, trace)) $ metrics $ trace)

(* Enable the layer before [f] runs; print the report via [at_exit] so
   it also appears on error paths that call [exit 1]. *)
let with_obs (metrics, trace) f =
  if metrics || trace then begin
    Obs.enable ();
    if trace then Obs.set_sink (Obs.text_sink Format.err_formatter);
    if metrics then
      (* The BDD manager's live sizes (unique table, memos, compile
         cache) are gauge collectors now — the report samples them. *)
      at_exit (fun () -> Format.printf "@.%a@." Obs.pp_report ())
  end;
  f ()

(* Flight recorder: stream one JSONL event per pipeline interaction to
   [path]. Events are flushed as they are emitted, so error paths that
   [exit 1] lose nothing already recorded. Recording also enables the
   observability layer and mirrors completed spans into the log, so the
   recording carries its own timing tree for `clarify trace export`. *)
let with_recorder record f =
  match record with
  | None -> f ()
  | Some path ->
      let oc = open_out path in
      Telemetry.record_to_channel oc;
      Obs.enable ();
      Obs.add_sink (Telemetry.span_sink ());
      at_exit (fun () ->
          Telemetry.stop ();
          close_out_noerr oc);
      f ()

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)
(* ------------------------------------------------------------------ *)

(* An answer read from stdin. [question] names the question on
   screen, for the error when stdin closes before it is answered. *)
let interactive_answer question =
  let rec ask () =
    print_string "Your choice [1/2]: ";
    match read_line () with
    | exception End_of_file ->
        print_newline ();
        prerr_endline ("error: stdin closed before " ^ question ^ " was answered");
        exit 1
    | line -> (
        match String.trim line with
        | "1" -> `New
        | "2" -> `Old
        | _ ->
            print_endline
              "Please answer 1 (new stanza first) or 2 (keep existing behaviour).";
            ask ())
  in
  ask ()

let scripted_answers script =
  let remaining = ref script in
  fun _question ->
    match !remaining with
    | [] ->
        prerr_endline "error: --answers script exhausted";
        exit 1
    | c :: rest ->
        remaining := rest;
        Printf.printf "Your choice [1/2]: %s (scripted)\n"
          (match c with `New -> "1" | `Old -> "2");
        c

let parse_script s =
  List.filter_map
    (fun c ->
      match c with
      | '1' -> Some `New
      | '2' -> Some `Old
      | _ -> None)
    (List.init (String.length s) (String.get s))

(* Answers from the [--answers] script when given, else from stdin.
   Each call is handed the question's coordinates; the source numbers
   the questions, so an error names the one left unanswered. *)
let answer_source answers =
  let next =
    match answers with
    | Some script -> scripted_answers (parse_script script)
    | None -> interactive_answer
  in
  let asked = ref 0 in
  fun where ->
    incr asked;
    next (Printf.sprintf "question %d %s" !asked where)

(* ------------------------------------------------------------------ *)
(* clarify update                                                     *)
(* ------------------------------------------------------------------ *)

let update_cmd =
  let config =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE" ~doc:"Existing configuration file.")
  in
  let target =
    Arg.(
      required
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"NAME"
          ~doc:"Route-map or ACL to update.")
  in
  let prompt =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "prompt" ] ~docv:"TEXT"
          ~doc:"Natural-language intent for the new stanza or rule.")
  in
  let answers =
    Arg.(
      value
      & opt (some string) None
      & info [ "answers" ] ~docv:"SCRIPT"
          ~doc:
            "Answer disambiguation questions from this script instead of \
             stdin: a string of 1s (new first) and 2s (keep existing), \
             e.g. --answers 12.")
  in
  let acl =
    Arg.(
      value & flag
      & info [ "acl" ] ~doc:"Treat the target as an ACL instead of a route-map.")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "inject-faults" ] ~docv:"N"
          ~doc:
            "Corrupt the first $(docv) LLM answers (seeded), demonstrating \
             the verify-and-repair loop.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Record the session as a JSONL event log (one event per \
             pipeline interaction) that $(b,clarify replay) re-runs \
             deterministically.")
  in
  let run config target prompt answers acl faults record obs =
    with_obs obs @@ fun () ->
    with_recorder record @@ fun () ->
    let db = load_config config in
    let llm =
      Llm.Mock_llm.create
        ~faults:(Llm.Fault_injector.schedule ~seed:11 ~faulty_attempts:faults)
        ()
    in
    let next_answer = answer_source answers in
    if acl then begin
      let oracle (q : Clarify.Acl_disambiguator.question) =
        Format.printf "@.%a@.@." Clarify.Acl_disambiguator.pp_question q;
        match
          next_answer (Printf.sprintf "(boundary: existing rule %d)" q.boundary_seq)
        with
        | `New -> Clarify.Acl_disambiguator.Prefer_new
        | `Old -> Clarify.Acl_disambiguator.Prefer_old
      in
      match Clarify.Pipeline.run_acl_update ~llm ~oracle ~db ~target ~prompt () with
      | Error e ->
          prerr_endline ("error: " ^ Clarify.Pipeline.error_to_string e);
          exit 1
      | Ok r ->
          Format.printf
            "@.Inserted after %d synthesis attempt(s), %d question(s).@.@.%a@."
            r.Clarify.Pipeline.synthesis_attempts
            (List.length r.Clarify.Pipeline.questions)
            Config.Acl.pp r.Clarify.Pipeline.acl
    end
    else begin
      let oracle (q : Clarify.Disambiguator.question) =
        Format.printf "@.%a@.@." Clarify.Disambiguator.pp_question q;
        match
          next_answer
            (Printf.sprintf "(boundary: existing stanza %d)" q.boundary_seq)
        with
        | `New -> Clarify.Disambiguator.Prefer_new
        | `Old -> Clarify.Disambiguator.Prefer_old
      in
      match
        Clarify.Pipeline.run_route_map_update ~llm ~oracle ~db ~target ~prompt ()
      with
      | Error e ->
          prerr_endline ("error: " ^ Clarify.Pipeline.error_to_string e);
          exit 1
      | Ok r ->
          if r.Clarify.Pipeline.verification_history <> [] then begin
            Format.printf "Verification feedback loop:@.";
            List.iter
              (fun h -> Format.printf "  %s@." h)
              r.Clarify.Pipeline.verification_history
          end;
          Format.printf
            "@.Inserted at position %d after %d synthesis attempt(s), %d \
             question(s).@.@.Updated configuration:@.%s@."
            r.Clarify.Pipeline.position r.Clarify.Pipeline.synthesis_attempts
            (List.length r.Clarify.Pipeline.questions)
            (Config.Parser.to_string r.Clarify.Pipeline.db)
    end
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Incrementally add one stanza or rule from an English intent.")
    Term.(
      const run $ config $ target $ prompt $ answers $ acl $ faults $ record
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* clarify batch                                                      *)
(* ------------------------------------------------------------------ *)

(* One intent per spec: "route-map:TARGET:PROMPT" or "acl:TARGET:PROMPT"
   (also accepted with an underscore, "route_map"). *)
let parse_intent_spec s =
  match String.index_opt s ':' with
  | None -> Error ("missing ':' in intent " ^ s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt rest ':' with
      | None -> Error ("missing prompt in intent " ^ s)
      | Some j -> (
          let target = String.sub rest 0 j in
          let prompt =
            String.trim (String.sub rest (j + 1) (String.length rest - j - 1))
          in
          match kind with
          | "route-map" | "route_map" ->
              Ok (Clarify.Batch.Route_map_update { target; prompt })
          | "acl" -> Ok (Clarify.Batch.Acl_update { target; prompt })
          | k -> Error ("unknown intent kind " ^ k ^ " in " ^ s)))

let batch_cmd =
  let config =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE" ~doc:"Existing configuration file.")
  in
  let intents =
    Arg.(
      value & opt_all string []
      & info [ "i"; "intent" ] ~docv:"KIND:TARGET:PROMPT"
          ~doc:
            "One intent of the batch: $(b,route-map:NAME:English intent) or \
             $(b,acl:NAME:English intent). Repeatable; order is the batch \
             order.")
  in
  let intents_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "intents-file" ] ~docv:"FILE"
          ~doc:
            "Read intents from $(docv), one KIND:TARGET:PROMPT per line \
             (blank lines and #-comments ignored), appended after any \
             --intent flags.")
  in
  let answers =
    Arg.(
      value
      & opt (some string) None
      & info [ "answers" ] ~docv:"SCRIPT"
          ~doc:
            "Answer disambiguation questions from this script instead of \
             stdin: a string of 1s (new first) and 2s (keep existing).")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "inject-faults" ] ~docv:"N"
          ~doc:
            "Corrupt the first $(docv) LLM answers (seeded), demonstrating \
             the verify-and-repair loop mid-batch.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Record the batch session as a JSONL event log that \
             $(b,clarify replay) re-runs deterministically.")
  in
  let run config intents intents_file answers faults record obs =
    with_obs obs @@ fun () ->
    with_recorder record @@ fun () ->
    let db = load_config config in
    let specs =
      intents
      @
      match intents_file with
      | None -> []
      | Some path ->
          String.split_on_char '\n' (read_file path)
          |> List.filter_map (fun line ->
                 let line = String.trim line in
                 if line = "" || line.[0] = '#' then None else Some line)
    in
    let items =
      List.map
        (fun s ->
          match parse_intent_spec s with
          | Ok it -> it
          | Error m ->
              prerr_endline ("error: " ^ m);
              exit 1)
        specs
    in
    if items = [] then begin
      prerr_endline "error: no intents given (use --intent or --intents-file)";
      exit 1
    end;
    let llm =
      Llm.Mock_llm.create
        ~faults:(Llm.Fault_injector.schedule ~seed:11 ~faulty_attempts:faults)
        ()
    in
    let next_answer = answer_source answers in
    let oracle ~intent ~target q =
      Format.printf "@.[intent %d, %s]@." intent target;
      let boundary =
        match q with
        | Clarify.Batch.Route_map_q q ->
            Format.printf "%a@.@." Clarify.Disambiguator.pp_question q;
            Printf.sprintf "existing stanza %d" q.boundary_seq
        | Clarify.Batch.Acl_q q ->
            Format.printf "%a@.@." Clarify.Acl_disambiguator.pp_question q;
            Printf.sprintf "existing rule %d" q.boundary_seq
      in
      match
        next_answer
          (Printf.sprintf "(intent %d, %s, boundary: %s)" intent target boundary)
      with
      | `New -> Clarify.Disambig_common.Prefer_new
      | `Old -> Clarify.Disambig_common.Prefer_old
    in
    match Clarify.Batch.run ~llm ~oracle ~db items with
    | Error e ->
        prerr_endline ("error: " ^ Clarify.Batch.error_to_string e);
        exit 1
    | Ok r ->
        Format.printf
          "@.Batch of %d intent(s): %d overlapping pair(s), %d genuine \
           conflict(s), %d question(s) saved by the shared answer cache.@."
          (List.length items) r.Clarify.Batch.overlap_pairs
          (List.length r.Clarify.Batch.conflicts)
          r.Clarify.Batch.questions_saved;
        List.iter
          (fun (c : Clarify.Batch.conflict) ->
            Format.printf "@.Conflict between intents %d and %d on %s:@.%s@."
              c.Clarify.Batch.intent_a c.Clarify.Batch.intent_b
              c.Clarify.Batch.target
              (match c.Clarify.Batch.witness with
              | Clarify.Batch.Route_witness d ->
                  Format.asprintf "%a"
                    Engine.Compare_route_policies.pp_difference d
              | Clarify.Batch.Acl_witness d ->
                  Format.asprintf "%a" Engine.Compare_acls.pp_difference d
              | Clarify.Batch.Prefix_witness p ->
                  Format.asprintf "shared prefix %a" Netaddr.Prefix.pp p))
          r.Clarify.Batch.conflicts;
        List.iteri
          (fun k res ->
            match res with
            | Clarify.Batch.Route_map_result rr ->
                Format.printf
                  "Intent %d (route-map %s): inserted at position %d after %d \
                   synthesis attempt(s), %d question(s).@."
                  k rr.Clarify.Pipeline.map.Config.Route_map.name
                  rr.Clarify.Pipeline.position
                  rr.Clarify.Pipeline.synthesis_attempts
                  (List.length rr.Clarify.Pipeline.questions)
            | Clarify.Batch.Acl_result ar ->
                Format.printf
                  "Intent %d (acl %s): inserted at position %d after %d \
                   synthesis attempt(s), %d question(s).@."
                  k ar.Clarify.Pipeline.acl.Config.Acl.name
                  ar.Clarify.Pipeline.position
                  ar.Clarify.Pipeline.synthesis_attempts
                  (List.length ar.Clarify.Pipeline.questions))
          r.Clarify.Batch.items;
        Format.printf "@.Updated configuration:@.%s@."
          (Config.Parser.to_string r.Clarify.Batch.db)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Apply a batch of English intents at once: synthesize all stanzas, \
          classify the pairwise inter-intent conflict graph of each target \
          policy, then place each intent as $(b,update) does, serving \
          repeated questions from a shared answer cache.")
    Term.(
      const run $ config $ intents $ intents_file $ answers $ faults $ record
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* clarify replay                                                     *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let log =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LOG"
          ~doc:
            "JSONL event log recorded with $(b,clarify update --record) or \
             $(b,clarify batch --record), or one router's log from \
             $(b,clarify eval e4|e5 --record-dir).")
  in
  let run log =
    match Clarify.Replay.run_file log with
    | Error m ->
        prerr_endline ("error: cannot replay " ^ log ^ ": " ^ m);
        exit 2
    | Ok report ->
        Format.printf "%a" Clarify.Replay.pp_report report;
        exit (if Clarify.Replay.identical report then 0 else 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a recorded session deterministically (LLM responses and \
          user answers fed from the log), failing loudly on divergence.")
    Term.(const run $ log)

(* ------------------------------------------------------------------ *)
(* Experiments (`clarify eval`)                                       *)
(* ------------------------------------------------------------------ *)

(* e4 and e5 manage their own per-router logs; e1 records as one
   session. *)
let run_experiments ?record_dir ?(scale = 1.0) ?(routers = 64)
    ?(profile = Netgen.Fat_tree) ?(simulate = false) ~pool fmt which =
  let record_session name f =
    match record_dir with
    | None -> f ()
    | Some dir ->
        let oc = open_out (Filename.concat dir (name ^ ".jsonl")) in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Telemetry.with_channel_recorder oc @@ fun () ->
            Telemetry.with_context [ ("experiment", name) ] f)
  in
  let e1 () =
    record_session "e1" @@ fun () ->
    Evaluation.E1_running_example.(print fmt (run ()))
  in
  let e2 () =
    Evaluation.E23_overlap_study.(
      print ~title:"E2: cloud WAN overlap study (Section 3.1)" fmt
        (cloud ~pool ()))
  in
  let e3 () =
    Evaluation.E23_overlap_study.(
      print ~title:"E3: campus overlap study (Section 3.2)" fmt
        (campus ~scale ~pool ()))
  in
  let e4 () = Evaluation.E4_lightyear.(print fmt (run ?record_dir ~pool ())) in
  let e5 () =
    Evaluation.E5_fleet.(
      print fmt (run ?record_dir ~pool ~simulate ~profile ~routers ()))
  in
  match which with
  | `E1 -> e1 ()
  | `E2 -> e2 ()
  | `E3 -> e3 ()
  | `E4 -> e4 ()
  | `E5 -> e5 ()
  | `All ->
      (* e5 scales with --routers, so it is opted into explicitly
         rather than riding along with the fixed-size experiments. *)
      e1 ();
      e2 ();
      e3 ();
      e4 ()

let experiment_enum =
  [
    ("e1", `E1);
    ("e2", `E2);
    ("e3", `E3);
    ("e4", `E4);
    ("e5", `E5);
    ("all", `All);
  ]

(* ------------------------------------------------------------------ *)
(* clarify obs diff                                                   *)
(* ------------------------------------------------------------------ *)

let obs_cmd =
  (* Plain strings, not Arg.file: a missing snapshot must exit 2 as the
     documented exits promise, not cmdliner's usage-error 124. *)
  let old_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench snapshot (BENCH.json).")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench snapshot to compare.")
  in
  let threshold =
    Arg.(
      value
      & opt float Telemetry.Bench.default_threshold
      & info [ "threshold" ] ~docv:"FRACTION"
          ~doc:
            "Fractional growth beyond which a counter or latency metric \
             counts as a regression (default 0.2 = 20%).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Print every compared metric, not just deltas.")
  in
  let diff old_file new_file threshold all =
    let load path =
      match Telemetry.Bench.load_file path with
      | Ok t -> t
      | Error m ->
          prerr_endline ("error: cannot load " ^ path ^ ": " ^ m);
          exit 2
    in
    let old_t = load old_file and new_t = load new_file in
    if old_t.Telemetry.Bench.domains <> new_t.Telemetry.Bench.domains then begin
      Printf.eprintf
        "error: snapshots were taken at different parallelism (%d vs %d \
         domains); timings are not comparable\n"
        old_t.Telemetry.Bench.domains new_t.Telemetry.Bench.domains;
      exit 2
    end;
    let deltas = Telemetry.Bench.diff ~threshold old_t new_t in
    Format.printf "%a" (Telemetry.Bench.pp_diff ~all) deltas;
    exit (if Telemetry.Bench.regressed deltas then 1 else 0)
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two bench snapshots; non-zero exit when a counter or \
            latency histogram regresses beyond the threshold. Prints a \
            one-line summary (N regressed / N improved / N unchanged) \
            before the per-metric table."
         ~exits:
           [
             Cmd.Exit.info 0 ~doc:"no metric regressed beyond the threshold.";
             Cmd.Exit.info 1 ~doc:"at least one metric regressed.";
             Cmd.Exit.info 2 ~doc:"a snapshot file is missing or malformed.";
           ])
      Term.(const diff $ old_file $ new_file $ threshold $ all)
  in
  Cmd.group
    (Cmd.info "obs" ~doc:"Observability: compare bench snapshots.")
    [ diff_cmd ]

(* ------------------------------------------------------------------ *)
(* clarify trace                                                      *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let log =
    (* A string, not Arg.file: an unreadable log exits 2 like every
       other load error, not cmdliner's usage-error 124. *)
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LOG"
          ~doc:
            "JSONL event log recorded with $(b,clarify update --record) or \
             $(b,clarify eval --record-dir).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace JSON here instead of standard output.")
  in
  let export log output =
    (* Streamed: one trace event written per log line, so a fleet-sized
       log never has to fit in memory. *)
    let write oc =
      let process =
        Filename.remove_extension (Filename.basename log)
      in
      let w = Analytics.Trace.Writer.create ~process oc in
      match Analytics.Stream.iter_file log (Analytics.Trace.Writer.event w) with
      | Error m ->
          prerr_endline ("error: cannot load " ^ m);
          exit 2
      | Ok _ -> Analytics.Trace.Writer.close w
    in
    match output with
    | None -> write stdout
    | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)
  in
  let export_cmd =
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Convert a recorded session log to Chrome-trace JSON \
            (chrome://tracing, Perfetto): spans become complete events on \
            router/phase lanes, every other event an instant tick.")
      Term.(const export $ log $ output)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Export recorded sessions as flame-graph traces.")
    [ export_cmd ]

(* ------------------------------------------------------------------ *)
(* clarify report                                                     *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let paths =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"DIR|LOG"
          ~doc:
            "Session logs to aggregate: JSONL files, or directories whose \
             *.jsonl files are taken in name order.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("md", `Md); ("json", `Json); ("csv", `Csv) ]) `Md
      & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: md, json or csv.")
  in
  let figure4 =
    Arg.(
      value & flag
      & info [ "figure4" ]
          ~doc:
            "Markdown output only: print just the Figure-4 table, without \
             the LLM usage section.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:
            "Tail-follow one directory of live logs and re-render the \
             report every $(b,--interval) seconds, folding only the bytes \
             appended since the previous frame (constant memory per log). \
             Watches for new *.jsonl files on every frame, so a fleet run \
             can be followed from before its first router starts.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"Seconds between $(b,--follow) frames.")
  in
  let frames =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N"
          ~doc:
            "With $(b,--follow): render N frames, then exit (default: \
             until interrupted).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the one-shot fold (one log per task). \
             Defaults to $(b,CLARIFY_JOBS), or 1. Output is byte-identical \
             at every value.")
  in
  let run paths format figure4 follow interval frames jobs =
    let print_report report =
      print_string
        (match format with
        | `Md when figure4 -> Analytics.Report.figure4_markdown report
        | `Md -> Analytics.Report.to_markdown report
        | `Json ->
            Json.to_string ~indent:2 (Analytics.Report.to_json report) ^ "\n"
        | `Csv -> Analytics.Report.to_csv report)
    in
    if follow then begin
      let dir =
        match paths with
        | [ dir ] when Sys.file_exists dir && Sys.is_directory dir -> dir
        | _ ->
            prerr_endline "error: --follow takes exactly one directory";
            exit 2
      in
      let d = Analytics.Stream.open_dir dir in
      let clear = Unix.isatty Unix.stdout in
      let rec loop n =
        ignore (Analytics.Stream.poll d);
        if clear then print_string "\x1b[2J\x1b[H";
        print_report (Analytics.Stream.report_of_dir d);
        List.iter
          (fun f ->
            match Analytics.Stream.file_error f with
            | Some e ->
                Printf.eprintf "warn: %s: %s\n%!"
                  (Analytics.Stream.file_path f) e
            | None -> ())
          (Analytics.Stream.files d);
        flush stdout;
        if match frames with Some k -> n + 1 < k | None -> true then begin
          Unix.sleepf interval;
          loop (n + 1)
        end
      in
      loop 0
    end
    else
      (* One-shot: the same streaming fold, sharded across a pool (one
         log per task); merge order is input order, so the output is
         byte-identical at every pool size — and to --follow's final
         frame over the same (complete) logs. *)
      let pool = Parallel.Pool.create ?domains:jobs () in
      match Analytics.Stream.report_paths ~pool paths with
      | Error m ->
          prerr_endline ("error: " ^ m);
          exit 2
      | Ok report -> print_report report
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate recorded session logs into per-router statistics \
          (the paper's Figure 4: stanzas, questions, retries, LLM calls, \
          token totals) as Markdown, JSON or CSV — one-shot over complete \
          logs, or live with $(b,--follow) while a fleet is still \
          running.")
    Term.(
      const run $ paths $ format $ figure4 $ follow $ interval $ frames
      $ jobs)

(* ------------------------------------------------------------------ *)
(* clarify fleet                                                      *)
(* ------------------------------------------------------------------ *)

let fleet_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "Record directory of a $(b,clarify eval e5 --record-dir) run: \
             holds fleet.json and one e5_ROUTER.jsonl log per router.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:
            "Keep re-rendering every $(b,--interval) seconds as the logs \
             grow (Ctrl-C to stop).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"Seconds between $(b,--follow) frames.")
  in
  let frames =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N"
          ~doc:
            "With $(b,--follow): render N frames, then exit (default: \
             until interrupted).")
  in
  let pp_ms ns = Printf.sprintf "%.1fms" (ns /. 1e6) in
  let percentile sorted p =
    match Array.length sorted with
    | 0 -> 0.
    | n ->
        let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
        sorted.(max 0 (min (n - 1) idx))
  in
  let status dir follow interval frames =
    let manifest_path = Filename.concat dir "fleet.json" in
    let manifest =
      match
        if Sys.file_exists manifest_path then read_file manifest_path
        else (
          Printf.eprintf
            "error: %s: no fleet.json manifest (is this a clarify eval e5 \
             --record-dir directory?)\n"
            dir;
          exit 2)
      with
      | text -> (
          match Json.parse text with
          | Ok j -> j
          | Error m ->
              Printf.eprintf "error: %s: %s\n" manifest_path m;
              exit 2)
    in
    let str name j = Option.bind (Json.member name j) Json.to_str in
    let int name j = Option.bind (Json.member name j) Json.to_int in
    let prefix = Option.value ~default:"e5_" (str "log_prefix" manifest) in
    let profile = Option.value ~default:"?" (str "profile" manifest) in
    let k = Option.value ~default:0 (int "k" manifest) in
    let pods = Option.value ~default:0 (int "pods" manifest) in
    let nodes =
      match Option.bind (Json.member "nodes" manifest) Json.to_list with
      | Some l ->
          List.filter_map
            (fun n ->
              match (str "router" n, str "role" n, int "steps" n) with
              | Some router, Some role, Some steps -> Some (router, role, steps)
              | _ -> None)
            l
      | None -> []
    in
    if nodes = [] then begin
      Printf.eprintf "error: %s: manifest lists no routers\n" manifest_path;
      exit 2
    end;
    let d = Analytics.Stream.open_dir dir in
    let render () =
      ignore (Analytics.Stream.poll d);
      let by_name =
        List.map
          (fun f -> (Analytics.Stream.file_name f, f))
          (Analytics.Stream.files d)
      in
      let b = Buffer.create 4096 in
      Printf.bprintf b "fleet %s — %s, %d routers (k=%d, pods=%d)\n\n" dir
        profile (List.length nodes) k pods;
      Printf.bprintf b "%-12s %-12s %-8s %9s %5s %8s %10s %10s\n" "ROUTER"
        "ROLE" "PHASE" "STANZAS" "Q" "TOKENS" "COST" "WALL";
      let pending = ref 0
      and running = ref 0
      and done_ = ref 0
      and errors = ref 0 in
      let walls = ref [] and running_spans = ref [] in
      let questions = ref 0
      and tokens = ref 0
      and cost = ref 0. in
      List.iter
        (fun (router, role, steps) ->
          match List.assoc_opt (prefix ^ router) by_name with
          | None ->
              incr pending;
              Printf.bprintf b "%-12s %-12s %-8s %5d/%-3d %5s %8s %10s %10s\n"
                router role "pending" 0 steps "-" "-" "-" "-"
          | Some f ->
              let stats =
                Analytics.Report.Acc.finish ~router
                  (Analytics.Stream.file_acc f)
              in
              let open Analytics.Report in
              let phase, wall =
                match Analytics.Stream.file_error f with
                | Some _ ->
                    incr errors;
                    ("error", "-")
                | None -> (
                    match stats.fleet with
                    | Some fl when fl.completed ->
                        incr done_;
                        walls := fl.wall_ns :: !walls;
                        ("done", pp_ms fl.wall_ns)
                    | _ ->
                        incr running;
                        running_spans :=
                          Analytics.Report.Acc.last_ts_ns
                            (Analytics.Stream.file_acc f)
                          :: !running_spans;
                        ("running", "-"))
              in
              let toks = stats.prompt_tokens + stats.completion_tokens in
              questions := !questions + stats.questions;
              tokens := !tokens + toks;
              cost := !cost +. stats.cost_usd;
              Printf.bprintf b
                "%-12s %-12s %-8s %5d/%-3d %5d %8d %10s %10s\n" router role
                phase stats.stanzas steps stats.questions toks
                (Printf.sprintf "$%.4f" stats.cost_usd)
                wall)
        nodes;
      (* A running router is a straggler once its log spans more than
         twice the mean wall of the done routers, and at least 100 ms so
         a small fleet does not flap. The span runs to the log's last
         event (each event's ts_ns is its offset from the router's
         recorder start), so a router that has gone quiet counts only
         once it writes again. Before any router is done there is no
         baseline. *)
      let stragglers =
        match !walls with
        | [] -> 0
        | ws ->
            let n = float_of_int (List.length ws) in
            let threshold =
              Float.max 1e8 (2. *. List.fold_left ( +. ) 0. ws /. n)
            in
            List.length (List.filter (fun t -> t > threshold) !running_spans)
      in
      Printf.bprintf b
        "\npending %d  running %d  done %d/%d  stragglers %d%s\n" !pending
        !running !done_ (List.length nodes) stragglers
        (if !errors > 0 then Printf.sprintf "  errors %d" !errors else "");
      (if !walls <> [] then
         let arr = Array.of_list !walls in
         let () = Array.sort compare arr in
         Printf.bprintf b
           "router wall (done routers): p50 %s  p99 %s  max %s\n"
           (pp_ms (percentile arr 50.))
           (pp_ms (percentile arr 99.))
           (pp_ms (percentile arr 100.)));
      Printf.bprintf b "questions %d  tokens %d (~$%.4f)\n" !questions !tokens
        !cost;
      Buffer.contents b
    in
    let clear = follow && Unix.isatty Unix.stdout in
    let rec loop n =
      if clear then print_string "\x1b[2J\x1b[H";
      print_string (render ());
      flush stdout;
      if follow && match frames with Some f -> n + 1 < f | None -> true
      then begin
        Unix.sleepf interval;
        loop (n + 1)
      end
    in
    loop 0
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Per-router fleet progress from a $(b,clarify eval e5) record \
            directory: phase (pending/running/done), stanzas placed vs \
            planned, questions, token usage and wall time per router, the \
            count of stragglers (running routers whose log, up to its last \
            event, already spans more than twice the mean wall of the done \
            ones, and 100 ms; a router that has gone quiet counts once it \
            writes again) and wall percentiles — live with $(b,--follow). Reads the \
            fleet.json manifest, so routers whose logs do not exist yet \
            show as pending."
         ~exits:
           [
             Cmd.Exit.info 0 ~doc:"status rendered.";
             Cmd.Exit.info 2 ~doc:"the manifest is missing or malformed.";
           ])
      Term.(const status $ dir_arg $ follow $ interval $ frames)
  in
  Cmd.group
    (Cmd.info "fleet" ~doc:"Watch fleet-scale (e5) synthesis runs.")
    [ status_cmd ]

(* ------------------------------------------------------------------ *)
(* clarify audit                                                      *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let config =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE" ~doc:"Configuration file to audit.")
  in
  let run config =
    let db = load_config config in
    List.iter
      (fun (acl : Config.Acl.t) ->
        let s = Overlap.Acl_overlap.analyze acl in
        Format.printf
          "ACL %-20s rules %3d  overlaps %3d  conflicts %3d  non-trivial %3d@."
          s.Overlap.Acl_overlap.name s.Overlap.Acl_overlap.rules
          s.Overlap.Acl_overlap.overlap_pairs
          s.Overlap.Acl_overlap.conflict_pairs
          s.Overlap.Acl_overlap.nontrivial_conflicts)
      (Config.Database.acls db);
    List.iter
      (fun (rm : Config.Route_map.t) ->
        let s = Overlap.Route_map_overlap.analyze db rm in
        Format.printf
          "route-map %-15s stanzas %3d  overlaps %3d  conflicts %3d@."
          s.Overlap.Route_map_overlap.name s.Overlap.Route_map_overlap.stanzas
          s.Overlap.Route_map_overlap.overlap_pairs
          s.Overlap.Route_map_overlap.conflict_pairs)
      (Config.Database.route_maps db)
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Count overlapping and conflicting rule pairs (Section 3 analysis).")
    Term.(const run $ config)

(* ------------------------------------------------------------------ *)
(* clarify verify                                                     *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let config =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE"
          ~doc:"Configuration containing the stanza and its lists.")
  in
  let map_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "map" ] ~docv:"NAME" ~doc:"Single-stanza route-map to verify.")
  in
  let spec =
    Arg.(
      required
      & opt (some file) None
      & info [ "s"; "spec" ] ~docv:"FILE" ~doc:"JSON behavioural specification.")
  in
  let run config map_name spec =
    let db = load_config config in
    let rm =
      match Config.Database.route_map db map_name with
      | Some rm -> rm
      | None ->
          prerr_endline ("error: no route-map named " ^ map_name);
          exit 1
    in
    let spec =
      match Engine.Spec.of_string (read_file spec) with
      | Ok s -> s
      | Error m ->
          prerr_endline ("error: bad spec: " ^ m);
          exit 1
    in
    match Engine.Search_route_policies.verify_stanza db rm spec with
    | Engine.Search_route_policies.Verified ->
        print_endline "verified";
        exit 0
    | v ->
        Format.printf "%a@." Engine.Search_route_policies.pp_verdict v;
        exit 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a synthesized stanza against a JSON spec (searchRoutePolicies).")
    Term.(const run $ config $ map_arg $ spec)

(* ------------------------------------------------------------------ *)
(* clarify eval                                                       *)
(* ------------------------------------------------------------------ *)

let eval_cmd =
  let which =
    Arg.(
      value
      & pos 0 (enum experiment_enum) `All
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "One of e1, e2, e3, e4, e5, all. $(b,all) covers the paper's \
             fixed-size experiments (e1-e4); the e5 fleet scales with \
             $(b,--routers), so it is requested explicitly.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"X"
          ~doc:"Scale factor for the campus corpus (e3); 1.0 = full size.")
  in
  let record_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-dir" ] ~docv:"DIR"
          ~doc:
            "Record session logs into $(docv) (created if missing): one \
             JSONL file per experiment session (e1.jsonl, e4_M.jsonl, \
             e4_R1.jsonl, e4_R2.jsonl; e5 writes fleet.json plus one \
             e5_ROUTER.jsonl per router) that $(b,clarify report) \
             aggregates, $(b,clarify fleet status) watches and \
             $(b,clarify trace export) visualizes.")
  in
  let profile =
    Arg.(
      value
      & opt
          (enum [ ("fat-tree", Netgen.Fat_tree); ("wan", Netgen.Wan) ])
          Netgen.Fat_tree
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Topology profile for the e5 fleet: $(b,fat-tree) (data-center \
             Clos) or $(b,wan) (Abilene-style backbone with attached \
             sites).")
  in
  let routers =
    Arg.(
      value & opt int 64
      & info [ "routers" ] ~docv:"N"
          ~doc:
            "Fleet size for e5: the number of internal routers to generate \
             and synthesize policy for.")
  in
  let simulate =
    Arg.(
      value & flag
      & info [ "simulate" ]
          ~doc:
            "e5 only: after synthesis, install every router's configuration \
             into the generated topology, run the BGP simulation to \
             convergence and print the network-wide policy checks.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel sweeps (e2/e3 corpus analyses \
             and e4's per-router builds). Defaults to $(b,CLARIFY_JOBS), or \
             1 (serial). Results are identical at every value; only \
             wall-clock changes.")
  in
  let run which scale record_dir jobs profile routers simulate obs =
    with_obs obs @@ fun () ->
    let pool = Parallel.Pool.create ?domains:jobs () in
    (match record_dir with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        (* Recorded sessions carry their timing tree (span events). *)
        Obs.enable ();
        Obs.add_sink (Telemetry.span_sink ()));
    run_experiments ?record_dir ~scale ~profile ~routers ~simulate ~pool
      Format.std_formatter which
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Regenerate the paper's experiments.")
    Term.(
      const run $ which $ scale $ record_dir $ jobs $ profile $ routers
      $ simulate $ obs_term)

let () =
  let doc = "LLM-based incremental network-configuration synthesis with intent disambiguation" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "clarify" ~version:"1.0.0" ~doc)
          [
            update_cmd;
            batch_cmd;
            replay_cmd;
            obs_cmd;
            trace_cmd;
            report_cmd;
            fleet_cmd;
            audit_cmd;
            verify_cmd;
            eval_cmd;
          ]))
