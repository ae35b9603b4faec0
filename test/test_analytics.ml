(* Tests for lib/analytics: session loading (including tolerant
   recovery of truncated logs), the Figure-4 report aggregator checked
   against both the events themselves and the committed golden, and
   the Chrome-trace writer's output re-parsed from its JSON text with
   the span nesting validated event by event. *)

module S = Session_reference
module Rp = Analytics.Report
module T = Analytics.Trace
module E = Telemetry.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let fixture = "../examples/acl_session.jsonl"
let golden_report = "../examples/e4_figure4.md"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_fixture () =
  match S.load_file fixture with
  | Ok s -> s
  | Error m -> Alcotest.failf "cannot load %s: %s" fixture m

let num j =
  match j with
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "trace event lacks %S: %s" name (Json.to_string j)

let count_kind kind events =
  List.length (List.filter (fun e -> e.E.kind = kind) events)

let sum_int_field name events =
  List.fold_left
    (fun acc e ->
      acc + Option.value ~default:0 (Option.map int_of_float
        (Option.bind (List.assoc_opt name e.E.fields) num)))
    0 events

(* ------------------------------------------------------------------ *)
(* Session loading                                                    *)
(* ------------------------------------------------------------------ *)

let test_load_fixture () =
  let s = load_fixture () in
  check_string "name from basename" "acl_session" s.S.name;
  check_string "router falls back to name" "acl_session" (S.router s);
  check_bool "fixture has domain events" true
    (count_kind "session_start" s.S.events = 1
    && count_kind "session_end" s.S.events = 1);
  check_bool "fixture has span mirror events" true
    (count_kind "span" s.S.events > 0)

(* A crashed recorder leaves a truncated final line: tolerant loading
   drops exactly that line, strict loading refuses the file. *)
let test_tolerant_truncated_log () =
  let s = load_fixture () in
  let text = read_file fixture in
  let truncated = String.sub text 0 (String.length text - 7) in
  let path = Filename.temp_file "analytics_trunc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc truncated;
      close_out oc;
      (match S.load_file path with
      | Ok _ -> Alcotest.fail "strict load accepted a truncated log"
      | Error _ -> ());
      match S.load_file ~tolerant:true path with
      | Error m -> Alcotest.failf "tolerant load refused the log: %s" m
      | Ok s' ->
          check_int "only the damaged final line is dropped"
            (List.length s.S.events - 1)
            (List.length s'.S.events))

(* Garbage in the middle of a log is corruption, not a crash tail, and
   stays an error even under tolerant loading. *)
let test_tolerant_rejects_mid_file_garbage () =
  let text = read_file fixture in
  let lines = String.split_on_char '\n' text in
  let mangled =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 2 then "{not json" else l) lines)
  in
  let path = Filename.temp_file "analytics_mid" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc mangled;
      close_out oc;
      match S.load_file ~tolerant:true path with
      | Ok _ -> Alcotest.fail "tolerant load accepted mid-file garbage"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Report aggregation                                                 *)
(* ------------------------------------------------------------------ *)

(* Every number in the report row must be recomputable from the raw
   events of the session it aggregates. *)
let test_report_matches_fixture_events () =
  let s = load_fixture () in
  let events = s.S.events in
  let report = S.report [ s ] in
  match report.Rp.routers with
  | [ r ] ->
      check_string "router" "acl_session" r.Rp.router;
      check_int "sessions" (count_kind "session_start" events) r.Rp.sessions;
      check_int "stanzas" (count_kind "placement" events) r.Rp.stanzas;
      check_int "questions" (count_kind "question" events) r.Rp.questions;
      check_int "probes" (count_kind "probe" events) r.Rp.probes;
      check_int "boundaries" (sum_int_field "boundaries" events)
        r.Rp.boundaries;
      check_int "classify" (count_kind "llm_classify" events)
        r.Rp.classify_calls;
      check_int "synthesize" (count_kind "llm_synthesize" events)
        r.Rp.synthesize_calls;
      check_int "spec" (count_kind "llm_spec" events) r.Rp.spec_calls;
      check_int "llm calls total"
        (r.Rp.classify_calls + r.Rp.synthesize_calls + r.Rp.spec_calls)
        (Rp.llm_calls r);
      check_int "retries"
        (List.length
           (List.filter
              (fun e ->
                e.E.kind = "verify"
                && E.str_field "verdict" e <> Some "verified")
              events))
        r.Rp.retries;
      check_int "prompt tokens" (sum_int_field "prompt_tokens" events)
        r.Rp.prompt_tokens;
      check_int "completion tokens"
        (sum_int_field "completion_tokens" events)
        r.Rp.completion_tokens;
      check_bool "tokens were recorded" true (r.Rp.prompt_tokens > 0);
      Alcotest.(check (float 1e-12))
        "cost from the token totals"
        (Llm.Tokens.cost ~prompt_tokens:r.Rp.prompt_tokens
           ~completion_tokens:r.Rp.completion_tokens)
        r.Rp.cost_usd;
      check_bool "phases include the root span total" true
        (List.exists (fun p -> p.Rp.phase = "total") r.Rp.phases)
  | rows -> Alcotest.failf "expected one router row, got %d" (List.length rows)

let test_report_renderings () =
  let s = load_fixture () in
  let report = S.report [ s ] in
  let md = Rp.to_markdown report in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "markdown has the Figure-4 table" true
    (contains md "## Figure 4: per-router interaction counts");
  check_bool "markdown has the cost table" true
    (contains md "## LLM usage and estimated cost");
  check_bool "figure4_markdown is a subset of to_markdown" true
    (contains md (Rp.figure4_markdown report));
  let csv = Rp.to_csv report in
  (match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
      check_string "csv header"
        "router,sessions,route_maps,stanzas,questions,probes,boundaries,\
         retries,classify_calls,synthesize_calls,spec_calls,prompt_tokens,\
         completion_tokens,cost_usd,batch_sessions,batch_intents,\
         batch_conflict_pairs,batch_fast_path,batch_questions_saved"
        header;
      check_int "one csv row per router" 1 (List.length rows)
  | [] -> Alcotest.fail "empty csv");
  (* Wall-clock phase timings are JSON-only: the deterministic
     renderings must not mention nanoseconds at all. *)
  check_bool "markdown carries no wall-clock data" false (contains md "_ns");
  check_bool "csv carries no wall-clock data" false (contains csv "_ns");
  let j = Rp.to_json report in
  match Option.bind (Json.member "routers" j) Json.to_list with
  | Some [ row ] ->
      check_bool "json row has phases" true
        (Json.member "phases" row <> None)
  | _ -> Alcotest.fail "json lacks the routers array"

(* The batch fixture aggregates into the batch columns: one batch
   session of three intents with one genuine conflict pair on two
   policies (its items' targets, not the session's "*"), and the
   markdown gains its batch section, which single-intent reports
   lack. *)
let test_batch_fixture_report () =
  let s =
    match S.load_file "../examples/batch_session.jsonl" with
    | Ok s -> s
    | Error m -> Alcotest.failf "cannot load batch fixture: %s" m
  in
  let report = S.report [ s ] in
  match report.Rp.routers with
  | [ r ] ->
      check_int "one batch session" 1 r.Rp.batch_sessions;
      check_int "two policies: ISP_OUT and LAB_EDGE" 2 r.Rp.route_maps;
      check_int "three intents" 3 r.Rp.batch_intents;
      check_int "one conflict pair" 1 r.Rp.batch_conflict_pairs;
      check_bool "some intents overlap no other intent" true
        (r.Rp.batch_fast_path >= 1);
      check_int "placements cover every intent" 3 r.Rp.stanzas;
      let md = Rp.to_markdown report in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      check_bool "markdown has the batch section" true
        (contains md "## Batch intents")
  | rows -> Alcotest.failf "expected one router row, got %d" (List.length rows)

(* The acceptance gate: record E4, aggregate the logs, and demand both
   (a) the per-router rows equal the stats the experiment itself
   computed, and (b) the Markdown is byte-identical to the committed
   golden in examples/e4_figure4.md. *)
let test_e4_report_matches_run_and_golden () =
  let dir = Filename.temp_file "e4_logs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let result = Evaluation.E4_lightyear.run ~record_dir:dir () in
      let sessions =
        match S.load [ dir ] with
        | Ok s -> s
        | Error m -> Alcotest.failf "cannot load %s: %s" dir m
      in
      check_int "one session per router" 3 (List.length sessions);
      let report = S.report sessions in
      check_int "one row per router" 3 (List.length report.Rp.routers);
      List.iter2
        (fun (s : Evaluation.E4_lightyear.router_stats)
             (r : Rp.router_stats) ->
          check_string "router" s.Evaluation.E4_lightyear.router r.Rp.router;
          check_int
            (r.Rp.router ^ " route-maps")
            s.Evaluation.E4_lightyear.route_maps r.Rp.route_maps;
          check_int
            (r.Rp.router ^ " synthesis calls")
            s.Evaluation.E4_lightyear.synthesis_calls r.Rp.synthesize_calls;
          check_int
            (r.Rp.router ^ " questions")
            s.Evaluation.E4_lightyear.questions r.Rp.questions;
          check_int
            (r.Rp.router ^ " total llm calls")
            s.Evaluation.E4_lightyear.total_llm_calls (Rp.llm_calls r))
        result.Evaluation.E4_lightyear.stats report.Rp.routers;
      check_string "markdown reproduces the committed golden"
        (read_file golden_report) (Rp.to_markdown report))

(* ------------------------------------------------------------------ *)
(* Chrome-trace export                                                *)
(* ------------------------------------------------------------------ *)

type x_event = { ts : float; dur : float; depth : int }

let contains_interval p c =
  p.ts <= c.ts && c.ts +. c.dur <= p.ts +. p.dur

let overlaps a b = a.ts < b.ts +. b.dur && b.ts < a.ts +. a.dur

(* Feed [events] to the trace writer, as [clarify trace export] does,
   and return the JSON text it wrote. *)
let export_text ?process events =
  let path = Filename.temp_file "analytics_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  let w = T.Writer.create ?process oc in
  List.iter (T.Writer.event w) events;
  T.Writer.close w;
  close_out oc;
  read_file path

(* ... and re-parse it. *)
let export ?process events =
  match Json.parse (export_text ?process events) with
  | Ok j -> j
  | Error m -> Alcotest.failf "trace JSON does not re-parse: %s" m

(* Export each golden fixture, re-parse the JSON text, and check the
   complete ("X") events nest properly within each pid/tid lane — no
   partial overlap, and every child interval lies inside a parent
   interval one level up. *)
let check_trace_nests path =
  let s =
    match S.load_file path with
    | Ok s -> s
    | Error m -> Alcotest.failf "cannot load %s: %s" path m
  in
  let j = export ~process:s.S.name s.S.events in
  Alcotest.(check (option string))
    "display unit" (Some "ms")
    (Option.bind (Json.member "displayTimeUnit" j) Json.to_str);
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_bool "trace is non-empty" true (events <> []);
  (* Every event is well-formed and of a known phase. *)
  let phases =
    List.map
      (fun e ->
        let ph =
          match Json.to_str (field "ph" e) with
          | Some ph -> ph
          | None -> Alcotest.fail "ph is not a string"
        in
        (match ph with
        | "M" -> ()
        | "X" | "i" ->
            check_bool "pid is an int" true
              (Json.to_int (field "pid" e) <> None);
            check_bool "tid is an int" true
              (Json.to_int (field "tid" e) <> None);
            check_bool "ts is a number" true (num (field "ts" e) <> None);
            if ph = "X" then
              check_bool "dur is non-negative" true
                (match num (field "dur" e) with
                | Some d -> d >= 0.
                | None -> false)
        | other -> Alcotest.failf "unexpected phase %S" other);
        ph)
      events
  in
  let count ph = List.length (List.filter (( = ) ph) phases) in
  check_int "one X event per span mirror event"
    (count_kind "span" s.S.events)
    (count "X");
  check_int "one instant per domain event"
    (List.length s.S.events - count_kind "span" s.S.events)
    (count "i");
  (* The process lane is named after the session. *)
  check_bool "process metadata names the session" true
    (List.exists
       (fun e ->
         Json.to_str (field "name" e) = Some "process_name"
         && Option.bind (Json.member "args" e) (Json.member "name")
            |> Option.map Json.to_str
            |> Option.join = Some s.S.name)
       events);
  (* Nesting: group X events by lane and compare pairwise. *)
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun e ->
      if Json.to_str (field "ph" e) = Some "X" then begin
        let lane =
          ( Option.get (Json.to_int (field "pid" e)),
            Option.get (Json.to_int (field "tid" e)) )
        in
        let x =
          {
            ts = Option.get (num (field "ts" e));
            dur = Option.get (num (field "dur" e));
            depth =
              Option.get
                (Option.bind
                   (Option.bind (Json.member "args" e) (Json.member "depth"))
                   Json.to_int);
          }
        in
        Hashtbl.replace lanes lane
          (x :: Option.value ~default:[] (Hashtbl.find_opt lanes lane))
      end)
    events;
  check_bool "at least one lane carries spans" true (Hashtbl.length lanes > 0);
  Hashtbl.iter
    (fun _lane xs ->
      List.iteri
        (fun i a ->
          List.iteri
            (fun k b ->
              if i < k && overlaps a b then
                check_bool "overlapping spans are properly nested" true
                  (contains_interval a b || contains_interval b a))
            xs)
        xs;
      List.iter
        (fun c ->
          if c.depth > 0 then
            check_bool
              (Printf.sprintf "span at depth %d has an enclosing parent"
                 c.depth)
              true
              (List.exists
                 (fun p -> p.depth = c.depth - 1 && contains_interval p c)
                 xs))
        xs)
    lanes

let test_trace_export_reparses_and_nests () =
  List.iter check_trace_nests [ fixture; "../examples/batch_session.jsonl" ]

(* Between its opening and closing lines, each golden fixture's export
   holds one line per trace event: that event, compact, then the
   separating comma. *)
let test_trace_export_one_event_per_line () =
  List.iter
    (fun path ->
      let s = Result.get_ok (S.load_file path) in
      let text = export_text ~process:s.S.name s.S.events in
      let events =
        Option.get (Json.to_list (field "traceEvents" (Json.parse_exn text)))
      in
      let lines =
        match List.rev (String.split_on_char '\n' text) with
        | "" :: "], \"displayTimeUnit\": \"ms\"}" :: rest -> (
            match List.rev rest with
            | "{\"traceEvents\": [" :: lines -> lines
            | _ -> Alcotest.failf "%s: no opening line" path)
        | _ -> Alcotest.failf "%s: no closing line" path
      in
      check_int (path ^ ": one line per trace event") (List.length events)
        (List.length lines);
      List.iteri
        (fun i (line, e) ->
          let sep = if i = List.length events - 1 then "" else "," in
          Alcotest.(check string)
            (Printf.sprintf "%s: line %d" path (i + 2))
            (Json.to_string ~indent:0 e ^ sep)
            line)
        (List.combine lines events))
    [ fixture; "../examples/batch_session.jsonl" ]

(* Pre-timestamp logs (ts_ns = 0 everywhere) still export: instants
   fall back to sequence numbers, one microsecond apart. *)
let test_trace_export_legacy_log () =
  let s = load_fixture () in
  let stripped =
    List.filter_map
      (fun e ->
        if e.E.kind = "span" then None
        else Some { e with E.ts_ns = 0.; E.ctx = [] })
      s.S.events
  in
  let j = export stripped in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" j) Json.to_list)
  in
  let instants =
    List.filter (fun e -> Json.to_str (field "ph" e) = Some "i") events
  in
  check_int "every event became an instant" (List.length stripped)
    (List.length instants);
  let ts =
    List.map (fun e -> Option.get (num (field "ts" e))) instants
  in
  check_bool "fallback timestamps strictly increase" true
    (List.for_all2 ( < ) ts (List.tl ts @ [ infinity ]))

let () =
  Alcotest.run "analytics"
    [
      ( "sessions",
        [
          Alcotest.test_case "load the golden fixture" `Quick
            test_load_fixture;
          Alcotest.test_case "tolerant truncated log" `Quick
            test_tolerant_truncated_log;
          Alcotest.test_case "tolerant rejects mid-file garbage" `Quick
            test_tolerant_rejects_mid_file_garbage;
        ] );
      ( "report",
        [
          Alcotest.test_case "row matches the raw events" `Quick
            test_report_matches_fixture_events;
          Alcotest.test_case "renderings" `Quick test_report_renderings;
          Alcotest.test_case "batch fixture aggregates" `Quick
            test_batch_fixture_report;
          Alcotest.test_case "e4 run vs report vs golden" `Quick
            test_e4_report_matches_run_and_golden;
        ] );
      ( "trace",
        [
          Alcotest.test_case "re-parses and nests" `Quick
            test_trace_export_reparses_and_nests;
          Alcotest.test_case "legacy log fallback" `Quick
            test_trace_export_legacy_log;
          Alcotest.test_case "one event per line" `Quick
            test_trace_export_one_event_per_line;
        ] );
    ]
