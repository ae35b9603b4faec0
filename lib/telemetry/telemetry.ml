(* The flight recorder: a process-global JSONL event log of every
   pipeline interaction, plus the machine-readable bench snapshot
   schema and its regression diff.

   Like lib/obs this is a leaf library (json + obs only): emitters
   convert domain values to strings/JSON themselves, so every layer of
   the system can record without dependency cycles. *)

(* ------------------------------------------------------------------ *)
(* Events                                                             *)
(* ------------------------------------------------------------------ *)

module Event = struct
  type t = {
    seq : int;
    kind : string;
    span : string; (* active Obs span path at emission; informational *)
    ts_ns : float; (* offset from recorder start; informational *)
    ctx : (string * string) list; (* ambient labels, e.g. router=R1 *)
    fields : (string * Json.t) list;
  }

  let to_json e =
    Json.Obj
      ([
         ("seq", Json.Int e.seq);
         ("kind", Json.String e.kind);
         ("span", Json.String e.span);
         ("ts_ns", Json.Float e.ts_ns);
       ]
      @ (if e.ctx = [] then []
         else
           [
             ( "ctx",
               Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.ctx) );
           ])
      @ [ ("data", Json.Obj e.fields) ])

  let of_json j =
    let str name = Option.bind (Json.member name j) Json.to_str in
    let ts_ns =
      match Json.member "ts_ns" j with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> 0.
    in
    let ctx =
      match Json.member "ctx" j with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
            kvs
      | _ -> []
    in
    match
      ( Option.bind (Json.member "seq" j) Json.to_int,
        str "kind",
        str "span",
        Json.member "data" j )
    with
    | Some seq, Some kind, Some span, Some (Json.Obj fields) ->
        Ok { seq; kind; span; ts_ns; ctx; fields }
    | Some seq, Some kind, Some span, None ->
        Ok { seq; kind; span; ts_ns; ctx; fields = [] }
    | _ -> Error "event: expected {seq, kind, span, data}"

  (* Fields that legitimately differ between a recording and its
     replay: the replayed mock LLM feeds responses from the log, so it
     cannot know which fault (if any) produced them. Token estimates
     are kept out too so logs recorded before cost accounting existed
     still replay cleanly. *)
  let replay_ignored_fields = [ "fault"; "prompt_tokens"; "completion_tokens" ]

  (* Replay equivalence: same kind and same data, ignoring the fields
     above and the (informational) span path and sequence number. *)
  let matches a b =
    let keep (name, _) = not (List.mem name replay_ignored_fields) in
    a.kind = b.kind
    && Json.equal
         (Json.Obj (List.filter keep a.fields))
         (Json.Obj (List.filter keep b.fields))

  let field name e = List.assoc_opt name e.fields
  let str_field name e = Option.bind (field name e) Json.to_str
  let int_field name e = Option.bind (field name e) Json.to_int
end

(* ------------------------------------------------------------------ *)
(* The recorder                                                       *)
(* ------------------------------------------------------------------ *)

type recorder = { write : Event.t -> unit; t0 : float; mutable seq : int }

(* Process-wide recording volume, visible as built-in gauge collectors
   (telemetry.log.events / telemetry.log.bytes) so log growth shows up
   in [--metrics] and in each recorded router's closing [gauges] event.
   Both run from process start. Events counts every recorded event
   (memory recorders included); bytes counts what channel recorders
   actually wrote, across all domains. *)
let recorded_events = Atomic.make 0
let recorded_bytes = Atomic.make 0

let () =
  ignore
    (Obs.Gauge.collector "telemetry.log.events" (fun () ->
         float_of_int (Atomic.get recorded_events)));
  ignore
    (Obs.Gauge.collector "telemetry.log.bytes" (fun () ->
         float_of_int (Atomic.get recorded_bytes)))

(* The installed recorder and the ambient context are domain-local:
   each worker domain records to its own log (or not at all) without
   clobbering the recorder of the main domain or of sibling workers —
   e.g. the parallel E4 evaluation writes one per-router log from each
   worker concurrently. *)
let current_key : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key
let recording () = Option.is_some !(current ())
let stop () = current () := None

(* Ambient context labels, stamped onto every event emitted inside a
   [with_context] scope. A dynamically scoped stack rather than an
   argument so call sites deep in the pipeline (the LLM, the
   disambiguators) need no plumbing to learn which router or experiment
   they are running for. *)
let context_key : (string * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let context () = Domain.DLS.get context_key

let with_context kvs f =
  let context = context () in
  let saved = !context in
  context := saved @ kvs;
  Fun.protect ~finally:(fun () -> context := saved) f

let emit ~kind fields =
  match !(current ()) with
  | None -> ()
  | Some r ->
      let e =
        {
          Event.seq = r.seq;
          kind;
          span = Obs.current_path ();
          ts_ns = (Obs.now () -. r.t0) *. 1e9;
          ctx = !(context ());
          fields = fields ();
        }
      in
      r.seq <- r.seq + 1;
      Atomic.incr recorded_events;
      r.write e

let channel_recorder oc =
  {
    seq = 0;
    t0 = Obs.now ();
    write =
      (fun e ->
        let line = Json.to_string ~indent:0 (Event.to_json e) in
        output_string oc line;
        output_char oc '\n';
        flush oc;
        ignore (Atomic.fetch_and_add recorded_bytes (String.length line + 1)));
  }

let record_to_channel oc = current () := Some (channel_recorder oc)

let with_channel_recorder oc f =
  let current = current () in
  let saved = !current in
  current := Some (channel_recorder oc);
  Fun.protect ~finally:(fun () -> current := saved) f

let record_to_memory () =
  let acc = ref [] in
  current ()
  := Some { seq = 0; t0 = Obs.now (); write = (fun e -> acc := e :: !acc) };
  fun () -> List.rev !acc

let with_memory_recorder f =
  let current = current () in
  let saved = !current in
  let events = record_to_memory () in
  let restore () = current := saved in
  match f () with
  | v ->
      restore ();
      (v, events ())
  | exception e ->
      restore ();
      raise e

(* An Obs sink that mirrors completed spans into the event log as
   kind="span" events, so a recorded session carries its own timing
   tree and [trace export] can rebuild a flame graph from the log
   alone. Replay filters these out: span timings are wall-clock and
   never reproduce exactly. *)
let span_sink () =
  {
    Obs.on_span =
      (fun s ->
        emit ~kind:"span" (fun () ->
            [
              ("path", Json.String s.Obs.Span.path);
              ("depth", Json.Int s.Obs.Span.depth);
              ("start_ns", Json.Float s.Obs.Span.start_ns);
              ("duration_ns", Json.Float s.Obs.Span.duration_ns);
              ("span_seq", Json.Int s.Obs.Span.seq);
            ]));
  }

(* Tolerant parsing skips a malformed FINAL line only: a crashed or
   still-running recorder leaves at most one truncated line at the end
   of the file, while garbage earlier in the log means the file is not
   a recording and is rejected loudly. *)
let parse_events ?(tolerant = false) src =
  let blank l = String.trim l = "" in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when blank line -> go (lineno + 1) acc rest
    | line :: rest -> (
        match Result.bind (Json.parse line) Event.of_json with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error _ when tolerant && List.for_all blank rest -> Ok (List.rev acc)
        | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
  in
  go 1 [] (String.split_on_char '\n' src)

let load_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      parse_events src

(* ------------------------------------------------------------------ *)
(* Bench snapshots and the regression gate                            *)
(* ------------------------------------------------------------------ *)

module Bench = struct
  let schema = "clarify-bench/1"

  type experiment = { snapshot : Obs.Snapshot.t; events : int }

  type t = {
    domains : int; (* parallelism the snapshot was taken at *)
    experiments : (string * experiment) list;
    benchmarks : (string * float) list; (* name -> ns/run *)
  }

  let to_json t =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("domains", Json.Int t.domains);
        ( "experiments",
          Json.Obj
            (List.map
               (fun (name, e) ->
                 ( name,
                   Json.Obj
                     [
                       ("events", Json.Int e.events);
                       ("metrics", Obs.Snapshot.to_json e.snapshot);
                     ] ))
               t.experiments) );
        ( "benchmarks",
          Json.Obj
            (List.map (fun (name, ns) -> (name, Json.Float ns)) t.benchmarks)
        );
      ]

  let of_json j =
    let ( let* ) r f = Result.bind r f in
    let* () =
      match Option.bind (Json.member "schema" j) Json.to_str with
      | Some s when s = schema -> Ok ()
      | Some s -> Error (Printf.sprintf "unsupported schema %S" s)
      | None -> Error "missing \"schema\""
    in
    let obj name =
      match Json.member name j with
      | Some (Json.Obj fields) -> Ok fields
      | _ -> Error (Printf.sprintf "missing object %S" name)
    in
    let* experiment_fields = obj "experiments" in
    let* experiments =
      List.fold_left
        (fun acc (name, ej) ->
          let* acc = acc in
          let events =
            Option.value ~default:0
              (Option.bind (Json.member "events" ej) Json.to_int)
          in
          match Json.member "metrics" ej with
          | None -> Error (Printf.sprintf "experiment %S: missing metrics" name)
          | Some mj ->
              let* snapshot = Obs.Snapshot.of_json mj in
              Ok ((name, { snapshot; events }) :: acc))
        (Ok []) experiment_fields
      |> Result.map List.rev
    in
    let* bench_fields = obj "benchmarks" in
    let* benchmarks =
      List.fold_left
        (fun acc (name, v) ->
          let* acc = acc in
          match v with
          | Json.Float f -> Ok ((name, f) :: acc)
          | Json.Int i -> Ok ((name, float_of_int i) :: acc)
          | _ -> Error (Printf.sprintf "benchmark %S: not a number" name))
        (Ok []) bench_fields
      |> Result.map List.rev
    in
    (* Absent in pre-parallelism snapshots, which were always serial. *)
    let domains =
      Option.value ~default:1 (Option.bind (Json.member "domains" j) Json.to_int)
    in
    Ok { domains; experiments; benchmarks }

  let of_string s = Result.bind (Json.parse s) of_json

  let load_file path =
    match open_in path with
    | exception Sys_error m -> Error m
    | ic ->
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        of_string src

  (* The diff is computed over a flat metric namespace so that adding a
     new metric class never changes the comparison logic:
       exp.<experiment>.counter.<name>
       exp.<experiment>.gauge.<name>      (informational, never regresses)
       exp.<experiment>.hist.<span path>.mean_ns
       bench.<name>.ns_per_run *)
  let flatten t =
    List.concat_map
      (fun (ename, e) ->
        List.map
          (fun (n, v) ->
            (Printf.sprintf "exp.%s.counter.%s" ename n, float_of_int v))
          e.snapshot.Obs.Snapshot.counters
        @ List.map
            (fun (n, v) -> (Printf.sprintf "exp.%s.gauge.%s" ename n, v))
            e.snapshot.Obs.Snapshot.gauges
        @ List.map
            (fun (n, h) ->
              ( Printf.sprintf "exp.%s.hist.%s.mean_ns" ename n,
                Obs.Snapshot.mean_ns h ))
            e.snapshot.Obs.Snapshot.histograms)
      t.experiments
    @ List.map
        (fun (n, ns) -> (Printf.sprintf "bench.%s.ns_per_run" n, ns))
        t.benchmarks

  (* Gauges are point-in-time ambient state (GC words, BDD manager
     sizes, pool occupancy), not reproducible work counts: they ride
     along in the flat namespace for visibility but never regress a
     diff. *)
  let informational metric =
    let sub = ".gauge." in
    let n = String.length metric and m = String.length sub in
    let rec at i = i + m <= n && (String.sub metric i m = sub || at (i + 1)) in
    at 0

  type delta = {
    metric : string;
    old_value : float option; (* None: metric only in the new snapshot *)
    new_value : float option; (* None: metric only in the old snapshot *)
    change : float; (* (new - old) / old; 0 when either side is missing *)
    regressed : bool;
  }

  let default_threshold = 0.20

  let diff ?(threshold = default_threshold) old_t new_t =
    let old_m = flatten old_t and new_m = flatten new_t in
    let change o n =
      if o = n then 0.
      else if o = 0. then infinity
      else (n -. o) /. o
    in
    let both_and_removed =
      List.map
        (fun (name, o) ->
          match List.assoc_opt name new_m with
          | Some n ->
              let c = change o n in
              {
                metric = name;
                old_value = Some o;
                new_value = Some n;
                change = c;
                regressed = c > threshold && not (informational name);
              }
          | None ->
              {
                metric = name;
                old_value = Some o;
                new_value = None;
                change = 0.;
                regressed = false;
              })
        old_m
    in
    let added =
      List.filter_map
        (fun (name, n) ->
          if List.mem_assoc name old_m then None
          else
            Some
              {
                metric = name;
                old_value = None;
                new_value = Some n;
                change = 0.;
                regressed = false;
              })
        new_m
    in
    both_and_removed @ added

  let regressed deltas = List.exists (fun d -> d.regressed) deltas

  let pp_value fmt = function
    | None -> Format.fprintf fmt "%12s" "-"
    | Some v ->
        if Float.is_integer v && Float.abs v < 1e9 then
          Format.fprintf fmt "%12.0f" v
        else Format.fprintf fmt "%12.1f" v

  let pp_delta fmt d =
    let note =
      match (d.old_value, d.new_value) with
      | Some _, None -> "  (removed)"
      | None, Some _ -> "  (added)"
      | _ -> if d.regressed then "  REGRESSED" else ""
    in
    Format.fprintf fmt "%-64s %a -> %a  %+7.1f%%%s" d.metric pp_value
      d.old_value pp_value d.new_value (100. *. d.change) note

  let pp_diff ?(all = false) fmt deltas =
    let count p = List.length (List.filter p deltas) in
    let regressed_n = count (fun d -> d.regressed) in
    let improved_n = count (fun d -> (not d.regressed) && d.change < 0.) in
    let changed_n =
      count (fun d ->
          d.change <> 0. || d.old_value = None || d.new_value = None)
    in
    Format.fprintf fmt
      "%d regressed / %d improved / %d unchanged (%d metrics compared)@."
      regressed_n improved_n
      (List.length deltas - changed_n)
      (List.length deltas);
    let shown =
      if all then deltas
      else
        List.filter
          (fun d ->
            d.change <> 0. || d.old_value = None || d.new_value = None)
          deltas
    in
    List.iter (fun d -> Format.fprintf fmt "%a@." pp_delta d) shown;
    if regressed_n > 0 then
      Format.fprintf fmt "%d metric(s) regressed@." regressed_n
end
