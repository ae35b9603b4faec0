(* Chrome-trace (chrome://tracing, Perfetto) export.

   The target format is the Trace Event JSON of the Chromium project:
   an object {"traceEvents": [...], "displayTimeUnit": "ms"} whose
   events carry ph (event type), ts/dur (microseconds), pid/tid
   (numeric lanes) and name. Span mirror events become complete ("X")
   events; every other recorded event becomes an instant ("i") tick, so
   questions and LLM exchanges line up against the phase that asked
   them. Processes map to routers (the ctx "router" label) and threads
   to the root segment of the span path, with "M"etadata events naming
   both.

   The writer streams: one trace event is written per recorded event,
   so a multi-gigabyte fleet log never has to fit in memory. Metadata
   events are written at first sight of each lane, just before the
   event that needed it — position inside traceEvents is irrelevant to
   the format. *)

module E = Telemetry.Event

module Writer = struct
  type t = {
    oc : out_channel;
    process : string;
    (* Stable small integers per (process, thread) name. *)
    mutable procs : (string * int) list;
    mutable threads : ((int * string) * int) list;
    mutable first : bool;
    mutable closed : bool;
  }

  let create ?(process = "clarify") oc =
    output_string oc "{\"traceEvents\": [\n";
    { oc; process; procs = []; threads = []; first = true; closed = false }

  let emit w j =
    if not w.first then output_string w.oc ",\n";
    w.first <- false;
    output_string w.oc "  ";
    output_string w.oc (Json.to_string j)

  let meta_event w ~name ~pid ?tid value =
    emit w
      (Json.Obj
         ([
            ("name", Json.String name);
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
          ]
         @ (match tid with None -> [] | Some t -> [ ("tid", Json.Int t) ])
         @ [ ("args", Json.Obj [ ("name", Json.String value) ]) ]))

  let pid_of w proc =
    match List.assoc_opt proc w.procs with
    | Some pid -> pid
    | None ->
        let pid = List.length w.procs + 1 in
        w.procs <- w.procs @ [ (proc, pid) ];
        meta_event w ~name:"process_name" ~pid proc;
        pid

  let tid_of w ~pid thread =
    match List.assoc_opt (pid, thread) w.threads with
    | Some tid -> tid
    | None ->
        let tid =
          1 + List.length (List.filter (fun ((p, _), _) -> p = pid) w.threads)
        in
        w.threads <- w.threads @ [ ((pid, thread), tid) ];
        meta_event w ~name:"thread_name" ~pid ~tid thread;
        tid

  (* The lane of an event: [(pid, tid)], minting (and writing the
     metadata of) a new process or thread on first sight. *)
  let lane w ~proc ~thread =
    let pid = pid_of w proc in
    (pid, tid_of w ~pid thread)

  let root_segment path =
    match String.index_opt path '.' with
    | Some i -> String.sub path 0 i
    | None -> path

  (* Small scalar payload fields make useful hover args; long strings
     (configs, prompts) would bloat the trace. *)
  let args_of_fields fields =
    List.filter
      (fun (_, v) ->
        match v with
        | Json.Int _ | Json.Float _ | Json.Bool _ -> true
        | Json.String s -> String.length s <= 80
        | _ -> false)
      fields

  let us ns = ns /. 1e3

  (* A span mirror event without its timing fields writes nothing. *)
  let span_event w ~proc e =
    match
      (E.str_field "path" e, E.field "start_ns" e, E.field "duration_ns" e)
    with
    | Some path, Some start_j, Some dur_j ->
        let f = function
          | Json.Float f -> f
          | Json.Int i -> float_of_int i
          | _ -> 0.
        in
        let pid, tid = lane w ~proc ~thread:(root_segment path) in
        emit w
          (Json.Obj
             [
               ("name", Json.String path);
               ("ph", Json.String "X");
               ("ts", Json.Float (us (f start_j)));
               ("dur", Json.Float (us (f dur_j)));
               ("pid", Json.Int pid);
               ("tid", Json.Int tid);
               ( "args",
                 Json.Obj
                   [
                     ( "depth",
                       Json.Int
                         (Option.value ~default:0 (E.int_field "depth" e)) );
                   ] );
             ])
    | _ -> ()

  let instant_event w ~proc e =
    let pid, tid = lane w ~proc ~thread:"events" in
    (* Logs from before event timestamps existed have ts_ns = 0; spread
       those events out by sequence number (1 us apart) so they remain
       distinguishable on the timeline. *)
    let ts = if e.E.ts_ns > 0. then us e.E.ts_ns else float_of_int e.E.seq in
    emit w
      (Json.Obj
         [
           ("name", Json.String e.E.kind);
           ("ph", Json.String "i");
           ("ts", Json.Float ts);
           ("pid", Json.Int pid);
           ("tid", Json.Int tid);
           ("s", Json.String "t");
           ("args", Json.Obj (args_of_fields e.E.fields));
         ])

  let event w e =
    let proc =
      Option.value ~default:w.process (List.assoc_opt "router" e.E.ctx)
    in
    if e.E.kind = "span" then span_event w ~proc e else instant_event w ~proc e

  let close w =
    if not w.closed then begin
      w.closed <- true;
      output_string w.oc "\n], \"displayTimeUnit\": \"ms\"}\n";
      flush w.oc
    end
end
