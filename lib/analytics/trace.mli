(** Chrome-trace (chrome://tracing / Perfetto) export of recorded
    sessions.

    Output is the Chromium Trace Event JSON format:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Span mirror
    events ([kind="span"], from {!Telemetry.span_sink}) become complete
    ["X"] events with [ts]/[dur] in microseconds; every other recorded
    event becomes an instant ["i"] tick named by its kind, with small
    scalar payload fields as hover args. Processes map to routers (the
    [ctx] ["router"] label, else [process]) and threads to the root
    segment of the span path, both named via ["M"] metadata events.
    Events with [ts_ns = 0] (logs from before timestamps existed) fall
    back to their sequence number, one microsecond apart. *)

(** The one trace renderer, streaming: events are written as they are
    fed, one compact event per line, so a log never has to fit in
    memory (pair with {!Stream.iter_file}). Lane metadata is written at
    first sight of each lane, just before the event that needed it. *)
module Writer : sig
  type t

  val create : ?process:string -> out_channel -> t
  (** Writes the traceEvents header immediately. [process] (default
      ["clarify"]) names the process lane for events without a router
      context label. *)

  val event : t -> Telemetry.Event.t -> unit
  val close : t -> unit (* writes the footer; idempotent *)
end
