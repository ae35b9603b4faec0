(** A recorded session: one JSONL flight-recorder log loaded back
    whole as events, with enough identity for aggregation. It is the
    whole-file reader the tests hold {!Stream}'s incremental reader to;
    both apply the tolerant final-line rule of
    {!Telemetry.parse_events}. *)

type t = {
  name : string; (* file basename without extension, e.g. "e4_R1" *)
  path : string;
  events : Telemetry.Event.t list;
}

val router : t -> string
(** The router the session ran for: the first [ctx] ["router"] label in
    its events ({!Telemetry.with_context}), else the session name. *)

val load_file : ?tolerant:bool -> string -> (t, string) result
(** Parses with {!Telemetry.parse_events}: [tolerant] (default [false])
    additionally accepts a log whose {e final} line is truncated or
    malformed (a crashed or still-running recorder) by dropping that
    line; garbage anywhere earlier is still an error. *)

val expand_paths : string list -> string list
(** Expand arguments into log files: a directory contributes its
    [*.jsonl] files sorted by name (so downstream reports are
    byte-stable regardless of filesystem readdir order), anything else
    passes through unchanged. *)

val load : ?tolerant:bool -> string list -> (t list, string) result
(** Load several logs. A directory argument contributes its [*.jsonl]
    files in name order; anything else is taken as a log file. *)
