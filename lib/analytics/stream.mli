(** Streaming session analytics: fold JSONL logs into {!Report.Acc}
    aggregates incrementally, in constant memory per log.

    A {!file} is a tail-follower over one flight-recorder log: each
    {!poll_file} reads only the bytes appended since the previous poll,
    feeds every complete line through {!Report.Acc.add}, and holds back
    a trailing partial or malformed line under the same tolerant rule
    as {!Telemetry.parse_events} (a crashed or still-running recorder leaves
    at most one bad line, at the end; content after a malformed line is
    a fatal error). Peak memory is one accumulator plus one pending
    line per file, independent of log length — where
    {!Session.load_file} slurps the whole log.

    A {!dir} follows every [*.jsonl] in a directory, in sorted name
    order (new files are picked up on every poll), so a live E5 fleet
    run can be watched while routers are still being synthesized.

    Because {!Report.Acc.merge} is associative and file order is
    sorted, {!report_paths} folds file shards across a domain pool and
    still finishes byte-identically to a serial fold — and to the
    {!Session.load_file}-based {!Report.of_sessions}. *)

type file

val open_file : ?on_event:(Telemetry.Event.t -> unit) -> string -> file
(** No I/O happens until the first {!poll_file}. [on_event] is called
    on every parsed event, in log order, in addition to the fold (used
    by the streaming trace export). *)

val poll_file : file -> (int, string) result
(** Read everything appended since the last poll; returns the number
    of new events folded. An error ("line N: ..." garbage mid-file,
    vanished or shrunk file) is sticky: the file stops folding and
    every later poll returns the same error. *)

val file_path : file -> string
val file_name : file -> string (* basename without extension *)

val file_acc : file -> Report.Acc.t
val file_events : file -> int
val file_error : file -> string option

type dir

val open_dir : string -> dir

val poll : dir -> int
(** Rescan the directory for new [*.jsonl] logs, poll every follower,
    and return the number of new events folded (per-file errors are
    sticky and visible via {!file_error}). *)

val files : dir -> file list
(** Sorted by file name. *)

val report_of_dir : dir -> Report.t
(** The report over everything folded so far. Byte-identical to
    [Report.of_sessions] over the same (complete) logs. *)

val fold_file : string -> (string * Report.Acc.t, string) result
(** One-shot streaming fold of a whole log: [(file_name, acc)]. *)

val iter_file : string -> (Telemetry.Event.t -> unit) -> (int, string) result
(** One-shot streaming pass handing every event to the callback (e.g. a
    {!Trace.Writer}); returns the event count. Same tolerant final-line
    rule as the fold. *)

val report_paths :
  ?pool:Parallel.Pool.t -> string list -> (Report.t, string) result
(** One-shot report over logs and/or directories (directories expand to
    their [*.jsonl] files in sorted name order, as in {!Session.load}).
    With a pool, files are folded in parallel and merged in input
    order; the result is byte-identical at every pool size. *)
