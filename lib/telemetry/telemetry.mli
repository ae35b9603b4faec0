(** The flight recorder and the bench-snapshot regression gate.

    A recording session appends one JSONL event per pipeline
    interaction — intent, classifier verdict, every LLM exchange
    (including injected faults), spec, verifier verdicts, every
    disambiguation question with its answer, binary-search probes, and
    the final placement — so that any session can be replayed
    bit-for-bit ({!Clarify.Replay}) and any bug report is a
    reproducible artifact.

    Like [lib/obs] this is a leaf library (depends on [json] and [obs]
    only): emitters render domain values to strings/JSON themselves.
    See DESIGN.md §Observability for the event schema. *)

(** One recorded interaction. *)
module Event : sig
  type t = {
    seq : int; (* 0-based, per recording session *)
    kind : string; (* e.g. "session_start", "llm_synthesize" *)
    span : string; (* active {!Obs} span path at emission, or "" *)
    ts_ns : float; (* nanoseconds since the recorder was installed *)
    ctx : (string * string) list; (* ambient {!with_context} labels *)
    fields : (string * Json.t) list; (* kind-specific payload *)
  }

  val to_json : t -> Json.t
  (** [ts_ns] is always serialized; [ctx] only when non-empty, so logs
      recorded outside any context keep their old shape. *)

  val of_json : Json.t -> (t, string) result
  (** Missing [ts_ns]/[ctx] (logs from before they existed) default to
      [0.] and [[]]. *)

  val matches : t -> t -> bool
  (** Replay equivalence: same [kind] and same [fields], ignoring [seq],
      [span], timestamps, context and the fields a replay cannot
      reproduce (["fault"]: the replayed LLM feeds responses from the
      log, so it does not know which fault produced them; token
      estimates, absent from pre-cost-accounting logs). *)

  val field : string -> t -> Json.t option
  val str_field : string -> t -> string option
  val int_field : string -> t -> int option
end

val recording : unit -> bool
(** Is a recorder installed? Emitters use this to skip building
    expensive payloads; {!emit} is a no-op either way. *)

val emit : kind:string -> (unit -> (string * Json.t) list) -> unit
(** Append one event. The payload thunk is only forced while recording,
    so instrumentation is free when no recorder is installed. *)

val with_context : (string * string) list -> (unit -> 'a) -> 'a
(** [with_context kvs f] stamps [kvs] (appended to any enclosing
    context) onto every event emitted during [f], e.g.
    [("router", "R1")] around one router's evaluation run. Restored on
    exit, including on raise. *)

val record_to_channel : out_channel -> unit
(** Install a recorder that writes one JSON object per line, flushed
    after every event (a crash loses nothing already emitted). *)

val with_channel_recorder : out_channel -> (unit -> 'a) -> 'a
(** Run [f] with a fresh channel recorder installed, restoring the
    previously installed recorder (if any) afterwards — including on
    raise. The channel is not closed. *)

val record_to_memory : unit -> unit -> Event.t list
(** Install an in-memory recorder; the returned thunk yields the events
    recorded so far, oldest first. *)

val with_memory_recorder : (unit -> 'a) -> 'a * Event.t list
(** Run [f] under a fresh in-memory recorder, restoring the previously
    installed recorder (if any) afterwards — including on raise, where
    the events are lost with the exception. *)

val stop : unit -> unit
(** Uninstall the current recorder (the channel is not closed). *)

val span_sink : unit -> Obs.sink
(** An {!Obs} sink that mirrors each completed span into the event log
    as a [kind="span"] event (fields [path], [depth], [start_ns],
    [duration_ns], [span_seq]), so a recording carries its own timing
    tree for [clarify trace export]. Install with [Obs.add_sink].
    Replay filters these events out: span timings are wall-clock. *)

val parse_events : ?tolerant:bool -> string -> (Event.t list, string) result
(** Parse a JSONL event log; blank lines are skipped and a malformed
    line is an error ["line N: ..."]. [tolerant] (default [false], as
    replay reads logs) additionally accepts a log whose {e final}
    content line is truncated or malformed — a crashed or still-running
    recorder — by dropping that line; garbage anywhere earlier is still
    an error. *)

val load_file : string -> (Event.t list, string) result

(** Machine-readable bench snapshots ([bench/main.exe --json]) and the
    [clarify obs diff] regression gate. *)
module Bench : sig
  val schema : string
  (** ["clarify-bench/1"], embedded in every snapshot file. *)

  type experiment = {
    snapshot : Obs.Snapshot.t; (* counters + latency histograms *)
    events : int; (* flight-recorder events emitted *)
  }

  type t = {
    domains : int;
        (** Worker-domain count the snapshot was taken at ([--jobs] /
            [CLARIFY_JOBS]); 1 when reading pre-parallelism files.
            [clarify obs diff] refuses to compare snapshots taken at
            different parallelism — timings would not be comparable. *)
    experiments : (string * experiment) list; (* e.g. "E1" .. "E4" *)
    benchmarks : (string * float) list;
        (** Bench leg name -> its value: ns per run for a timed leg (the
            fastest of its attempts, through the bench's one clock
            helper), a plain number for a count or ratio leg
            ([batch/questions-*], [obs/disambig-w128-overhead],
            [fleet/e5-skewed-p99-p50]). *)
  }

  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result
  val of_string : string -> (t, string) result
  val load_file : string -> (t, string) result

  (** One compared metric. Metrics live in a flat namespace:
      [exp.<E>.counter.<name>], [exp.<E>.gauge.<name>],
      [exp.<E>.hist.<path>.mean_ns], [bench.<name>.ns_per_run].
      Gauge entries are informational — point-in-time ambient state
      (GC words, BDD manager sizes) rides along for visibility but
      never regresses a diff. *)
  type delta = {
    metric : string;
    old_value : float option; (* [None]: only in the new snapshot *)
    new_value : float option; (* [None]: only in the old snapshot *)
    change : float; (* (new - old) / old; 0 when a side is missing *)
    regressed : bool; (* change > threshold *)
  }

  val default_threshold : float
  (** 0.20: a metric may grow by 20% before the gate trips. *)

  val diff : ?threshold:float -> t -> t -> delta list
  (** Every metric of either snapshot, old-snapshot order first. A
      metric regresses when it grows by more than [threshold]
      (fractional); metrics present on only one side never regress. *)

  val regressed : delta list -> bool

  val pp_diff : ?all:bool -> Format.formatter -> delta list -> unit
  (** A one-line [N regressed / N improved / N unchanged] summary,
      then the changed metrics only (plus added/removed) unless
      [all]. *)
end
