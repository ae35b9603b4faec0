(** Process-wide observability: counters, latency histograms, gauges
    and hierarchical spans with pluggable sinks.

    One registry implementation serves all three metric kinds, each
    with its own table. {!Snapshot.capture} is the one reader of every
    series' value (the [--metrics] report, bench snapshots and a
    recorded router's closing [gauges] event all render a capture), and
    a completed span reaches consumers only through the installed
    {!sink}: nothing is buffered.

    The registry is global and zero-dependency (monotonic-ish time via a
    pluggable clock, [Unix.gettimeofday] by default). Instrumented code
    pays a single [if enabled] branch per event while the layer is
    disabled, so it is safe to leave instrumentation in hot paths;
    recording only happens after {!enable}.

    Recording is sharded per domain: each series keeps one private
    shard per domain that touches it ([Domain.DLS]), so counter
    increments and histogram observations never take a lock and never
    race between domains. Reads merge the shards lazily — exact once
    worker domains are joined, best-effort (racy-but-safe stale reads)
    while they run.

    Naming scheme (see DESIGN.md §Observability): counters and spans are
    dot-separated, [<subsystem>.<event>], e.g. [llm.calls.synthesize],
    [pipeline.verification_attempts], [bdd.nodes_allocated]. Span
    latencies are recorded automatically as histograms named by the full
    span path, e.g. [pipeline.route_map_update.disambiguate]. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val subscribe_state : (bool -> unit) -> unit
(** [subscribe_state f] calls [f] immediately with the current state and
    again on every {!enable}/{!disable} transition. Used to wire
    external hooks (e.g. the BDD allocation hook) so that they cost
    nothing while the layer is off. *)

val set_clock : (unit -> float) -> unit
(** Replace the time source (seconds, monotonically non-decreasing).
    Default: [Unix.gettimeofday] — wall-clock, so span latencies include
    time spent blocked or sleeping (CPU time would hide it). Tests
    substitute a deterministic clock. *)

val now : unit -> float
(** The current reading of the (pluggable) clock, in seconds. The flight
    recorder stamps events with it so a deterministic test clock makes
    event timestamps deterministic too. *)

val reset : unit -> unit
(** Zero every counter, histogram and pushed gauge, drop dynamically
    created labeled series, restart the span sequence counter, clear
    the open-span stack and re-anchor the span start-offset origin.
    Zero-label metric registrations, gauge collectors, sinks,
    subscribers and the enabled state are kept. *)

(** Metric dimensions. A label set is a list of [key, value] pairs
    (canonically sorted by key); a labeled metric is registered under
    [name{k="v",...}], so the unlabeled API is exactly the zero-label
    case and labeled series flow through snapshots, reports and the
    bench diff as ordinary metrics with richer names. *)
module Labels : sig
  type t = (string * string) list

  val full_name : string -> t -> string
  (** [base] alone for the empty set, [base{k="v",k2="v2"}] otherwise,
      keys sorted, with double quotes and backslashes escaped inside
      values. *)
end

(** Monotonic event counters. *)
module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter with this name. [make] is
      idempotent: a second call with the same name returns the same
      counter. Equivalent to [labeled name []]. *)

  val labeled : string -> (string * string) list -> t
  (** [labeled base kvs] registers (or looks up) one series of the
      [base] family per distinct label set. Idempotent per label set,
      and atomic under concurrent registration: two domains racing on
      the same (base, labels) receive the same series. The label list
      is canonicalized, so order does not matter. *)

  val incr : ?by:int -> t -> unit
  (** No-op while the layer is disabled. Lock-free: writes this
      domain's private shard of the series. *)

  val value : t -> int
  (** Sum over all shards. Exact when no other domain is concurrently
      incrementing; otherwise a best-effort (never torn) live read. *)

  val name : t -> string
  (** The full registered name, labels encoded. *)

  val base_name : t -> string
  val labels : t -> Labels.t
  val find : string -> t option
  val find_labeled : string -> (string * string) list -> t option
end

(** Latency histograms over fixed exponential buckets of nanoseconds
    (1us, 10us, ..., 10s, +inf). Sharded per domain like counters. *)
module Histogram : sig
  type t

  val make : string -> t
  (** Idempotent, like {!Counter.make}. *)

  val labeled : string -> (string * string) list -> t
  (** One series per label set, like {!Counter.labeled}. *)

  val observe_ns : t -> float -> unit
  (** No-op while the layer is disabled. Lock-free, like
      {!Counter.incr}. *)

  val count : t -> int
  val sum_ns : t -> float
  val max_ns : t -> float

  val buckets : t -> (float * int) list
  (** [(upper_bound_ns, cumulative_count)] pairs; the last upper bound
      is [infinity]. *)

  val name : t -> string
  val base_name : t -> string
  val labels : t -> Labels.t
  val find : string -> t option
  val find_labeled : string -> (string * string) list -> t option
end

(** Point-in-time samples: pushed with {!Gauge.set} or pulled from a
    collector closure on every read. Built-in collectors sample GC
    pressure ([runtime.gc.*]); [lib/parallel] and the engine register
    pool-occupancy and BDD-manager collectors. Gauges appear in every
    snapshot but are excluded from {!Snapshot.equal} (they are ambient
    state, not run state). *)
module Gauge : sig
  type t

  val make : string -> t
  (** Idempotent, like {!Counter.make}. *)

  val collector : string -> (unit -> float) -> t
  (** [collector name f] registers a gauge whose value is [f ()] at
      every read. A raising collector keeps the last good sample. *)

  val set : t -> float -> unit
  (** No-op while the layer is disabled (collectors sample anyway). *)

  val value : t -> float
  val name : t -> string
  val base_name : t -> string
  val labels : t -> Labels.t
  val find : string -> t option

  val sample_all : unit -> (string * float) list
  (** Every registered gauge, sampled, sorted by full name. *)
end

(** A completed span. *)
module Span : sig
  type t = {
    path : string; (* dotted path including enclosing spans *)
    depth : int; (* 0 = root *)
    start_ns : float; (* begin offset from the origin of the last reset *)
    duration_ns : float;
    seq : int; (* completion order, 0-based since last reset *)
  }
end

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span. While disabled this is
    exactly [f ()]. While enabled the span nests under the innermost
    open span, its duration is recorded into a histogram named by the
    span path, and the span is forwarded to the current sink — including
    when [f] raises. The sink is the only consumer of completed spans. *)

val current_path : unit -> string
(** The dotted path of the innermost open span, or [""] when no span is
    open (or the layer is disabled). Used by the flight recorder to
    correlate events with span latencies. *)

(** Where completed spans go: [--trace] installs {!text_sink} and a
    recording installs [Telemetry.span_sink], which mirrors each span
    into the event log. *)
type sink = { on_span : Span.t -> unit }

val silent : sink
(** The default: completed spans feed their histograms and go nowhere
    else. *)

val text_sink : Format.formatter -> sink
(** One indented line per span as it completes (children close before
    their parents, as in any close-order trace). *)

val set_sink : sink -> unit

val add_sink : sink -> unit
(** [add_sink s] composes [s] onto the current sink: each span goes to
    the current sink, then to [s]. So e.g. the flight recorder can
    capture spans without displacing a trace printer the user asked
    for. *)

val pp_report : Format.formatter -> unit -> unit
(** Renders {!Snapshot.capture}: every non-zero counter, every gauge,
    then every non-empty histogram (span paths and explicit histograms
    alike) with its count, total, mean and max. *)

(** A frozen copy of the registry's aggregates, serializable to the
    stable schema used by bench snapshots ([BENCH.json]) and compared
    by [clarify obs diff]. *)
module Snapshot : sig
  type hist = {
    count : int;
    sum_ns : float;
    max_ns : float;
    buckets : (float * int) list;
        (** [(upper_bound_ns, cumulative_count)]; the overflow bound is
            [infinity], encoded in JSON as the string ["inf"]. *)
  }

  type t = {
    counters : (string * int) list; (* sorted by name, non-zero only *)
    gauges : (string * float) list; (* sorted by name, every series *)
    histograms : (string * hist) list;
  }

  val capture : unit -> t
  (** Freeze every non-zero counter, every gauge (collectors sampled
      now) and every non-empty histogram, merging per-domain shards.
      {!pp_report} renders one. *)

  val mean_ns : hist -> float

  val equal : t -> t -> bool
  (** Counters and histograms only: gauges are point-in-time samples
      and would break the serial-vs-parallel determinism gates. *)

  val to_json : t -> Json.t

  val of_json : Json.t -> (t, string) result
  (** Inverse of {!to_json}: [of_json (to_json s) = Ok s]. Snapshots
      written before gauges existed load with [gauges = []]. *)
end
