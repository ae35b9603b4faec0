(** A persistent scheduler with deterministic ordering.

    {!map} is observationally [List.map]: results come back in input
    order regardless of the claim order, and the first task
    exception (by input position) is re-raised in the submitting
    domain. The calling domain participates as slot 0; the remaining
    participants are {e persistent} worker domains, spawned once per
    process (lazily, up to the largest pool used so far), parked on a
    condition variable between batches and reused — watch
    [parallel.domains_spawned] stay flat across a multi-batch run.

    Distribution is per item: every participant claims the next
    unclaimed item from one shared atomic cursor until none remain, so
    one straggling item delays only itself while the others keep
    claiming the rest.

    Every worker domain runs under a private BDD manager, so tasks may
    freely build BDDs — but must return only plain data (stats records,
    databases), never BDD values. With [?bdd_base] (a frozen root
    manager) each participant runs under a long-lived delta layered on
    the base, cached per domain and {e reset} — rewound to the base
    boundary, not reallocated — between batches of the same base;
    handles built by the base are valid in every delta, so tasks may
    capture and use them. Without a base, persistent workers run under
    a long-lived scratch root manager, likewise reset per batch,
    preserving the old fresh-domain guarantee that nodes never leak
    across batches. *)

type t

val create : ?domains:int -> unit -> t
(** [create ()] sizes the pool from the [CLARIFY_JOBS] environment
    variable (default 1 when unset or unparsable); [~domains] overrides
    it. Values are clamped to at least 1. Pools are cheap views over
    the process-wide scheduler: creating many pools never spawns extra
    domains beyond the largest [domains] actually used by a {!map}. A
    pool of 1 domain runs everything serially in the calling domain. *)

val domains : t -> int

val serial : t
(** A pool of one domain; [map serial ~f] is [List.map f]. *)

val map :
  ?bdd_base:Symbdd.Bdd.Manager.t -> t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f items] applies [f] to every item across the pool's
    domains and returns the results in input order. Each item is one
    claim; items so cheap that per-claim bookkeeping would dominate
    are better mapped as lists of them.

    [?bdd_base] must be a {e frozen} root manager
    ({!Symbdd.Bdd.Manager.freeze}); see the module docs for the delta
    lifecycle. The serial fallback (one domain, a single item, or a
    nested call from inside a worker task — which runs inline, serial)
    applies the same layering with a fresh delta per call.

    While observability is enabled, each participant runs under a root
    span [domainN] (a separate thread lane in the Chrome-trace export)
    and feeds per-domain labeled series: [parallel.tasks{domain=N}],
    [parallel.task_ns{domain=N}] and [parallel.queue_wait_ns{domain=N}],
    plus [bdd.nodes_allocated{domain=N}] and compile-cache hit/miss
    counters via the worker's BDD hooks; [parallel.park_ns] records how
    long workers slept between batches. Labeled
    handles are acquired per batch (never cached across {!Obs.reset}),
    and slot 0's previous BDD hooks are restored when the batch
    completes.

    If any item raises, the batch still drains, and the exception from
    the smallest input position is re-raised. *)

val in_worker : unit -> bool
(** True while the calling domain is executing inside a {!map} batch
    (including the submitting domain's own participation). Nested
    {!map} calls in that state run serially inline. *)

val spawned_workers : unit -> int
(** Persistent worker domains currently alive (excludes the submitting
    domain). Flat across batches once warmed up. *)

val shutdown : unit -> unit
(** Wake and join every persistent worker domain. Registered [at_exit];
    safe to call repeatedly, and the scheduler respawns workers on the
    next {!map} after a manual shutdown. Must not be called from inside
    a task. *)
