(** Observability counters for the symbolic engine. Referencing this
    module also wires the BDD allocation and compile-cache hooks to the
    [obs] lifecycle. *)

val search_filters_calls : Obs.Counter.t
val search_route_policies_calls : Obs.Counter.t
val compare_route_policies_calls : Obs.Counter.t
val compare_acls_calls : Obs.Counter.t

val adjacent_insertions_calls : Obs.Counter.t
(** Boundary sweeps of every {!First_match.Sweep} instance (route-maps,
    ACLs, prefix lists): the single-rule sweeps and the
    [batch_insertions] calls. A conflict-graph pass ([conflict_graph],
    as {!Clarify.Batch} runs one per target) reads no boundary and is
    not counted. *)

val adjacent_contexts : Obs.Counter.t
(** First-match partitions ("contexts") compiled by any
    {!First_match.Sweep} instance: one per sweep of a non-empty target,
    and one per conflict-graph pass, over the candidates' matches. *)

val adjacent_prefix_reuse : Obs.Counter.t
(** Insertion positions whose reachability came from a shared prefix
    execution rather than a fresh two-map re-execution. A
    conflict-graph pass executes no prefix and adds nothing. *)

val witnesses_decoded : Obs.Counter.t
(** Boundary witnesses decoded by any {!First_match.Sweep} instance:
    while a sweep decides whether a position is a boundary, or on
    demand, for a question about to be shown or an eager entry point
    that returns every witness. *)

val boundary_ns : Obs.Histogram.t
(** Wall time of one full boundary sweep; for [lazy_insertions], up to
    the positions, before any witness is decoded on demand, and for
    [batch_insertions], the classification and every read. A
    conflict-graph pass is not observed. *)

val batch_intents : Obs.Counter.t
(** Intents processed by batch synthesis runs ({!Clarify.Batch}). *)

val batch_conflict_pairs : Obs.Counter.t
(** Genuine inter-intent conflict pairs classified by [conflict_graph]
    and [batch_insertions] of any {!First_match.Sweep} instance. *)

val batch_questions_saved : Obs.Counter.t
(** Disambiguation questions a batch run served from its shared answer
    cache instead of asking the user again. *)

val batch_ns : Obs.Histogram.t
(** Wall time of one full batch synthesis run. *)

val bdd_nodes : Obs.Counter.t
val cache_hits : Obs.Counter.t
val cache_misses : Obs.Counter.t

val manager_nodes : Obs.Gauge.t
(** Live nodes in the sampling domain's BDD unique table, collected at
    read time (a snapshot needs no publish step). *)

val manager_memo : Obs.Gauge.t
(** Live entries in the sampling domain's BDD computed table, the one
    memo every operation shares. *)

val manager_cache_entries : Obs.Gauge.t
(** Entries in the sampling domain's symbolic compilation cache. *)

val manager_arena_occupancy : Obs.Gauge.t
(** Fraction of the sampling domain's arena node-store capacity in use. *)

val manager_probe_length : Obs.Gauge.t
(** Mean open-addressing probe length per unique-table lookup in the
    sampling domain's arena. *)

val manager_memo_evictions : Obs.Gauge.t
(** Generation-tag evictions forced by the bounded BDD computed table
    (2{^20} slots by default). *)
