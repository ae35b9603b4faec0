(** Behavioural diff of two route-maps — the analogue of Batfish's
    [compareRoutePolicies].

    The maps may live in different databases (e.g. two candidate
    insertions of a synthesized stanza, each carrying freshly named
    ancillary lists). Differences are reported as concrete input routes
    together with both outcomes; community-transform differences are
    exposed by targeted sampling of separating community sets. *)

type difference = {
  route : Bgp.Route.t;
  result_a : Config.Semantics.route_result;
  result_b : Config.Semantics.route_result;
  stanza_a : int option; (* seq of the handling stanza; None = implicit *)
  stanza_b : int option;
}

val compare :
  ?limit:int ->
  db_a:Config.Database.t ->
  db_b:Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.t ->
  difference list
(** All behavioural differences, one example per differing pair of
    execution cells, capped at [limit]. *)

val first_difference :
  db_a:Config.Database.t ->
  db_b:Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.t ->
  difference option

val equal_behavior :
  db_a:Config.Database.t ->
  db_b:Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.t ->
  bool

val adjacent_insertions :
  ?naive:bool ->
  ?pool:Parallel.Pool.t ->
  db:Config.Database.t ->
  target:Config.Route_map.t ->
  Config.Route_map.stanza ->
  (int * difference) list
(** Every insertion position [i] (0-based, ascending) at which inserting
    the stanza at [i] behaves differently from inserting it at [i + 1],
    with one witness route per position — the full boundary sweep the
    disambiguators binary-search over.

    By default the sweep is incremental: the target map is symbolically
    executed once and position [i]'s candidate region is
    [cell_i.guard ∧ match(stanza)], so the whole sweep costs one
    compilation instead of the naive [n] two-map comparisons. The
    execution is projected onto [match(stanza)]
    ({!Symbolic.Route_ctx.exec} [~candidates]): stanzas the candidate
    cannot meet are never compiled, so the sweep's BDD work follows the
    stanzas it overlaps rather than the width. A witness
    of that region is handled by the stanza when inserted at [i] and by
    stanza [i] when inserted at [i + 1], so the two outcomes are those
    two stanzas' actions and sets applied to it: each position costs
    the same whatever the width. [~naive] forces either strategy
    explicitly; when omitted, {!Boundary_mode.naive_requested} decides
    (the [CLARIFY_NAIVE_BOUNDARIES] escape hatch). Both strategies
    return identical results — the property suite enforces
    byte-equality.

    [~pool] compiles the context and partition once into a frozen base
    manager, then splits the positions into stealable slices of 8, each
    walked by a worker under a private delta on that base with its own
    fork of the context; results are re-assembled in position order. *)

type batch_sweep = {
  per_candidate : (int * difference) list array;
      (** candidate [k]'s boundary sweep against the original target,
          exactly what {!adjacent_insertions} would return for it *)
  overlaps : (int * int) list;
      (** candidate pairs [i < j] whose match regions intersect *)
  conflicts : (int * int * difference) list;
      (** overlapping pairs with genuinely different behaviour on some
          shared route, with a differential witness *)
}

val batch_insertions :
  ?pool:Parallel.Pool.t ->
  db:Config.Database.t ->
  target:Config.Route_map.t ->
  Config.Route_map.stanza list ->
  batch_sweep
(** Multi-stanza sweep for batch synthesis: boundary sweeps for every
    candidate plus the pairwise inter-intent overlap/conflict graph,
    all against one compiled first-match partition of [target],
    projected onto the union of the candidates' match regions (under
    [~pool], compiled once into a frozen base that every task forks). The
    symbolic scope always includes every candidate, so witnesses are
    independent of how the work is sharded. Increments
    {!Metrics.batch_conflict_pairs} by the number of conflicts. *)

val pp_difference : Format.formatter -> difference -> unit
(** Rendered in the paper's OPTION 1 / OPTION 2 style. *)
