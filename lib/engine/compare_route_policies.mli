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
  ?pool:Parallel.Pool.t ->
  db:Config.Database.t ->
  target:Config.Route_map.t ->
  Config.Route_map.stanza ->
  (int * difference) list
(** Every insertion position [i] (0-based, ascending) at which inserting
    the stanza at [i] behaves differently from inserting it at [i + 1],
    with one witness route per position — the full boundary sweep the
    disambiguators binary-search over. By definition, position [i] is a
    boundary exactly when {!first_difference} of the target with the
    stanza inserted at [i] and at [i + 1] finds one, and the witness is
    the one it finds; the sweep reproduces that byte-for-byte at the
    cost of one compilation.

    This is the route-map instance of {!First_match.Sweep}: the target
    is symbolically executed once, projected onto [match(stanza)]
    ({!Symbolic.Route_ctx.exec} [~candidates]), so stanzas the
    candidate cannot meet are never compiled. Position [i]'s region is
    [cell_i.guard ∧ match(stanza)]; a witness of it is handled by the
    stanza when inserted at [i] and by stanza [i] when inserted at
    [i + 1], so the two outcomes are those two stanzas' actions and
    sets applied to it and each position costs the same whatever the
    width. [~pool] shards the positions (see {!First_match.Sweep}). *)

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
    projected onto the union of the candidates' match regions. Both
    sweeps take the target plus every candidate as their symbolic
    scope, so witnesses are independent of how the work is sharded. *)

val pp_difference : Format.formatter -> difference -> unit
(** Rendered in the paper's OPTION 1 / OPTION 2 style. *)
