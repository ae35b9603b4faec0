(** Symbolic BGP route space.

    Variable layout: prefix bits 0-31, prefix length 32-37, local-pref
    38-69, metric 70-101, tag 102-133, then one atom variable per
    community in the finite community universe, then one per as-path
    access-list in scope.

    {b Community abstraction.} Expanded community lists match regexes
    against a route's community set, which is unbounded. The modelled
    routes carry communities from a finite universe computed from
    everything in scope: concrete communities in standard lists, set
    clauses and specs, plus a witness of every expanded regex, of every
    pairwise regex difference, and one community matching no regex.
    Every subset of the universe is a realizable community set, so all
    extracted examples are sound, and the difference witnesses make the
    analysis complete for behavioural differences expressible by the
    regexes in scope.

    {b AS-path abstraction.} Each as-path access-list in scope becomes a
    boolean atom "this list permits the route's path". Atom-valuation
    feasibility is decided lazily with the symbolic regex engine and
    memoized, feasible valuations with a concrete witness path; model
    extraction steps past infeasible ones.

    BDDs built against one context must not be mixed with another's. *)

exception Too_complex of string
(** Deciding as-path feasibility needed an automaton past the regex
    engine's 20,000-state bound ({!Sre.Regex.Too_many_states}). The
    message names the config lines at fault: each [ip as-path
    access-list] entry in scope whose regex alone needs that many
    states, else every list in scope. Raised by whatever first reads a
    route region's as-path atoms: model extraction and satisfiability
    checks. *)

open Symbdd

val local_pref : Bvec.t
val metric : Bvec.t
val tag : Bvec.t

val atom_base : int
(** First atom variable index; community atom [i] is variable
    [atom_base + i]. *)

type t = {
  comm_universe : Bgp.Community.t array; (* sorted *)
  as_path_lists : Config.As_path_list.t array;
  accept_langs : Sre.As_path_regex.R.re array; (* paths each list permits *)
  combo_table : (bool list, int list option) Hashtbl.t;
}

val create :
  ?extra_communities:Bgp.Community.t list ->
  ?extra_comm_regexes:Sre.Community_regex.t list ->
  ?extra_as_path_lists:Config.As_path_list.t list ->
  (Config.Database.t * Config.Route_map.t list) list ->
  t
(** Build a context whose universe covers everything the given
    route-maps reference in their respective databases, plus the extras
    (typically a specification's regexes). *)

val comm_var : t -> Bgp.Community.t -> int option
(** The atom variable of a universe community. *)

val valid : t -> Bdd.t
(** Routes representable in this context (prefix length at most 32). *)

(** {2 Match-condition compilation} *)

val of_prefix_range : Netaddr.Prefix_range.t -> Bdd.t
val of_prefix_list : Config.Prefix_list.t -> Bdd.t

val of_comm_regex : t -> Sre.Community_regex.t -> Bdd.t
(** "The route carries at least one community in the regex's language",
    relative to the universe. *)

val of_as_path_list : t -> Config.As_path_list.t -> Bdd.t
(** @raise Invalid_argument if the list was not in scope at creation. *)

val of_stanza : t -> Config.Database.t -> Config.Route_map.stanza -> Bdd.t

(** {2 Symbolic execution} *)

type cell = {
  guard : Bdd.t;
  action : Config.Action.t;
  sets : Config.Route_map.set_clause list;
  stanza_seq : int option; (* [None] for the implicit trailing deny *)
}

val exec :
  ?candidates:Config.Route_map.stanza list ->
  t ->
  Config.Database.t ->
  Config.Route_map.t ->
  cell list
(** Ordered first-match partition of the route space; guards are
    pairwise disjoint and cover everything, the last cell being the
    implicit deny.

    With [candidates], the partition of the candidates' match region
    (the disjunction of their matches) instead: each guard is the full
    partition's guard conjoined with that region, the same canonical
    BDD. A stanza is not compiled, and its guard is empty, when nothing
    reaches it, or when for each candidate some prefix-list clause of
    the stanza and some of the candidate have no overlapping permit
    ranges. No stanza is skipped for its ranges when either side has no
    prefix-list clause. *)

val accepted : t -> Config.Database.t -> Config.Route_map.t -> Bdd.t
(** Routes the map accepts (any permit stanza). *)

(** {2 Models} *)

val to_route : t -> Bdd.t -> Bgp.Route.t option
(** Extract a concrete route from a region, or [None] if the region is
    empty after removing infeasible as-path valuations. The route
    depends on the region alone, not on what was extracted before.
    Unconstrained attributes are biased toward BGP defaults (local-pref
    100, metric and tag 0) so examples read like real advertisements. *)

val is_sat : t -> Bdd.t -> bool
(** Does a real route live in the region? *)

val route_env : t -> Bgp.Route.t -> int -> bool
(** The BDD environment describing a concrete route, for evaluating
    region membership with {!Symbdd.Bdd.eval}. Sound for routes whose
    communities all lie in the universe. *)

val representable : t -> Bgp.Route.t -> bool
(** All the route's communities lie in the context universe. *)
