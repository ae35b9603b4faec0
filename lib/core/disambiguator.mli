(** The paper's disambiguator (Section 4) for route-maps.

    Candidate placements of a verified stanza [S*] into a target map of
    [n] stanzas are positions [0..n]. Adjacent placements [i] and [i+1]
    differ exactly on routes that match [S*] and are handled by the
    original stanza at position [i]; such positions are {e boundaries},
    each carrying a differential example route computed by
    {!Engine.Compare_route_policies}. Under the paper's three
    well-formedness conditions on the intended semantics [M'], the
    user's boundary answers are monotone, so binary search finds the
    placement with a logarithmic number of questions. *)

type question = {
  position : int; (* boundary position, 0-based into the target *)
  boundary_seq : int; (* seq of the original stanza at that position *)
  route : Bgp.Route.t; (* differential example *)
  if_new_first : Config.Semantics.route_result;
  if_old_first : Config.Semantics.route_result;
}

type answer = Disambig_common.answer =
  | Prefer_new (* the route should be handled by the new stanza *)
  | Prefer_old (* the route should keep its existing behaviour *)

type oracle = question -> answer

type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  map : Config.Route_map.t; (* the target with the stanza inserted *)
  position : int;
  questions : question list; (* in the order asked *)
  boundaries : int; (* differing boundaries found *)
}

type error =
  | Inconsistent_intent of question list
      (** Linear mode found non-monotone answers: no single insertion
          point implements the user's wishes (paper condition 3 fails). *)

val pp_question : Format.formatter -> question -> unit

val view : question -> Disambig_common.view
(** The telemetry rendering of a question — also the batch answer
    cache's key material. *)

val question :
  Config.Route_map.stanza array ->
  int ->
  Engine.Compare_route_policies.difference ->
  question
(** [question stanzas i d]: the question of boundary [i] of a target
    with these stanzas, from its witness [d]. *)

val boundaries :
  ?pool:Parallel.Pool.t ->
  db:Config.Database.t ->
  target:Config.Route_map.t ->
  Config.Route_map.stanza ->
  question list
(** All differing boundaries with their differential examples, in
    position order, from one sweep of
    {!Engine.Compare_route_policies.adjacent_insertions}: every witness
    is decoded. [?pool] fans position slices across worker domains.
    Exposed for tests and the evaluation harness. *)

val run :
  ?mode:mode ->
  ?pool:Parallel.Pool.t ->
  ?precomputed:question list ->
  db:Config.Database.t ->
  target:Config.Route_map.t ->
  stanza:Config.Route_map.stanza ->
  oracle:oracle ->
  unit ->
  (outcome, error) result
(** {!Disambig_common.place} on the route-map family. The sweep is
    {!Engine.Compare_route_policies.lazy_insertions}: each boundary's
    witness is decoded when its question is asked, so a Binary_search
    run decodes about log₂ k of k witnesses (those the sweep had to
    decode to decide a boundary aside), and everything it asks is
    decoded, in the current BDD manager, before it returns. Questions,
    placement and outcome are those of a run on {!boundaries}.
    [?precomputed] skips the engine sweep and uses the given boundary
    questions (position order) — the batch pipeline's fast path, which
    translates boundaries from one shared multi-stanza sweep instead of
    recompiling the target per intent. *)

(** {2 Oracles} *)

val scripted : answer list -> oracle
(** Fixed answers in order; raises [Failure] when exhausted. *)

val intent_driven :
  (Bgp.Route.t -> Config.Semantics.route_result) -> oracle
(** The ideal user: answers according to a target semantics. *)

val always_new : oracle
val always_old : oracle
