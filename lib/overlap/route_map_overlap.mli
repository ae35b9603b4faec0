(** Stanza-overlap analysis for route-maps.

    Per the paper, two stanzas overlap when at least one route
    advertisement matches both; actions are ignored in the headline
    count (a stanza may chain into other policies), making it an upper
    bound. Conflicting pairs are still reported for the campus
    breakdown. AS-path atom feasibility is honoured: stanzas with
    mutually exclusive as-path constraints do not overlap. *)

type pair = {
  stanza_a : Config.Route_map.stanza;
  stanza_b : Config.Route_map.stanza;
  conflicting : bool;
}

type stats = {
  name : string;
  stanzas : int;
  overlap_pairs : int;
  conflict_pairs : int;
}

val pairs : Config.Database.t -> Config.Route_map.t -> pair list
val analyze : Config.Database.t -> Config.Route_map.t -> stats

val witness :
  Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.stanza ->
  Config.Route_map.stanza ->
  Bgp.Route.t option
(** A route matching both stanzas. *)
