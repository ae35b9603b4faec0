(** Concrete first-match semantics of route-maps and ACLs — the
    reference behaviour the symbolic engine must agree with (checked by
    property tests). *)

type route_result =
  | Accept of Bgp.Route.t (* possibly transformed by set clauses *)
  | Reject

val match_clause : Database.t -> Bgp.Route.t -> Route_map.match_clause -> bool
(** A clause referring to an undefined list never matches. *)

val stanza_matches : Database.t -> Route_map.stanza -> Bgp.Route.t -> bool
val apply_sets : Database.t -> Bgp.Route.t -> Route_map.set_clause list -> Bgp.Route.t

val apply_action :
  Database.t ->
  Action.t ->
  Route_map.set_clause list ->
  Bgp.Route.t ->
  route_result
(** What a stanza with this action and these set clauses does to a route
    it handles: [Reject] on a deny, [Accept] with the sets applied on a
    permit. *)

val matching_stanza :
  Database.t -> Route_map.t -> Bgp.Route.t -> Route_map.stanza option
(** The stanza handling the route (the paper's function [M]), if any. *)

val eval_route_map : Database.t -> Route_map.t -> Bgp.Route.t -> route_result
(** First-match evaluation with Cisco's implicit trailing deny. *)

val eval_chain :
  Database.t -> Route_map.t list -> Bgp.Route.t -> route_result
(** Route-maps applied in order; a route must be accepted by each, and
    transformations accumulate. *)

val eval_acl : Acl.t -> Packet.t -> Action.t
(** First-match with the implicit deny applied. *)

val route_result_equal : route_result -> route_result -> bool
val pp_route_result : Format.formatter -> route_result -> unit
