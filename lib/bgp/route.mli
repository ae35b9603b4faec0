(** BGP route advertisements as analysed by route-maps.

    The attribute set mirrors the inputs shown in the paper's
    differential examples: network prefix, AS path, communities,
    local preference, metric (MED), next-hop, tag and weight. *)

type origin = Igp | Egp | Incomplete

type t = {
  prefix : Netaddr.Prefix.t;
  as_path : int list; (* leftmost = most recent hop *)
  communities : Community.t list; (* sorted, deduplicated *)
  local_pref : int;
  metric : int;
  next_hop : Netaddr.Ipv4.t;
  origin : origin;
  tag : int;
  weight : int;
}

val make :
  ?as_path:int list ->
  ?communities:Community.t list ->
  ?local_pref:int ->
  ?metric:int ->
  ?next_hop:Netaddr.Ipv4.t ->
  ?tag:int ->
  Netaddr.Prefix.t ->
  t
(** Defaults match the paper's example route: empty AS path, no
    communities, local-pref 100, metric 0, next-hop 0.0.0.1, origin IGP,
    tag 0, weight 0. *)

val with_communities : t -> Community.t list -> t
(** Replace the community set (normalized). *)

val add_communities : t -> Community.t list -> t
val delete_communities : t -> (Community.t -> bool) -> t
val has_community : t -> Community.t -> bool
val prepend_as_path : t -> int list -> t

val origin_to_string : origin -> string
val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Multi-line rendering in the paper's differential-example style. *)
