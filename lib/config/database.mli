(** A parsed configuration: named collections of every construct. *)

module Smap : Map.S with type key = string

type t = {
  prefix_lists : Prefix_list.t Smap.t;
  community_lists : Community_list.t Smap.t;
  as_path_lists : As_path_list.t Smap.t;
  route_maps : Route_map.t Smap.t;
  acls : Acl.t Smap.t;
}

val empty : t
val add_prefix_list : t -> Prefix_list.t -> t
val add_community_list : t -> Community_list.t -> t
val add_as_path_list : t -> As_path_list.t -> t
val add_route_map : t -> Route_map.t -> t
val add_acl : t -> Acl.t -> t
val prefix_list : t -> string -> Prefix_list.t option
val community_list : t -> string -> Community_list.t option
val as_path_list : t -> string -> As_path_list.t option
val route_map : t -> string -> Route_map.t option
val acl : t -> string -> Acl.t option
val route_maps : t -> Route_map.t list
val acls : t -> Acl.t list

val all_names : t -> string list
(** Every defined name across all construct kinds (with duplicates when
    a name is reused across kinds). *)

val merge : t -> t -> t
(** Right-biased union: definitions in the second database shadow
    same-name definitions in the first. *)

val undefined_references :
  t ->
  Route_map.t ->
  ([ `As_path_list | `Community_list | `Prefix_list ] * string) list
(** List references in the route-map that the database does not define —
    LLM output loves to hallucinate list names. *)

val write : Buffer.t -> t -> unit
(** Every construct's text ({!Text}), a newline between two: as-path
    lists, community lists, prefix lists, ACLs, then route-maps, each
    kind in name order. *)
