(** Network topologies: eBGP routers, sessions, originated prefixes and
    per-neighbor import/export route-map chains. *)

type neighbor = {
  peer : string; (* remote router name *)
  import : string list; (* route-map chain applied to received routes *)
  export : string list; (* route-map chain applied to advertised routes *)
}

type router = {
  name : string;
  asn : int;
  router_ip : Netaddr.Ipv4.t; (* advertised as next-hop *)
  originated : Netaddr.Prefix.t list;
  neighbors : neighbor list;
  config : Config.Database.t; (* this router's lists and route-maps *)
}

type t = { routers : router list }

exception Invalid_topology of string

val router :
  ?originated:Netaddr.Prefix.t list ->
  ?neighbors:neighbor list ->
  ?config:Config.Database.t ->
  asn:int ->
  router_ip:Netaddr.Ipv4.t ->
  string ->
  router

val neighbor : ?import:string list -> ?export:string list -> string -> neighbor

val make : router list -> t
(** Validates the topology. @raise Invalid_topology on duplicate router
    names, unknown neighbors, unidirectional sessions, or chains
    referencing undefined route-maps. *)

val find : t -> string -> router
(** @raise Invalid_topology when absent. *)

val router_names : t -> string list
val with_config : t -> string -> Config.Database.t -> t
val pp : Format.formatter -> t -> unit
