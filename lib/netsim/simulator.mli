(** Synchronous BGP propagation to fixpoint (eBGP between ASes, iBGP
    full-mesh semantics within an AS).

    Each round every router advertises, for every prefix, its current
    best route to each neighbor through its export chain (prepending its
    ASN, rewriting the next hop, resetting non-transitive attributes);
    receivers run their import chain, drop AS-path loops, and re-select
    best paths. Decision order: highest weight, highest local
    preference, shortest AS path, lowest origin (IGP < EGP <
    incomplete), lowest MED, stable sender tie-break. Locally originated
    routes always win. *)

type rib_entry = {
  route : Bgp.Route.t;
  learned_from : string option; (* None = locally originated *)
}

module Smap : Map.S with type key = string

module Pmap : Map.S with type key = Netaddr.Prefix.t

type state = {
  topology : Topology.t;
  ribs : rib_entry Pmap.t Smap.t; (* router -> prefix -> best *)
  rounds : int; (* rounds to convergence *)
  converged : bool; (* false when max_rounds was hit *)
}

val default_max_rounds : int

val run : ?max_rounds:int -> Topology.t -> state

val rib : state -> string -> (Netaddr.Prefix.t * rib_entry) list
(** @raise Topology.Invalid_topology for unknown routers. *)

val lookup : state -> router:string -> prefix:Netaddr.Prefix.t -> rib_entry option
val reaches : state -> router:string -> prefix:Netaddr.Prefix.t -> bool
