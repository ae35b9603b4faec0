(** Deterministic fleet topology generator.

    Two profiles: a data-center fat-tree (arity [k] in 4..16, extended
    with extra pods beyond [k] when the requested fleet outgrows the
    canonical 5k²/4 router budget) and a WAN modeled on the 11-node
    Abilene backbone with access ("site") routers attached round-robin.

    Every internal router [r] owns exactly two route-maps, [r_IN]
    applied on import and [r_OUT] applied on export of every session.
    One external router (EXT, no policies of its own) peers with the
    first internal router and originates the shared service prefix plus
    a bogon probe, so the generated import policies are observable in a
    BGP simulation.

    Generation is a pure function of (profile, routers): names, AS
    numbers, router addresses and originated prefixes are assigned by
    index, so two runs — or two processes — agree byte-for-byte. *)

type profile = Fat_tree | Wan

val profile_to_string : profile -> string

type role = Core | Aggregation | Edge | Backbone | Site

val role_to_string : role -> string

type node = {
  name : string;
  role : role;
  site : int; (* pod index / WAN site index; -1 for core and backbone *)
}

type t = {
  profile : profile;
  routers : int; (* internal router count (excludes EXT) *)
  k : int; (* fat-tree arity actually used; 0 for WAN *)
  pods : int; (* fat-tree pods / WAN backbone size *)
  nodes : node list; (* internal routers in generation order *)
  topology : Netsim.Topology.t; (* internal routers + EXT, placeholder maps *)
  external_router : string;
}

exception Invalid_profile of string

val generate : profile:profile -> routers:int -> t
(** Exactly [routers] internal routers. @raise Invalid_profile when
    [routers < 1] or the fleet exceeds the generator's budget. *)

val install : t -> (string * Config.Database.t) list -> Netsim.Topology.t
(** Replace the placeholder configs of the named routers with
    synthesized ones (for simulation). *)

(* Prefixes the generator wires into every plan. *)
val service_prefix : Netaddr.Prefix.t (* originated by EXT, wants LP 200 at edges *)
val bogon_probe : Netaddr.Prefix.t (* originated by EXT, must be filtered *)
val reserved_prefix : Netaddr.Prefix.t (* must never be exported *)
val edge_prefix : int -> Netaddr.Prefix.t (* the /24 originated by the i-th edge *)
val site_community : t -> node -> Bgp.Community.t

(** The global-policy compiler: a handful of network-wide intents
    expanded into an ordered per-router synthesis worklist. *)
module Policy : sig
  val global_intents : string list
  (** Human-readable statement of the network-wide policies. *)

  type step = { map : string; intent : Llm.Intent.t }

  type plan = {
    router : string;
    role : role;
    site : int;
    maps : string list; (* the router's route-maps, [r_IN; r_OUT] *)
    steps : step list; (* insertion order drives disambiguation *)
    reference : Config.Database.t; (* ground truth for the oracle *)
  }

  val shared_ranges : unit -> Netaddr.Prefix_range.t list
  (** The prefix ranges every plan's intents reference (bogons,
      reserved space, service prefix) — what a fleet run prewarms into
      a shared frozen BDD base so per-router deltas never recompile
      them. *)

  val compile : t -> plan list
  (** One plan per internal router, in generation order. Core,
      aggregation and backbone routers get 4 steps; edge and site
      routers additionally pin the service prefix at LP 200 (5 steps,
      inserted after the catch-all so it must be disambiguated above
      it). *)
end

type check = { name : string; ok : bool; detail : string }

val check : t -> Netsim.Simulator.state -> check list
(** Fleet-wide policy probes over a converged simulation: bogons
    filtered everywhere, the service prefix visible (at LP 200) on
    every edge/site router, and edge prefixes propagating fleet-wide. *)

val pp_check : Format.formatter -> check -> unit
