(** Symbolic IPv4 packet header space over BDD variables.

    Variable layout (MSB-first within each field): src 0-31, dst 32-63,
    protocol 64-71, src port 72-87, dst port 88-103, established 104. *)

open Symbdd

val src : Bvec.t
val dst : Bvec.t
val protocol : Bvec.t
val src_port : Bvec.t
val dst_port : Bvec.t
val established_var : int

val of_addr_spec : Bvec.t -> Config.Acl.addr_spec -> Bdd.t
val of_port_spec : Bvec.t -> Config.Acl.port_spec -> Bdd.t
val of_protocol : Config.Packet.protocol -> Bdd.t

val of_rule : Config.Acl.rule -> Bdd.t
(** The match condition of one ACL rule (ignoring its action). *)

type cell = {
  guard : Bdd.t; (* packets reaching and matching this rule *)
  action : Config.Action.t;
  rule_seq : int option; (* [None] for the implicit trailing deny *)
}

val exec : Config.Acl.t -> cell list
(** Ordered first-match partition of the packet space: each cell's guard
    is the rule's match condition minus everything matched earlier; the
    final cell is the implicit deny. Guards partition the space. *)

val permitted : Config.Acl.t -> Bdd.t
(** The set of packets the ACL permits. *)

val to_packet : Bdd.t -> Config.Packet.t option
(** Extract a concrete packet from a non-empty region; prefers familiar
    protocols (TCP, then UDP, then ICMP) when the region allows them. *)

val overlap_witness :
  Config.Acl.rule -> Config.Acl.rule -> Config.Packet.t option
(** A packet matched by both rules, if any. *)
