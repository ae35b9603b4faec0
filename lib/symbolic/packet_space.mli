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

val of_rule : Config.Acl.rule -> Bdd.t
(** The match condition of one ACL rule (ignoring its action). *)

type cell = {
  guard : Bdd.t; (* packets reaching and matching this rule *)
  action : Config.Action.t;
  rule_seq : int option; (* [None] for the implicit trailing deny *)
}

val apart : Config.Acl.rule -> Config.Acl.rule -> bool
(** [apart r s] holds when no packet can match both rules, decided from
    the rules' fields without compiling either: both protocols are
    specific (not [ip]) and differ, or both addresses fix some src or
    dst bit to different values, or the src or dst port spans do not
    intersect (a [neq] port is never apart). Sound — apart rules never
    share a packet — and exact for rules without [neq]. *)

val exec : ?candidates:Config.Acl.rule list -> Config.Acl.t -> cell list
(** Ordered first-match partition of the packet space: each cell's guard
    is the rule's match condition minus everything matched earlier; the
    final cell is the implicit deny. Guards partition the space.

    With [candidates], the partition projected onto their match region:
    the fall-through starts from the disjunction of the candidates'
    matches, so each guard is the full partition's guard conjoined with
    it, and [guard ∧ match(c)] is the same BDD for every candidate [c].
    A rule {!apart} from every candidate, or reached by nothing, gets an
    empty guard without being compiled and leaves the fall-through
    unchanged. *)

val permitted : Config.Acl.t -> Bdd.t
(** The set of packets the ACL permits. *)

val to_packet : Bdd.t -> Config.Packet.t option
(** Extract a concrete packet from a non-empty region; prefers familiar
    protocols (TCP, then UDP, then ICMP) when the region allows them. *)

val overlap_witness :
  Config.Acl.rule -> Config.Acl.rule -> Config.Packet.t option
(** A packet matched by both rules, if any. *)
