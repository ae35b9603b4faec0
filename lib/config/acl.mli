(** Cisco extended access lists: ordered permit/deny rules over packet
    headers, evaluated first-match with an implicit trailing deny. *)

type addr_spec =
  | Any
  | Host of Netaddr.Ipv4.t
  | Wildcard of Netaddr.Ipv4.t * Netaddr.Ipv4.t
      (** base address and Cisco wildcard mask: a packet address [x]
          matches iff it agrees with the base on every zero bit of the
          wildcard. Wildcards need not be contiguous. *)

type port_spec =
  | Any_port
  | Eq of int
  | Neq of int
  | Lt of int
  | Gt of int
  | Range of int * int (* inclusive *)

type rule = {
  seq : int;
  action : Action.t;
  protocol : Packet.protocol; (* [Ip] matches every protocol *)
  src : addr_spec;
  src_port : port_spec;
  dst : addr_spec;
  dst_port : port_spec;
  established : bool; (* only matches established TCP segments *)
}

type t = { name : string; rules : rule list (* ascending seq *) }

val addr_of_prefix : Netaddr.Prefix.t -> addr_spec
(** [Host] for /32, [Any] for /0, a contiguous [Wildcard] otherwise. *)

val addr_to_prefix : addr_spec -> Netaddr.Prefix.t option
(** The prefix equivalent of an address spec when its wildcard mask is
    contiguous; [None] for discontiguous masks. *)

val make : string -> rule list -> t
(** Sorts rules by sequence number.
    @raise Invalid_argument on duplicate sequence numbers. *)

val rule :
  ?seq:int ->
  ?protocol:Packet.protocol ->
  ?src:addr_spec ->
  ?src_port:port_spec ->
  ?dst:addr_spec ->
  ?dst_port:port_spec ->
  ?established:bool ->
  Action.t ->
  rule
(** Defaults: seq 0 (assign on {!append}), protocol [Ip], everything
    unconstrained. *)

val match_rule : rule -> Packet.t -> bool

val first_match : t -> Packet.t -> rule option
val eval : t -> Packet.t -> Action.t option
(** First-match action; [None] when no rule matches (implicit deny). *)

val permits : t -> Packet.t -> bool
val next_seq : t -> int
val append : t -> rule -> t
(** Adds a rule after the last; a rule of seq 0 takes {!next_seq}.
    @raise Invalid_argument when the rule's seq is already taken. *)

val resequence : t -> t
(** Renumber every rule 10, 20, 30, ... preserving order. *)

val insert_at : t -> int -> rule -> t
(** Insert a rule at a 0-based position and {!resequence}, mirroring
    {!Route_map.insert_at}. Raises [Invalid_argument] when the position
    is outside [0..length rules]. *)

val rename : t -> string -> t

val string_of_rule : rule -> string
(** A rule as it follows the one-space indent in its ACL's block. *)

val write : Buffer.t -> t -> unit
(** The [ip access-list extended NAME] header, then one indented line
    per rule ({!Text}). *)

val pp : Format.formatter -> t -> unit
