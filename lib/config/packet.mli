(** IPv4 packet headers as matched by extended access lists. *)

type protocol = Ip | Tcp | Udp | Icmp | Proto of int

type t = {
  src : Netaddr.Ipv4.t;
  dst : Netaddr.Ipv4.t;
  protocol : protocol; (* [Ip] never appears in a concrete packet *)
  src_port : int; (* meaningful for tcp/udp only *)
  dst_port : int;
  established : bool; (* TCP ACK or RST set *)
}

val protocol_number : protocol -> int
(** IANA protocol number; [Ip] (the match-any wildcard) maps to 0. *)

val protocol_of_number : int -> protocol
val protocol_to_string : protocol -> string

val has_ports : protocol -> bool
(** Do port specifiers make sense for this protocol (tcp/udp)? *)

val make :
  ?protocol:protocol ->
  ?src_port:int ->
  ?dst_port:int ->
  ?established:bool ->
  src:Netaddr.Ipv4.t ->
  dst:Netaddr.Ipv4.t ->
  unit ->
  t
(** Defaults: TCP, ports 0, not established. *)

val pp : Format.formatter -> t -> unit
