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

let protocol_number = function
  | Ip -> 0 (* placeholder; [Ip] is a match-any wildcard, not a protocol *)
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Proto n -> n

let protocol_of_number = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | n -> Proto n

let protocol_to_string = function
  | Ip -> "ip"
  | Tcp -> "tcp"
  | Udp -> "udp"
  | Icmp -> "icmp"
  | Proto n -> string_of_int n

let has_ports = function Tcp | Udp -> true | Ip | Icmp | Proto _ -> false

let make ?(protocol = Tcp) ?(src_port = 0) ?(dst_port = 0)
    ?(established = false) ~src ~dst () =
  { src; dst; protocol; src_port; dst_port; established }

let pp fmt p =
  Format.fprintf fmt "%s %a:%d -> %a:%d%s"
    (protocol_to_string p.protocol)
    Netaddr.Ipv4.pp p.src p.src_port Netaddr.Ipv4.pp p.dst p.dst_port
    (if p.established then " established" else "")
