(** Cisco extended access lists. *)

type addr_spec =
  | Any
  | Host of Netaddr.Ipv4.t
  | Wildcard of Netaddr.Ipv4.t * Netaddr.Ipv4.t
      (** base address and Cisco wildcard mask: a packet address [x]
          matches iff [x land (lnot wild) = base land (lnot wild)]. *)

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

let addr_of_prefix p =
  let open Netaddr in
  if p.Prefix.len = 32 then Host p.Prefix.ip
  else if p.Prefix.len = 0 then Any
  else Wildcard (p.Prefix.ip, Ipv4.wildcard_of_mask (Ipv4.mask p.Prefix.len))

(** The prefix equivalent of an address spec when its wildcard mask is
    contiguous; [None] for discontiguous masks. *)
let addr_to_prefix = function
  | Any -> Some Netaddr.Prefix.default
  | Host ip -> Some (Netaddr.Prefix.host ip)
  | Wildcard (base, wild) ->
      let w = Netaddr.Ipv4.to_int wild in
      let len = ref 0 in
      let contiguous = ref true in
      for i = 0 to 31 do
        let bit = w land (1 lsl (31 - i)) <> 0 in
        if not bit then
          if !len = i then incr len else contiguous := false
      done;
      if !contiguous then Some (Netaddr.Prefix.make base !len) else None

let make name rules =
  let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) rules in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg
            (Printf.sprintf "Acl.make: duplicate seq %d in %s" a.seq name)
        else check rest
    | _ -> ()
  in
  check sorted;
  { name; rules = sorted }

let rule ?(seq = 0) ?(protocol = Packet.Ip) ?(src = Any) ?(src_port = Any_port)
    ?(dst = Any) ?(dst_port = Any_port) ?(established = false) action =
  { seq; action; protocol; src; src_port; dst; dst_port; established }

let match_addr spec addr =
  match spec with
  | Any -> true
  | Host ip -> Netaddr.Ipv4.equal ip addr
  | Wildcard (base, wild) ->
      let keep = Netaddr.Ipv4.wildcard_of_mask wild in
      Netaddr.Ipv4.equal
        (Netaddr.Ipv4.logand addr keep)
        (Netaddr.Ipv4.logand base keep)

let match_port spec port =
  match spec with
  | Any_port -> true
  | Eq n -> port = n
  | Neq n -> port <> n
  | Lt n -> port < n
  | Gt n -> port > n
  | Range (a, b) -> port >= a && port <= b

let match_protocol spec (actual : Packet.protocol) =
  match spec with
  | Packet.Ip -> true
  | spec -> Packet.protocol_number spec = Packet.protocol_number actual

let match_rule r (p : Packet.t) =
  match_protocol r.protocol p.protocol
  && match_addr r.src p.src && match_addr r.dst p.dst
  && (match_port r.src_port p.src_port)
  && (match_port r.dst_port p.dst_port)
  && ((not r.established) || p.established)

(** First-match action; [None] when no rule matches (implicit deny). *)
let first_match t p = List.find_opt (fun r -> match_rule r p) t.rules
let eval t p = Option.map (fun r -> r.action) (first_match t p)
let permits t p = eval t p = Some Action.Permit

let next_seq t =
  match List.rev t.rules with [] -> 10 | last :: _ -> last.seq + 10

let append t r =
  let r = if r.seq = 0 then { r with seq = next_seq t } else r in
  make t.name (t.rules @ [ r ])

(** Renumber every rule 10, 20, 30, ... preserving order. *)
let resequence t =
  { t with rules = List.mapi (fun i r -> { r with seq = (i + 1) * 10 }) t.rules }

let insert_at t pos r =
  let n = List.length t.rules in
  if pos < 0 || pos > n then invalid_arg "Acl.insert_at";
  let before = List.filteri (fun i _ -> i < pos) t.rules in
  let after = List.filteri (fun i _ -> i >= pos) t.rules in
  resequence { t with rules = before @ (r :: after) }

let rename t name = { t with name }

let write_addr b = function
  | Any -> Buffer.add_string b "any"
  | Host ip ->
      Buffer.add_string b "host ";
      Netaddr.Ipv4.write b ip
  | Wildcard (base, wild) ->
      Netaddr.Ipv4.write b base;
      Buffer.add_char b ' ';
      Netaddr.Ipv4.write b wild

let write_op b op n =
  Buffer.add_string b op;
  Netaddr.Decimal.write b n

let write_port b = function
  | Any_port -> ()
  | Eq n -> write_op b " eq " n
  | Neq n -> write_op b " neq " n
  | Lt n -> write_op b " lt " n
  | Gt n -> write_op b " gt " n
  | Range (lo, hi) ->
      write_op b " range " lo;
      write_op b " " hi

let write_rule b r =
  Buffer.add_string b (Action.to_string r.action);
  Buffer.add_char b ' ';
  (match r.protocol with
  | Packet.Proto n -> Netaddr.Decimal.write b n
  | p -> Buffer.add_string b (Packet.protocol_to_string p));
  Buffer.add_char b ' ';
  write_addr b r.src;
  write_port b r.src_port;
  Buffer.add_char b ' ';
  write_addr b r.dst;
  write_port b r.dst_port;
  if r.established then Buffer.add_string b " established"

let string_of_rule = Text.to_string write_rule

let write b t =
  Buffer.add_string b "ip access-list extended ";
  Buffer.add_string b t.name;
  List.iter
    (fun r ->
      Buffer.add_string b "\n ";
      write_rule b r)
    t.rules

let pp = Text.pp write
