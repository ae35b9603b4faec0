(** Symbolic IPv4 packet header space over BDD variables.

    Variable layout (MSB-first within each field):
    src 0-31, dst 32-63, protocol 64-71, src port 72-87, dst port 88-103,
    established 104. *)

open Symbdd

let src = Bvec.sequential ~first:0 ~width:32
let dst = Bvec.sequential ~first:32 ~width:32
let protocol = Bvec.sequential ~first:64 ~width:8
let src_port = Bvec.sequential ~first:72 ~width:16
let dst_port = Bvec.sequential ~first:88 ~width:16
let established_var = 104

let of_addr_spec field = function
  | Config.Acl.Any -> Bdd.one
  | Config.Acl.Host ip ->
      Bvec.eq_const field (Netaddr.Ipv4.to_int ip)
  | Config.Acl.Wildcard (base, wild) ->
      (* Constrain exactly the bits the wildcard marks as significant,
         least significant first so each literal tops the chain. *)
      let vars = (field :> int array) in
      let acc = ref Bdd.one in
      for i = 31 downto 0 do
        if not (Netaddr.Ipv4.bit wild i) then begin
          let v = vars.(i) in
          let lit = if Netaddr.Ipv4.bit base i then Bdd.var v else Bdd.nvar v in
          acc := Bdd.conj lit !acc
        end
      done;
      !acc

let of_port_spec field = function
  | Config.Acl.Any_port -> Bdd.one
  | Config.Acl.Eq n -> Bvec.eq_const field n
  | Config.Acl.Neq n -> Bdd.neg (Bvec.eq_const field n)
  | Config.Acl.Lt n -> if n = 0 then Bdd.zero else Bvec.le_const field (n - 1)
  | Config.Acl.Gt n ->
      if n >= 65535 then Bdd.zero else Bvec.ge_const field (n + 1)
  | Config.Acl.Range (a, b) -> Bvec.in_range field a b

let of_protocol = function
  | Config.Packet.Ip -> Bdd.one
  | p -> Bvec.eq_const protocol (Config.Packet.protocol_number p)

(* Canonical compile-cache key: every field that affects the match BDD
   (action and seq do not), rendered unambiguously. *)
let addr_key = function
  | Config.Acl.Any -> "*"
  | Config.Acl.Host ip -> "h" ^ string_of_int (Netaddr.Ipv4.to_int ip)
  | Config.Acl.Wildcard (base, wild) ->
      "w"
      ^ string_of_int (Netaddr.Ipv4.to_int base)
      ^ "/"
      ^ string_of_int (Netaddr.Ipv4.to_int wild)

let port_key = function
  | Config.Acl.Any_port -> "*"
  | Config.Acl.Eq n -> "e" ^ string_of_int n
  | Config.Acl.Neq n -> "n" ^ string_of_int n
  | Config.Acl.Lt n -> "l" ^ string_of_int n
  | Config.Acl.Gt n -> "g" ^ string_of_int n
  | Config.Acl.Range (a, b) -> "r" ^ string_of_int a ^ "-" ^ string_of_int b

let proto_key = function
  | Config.Packet.Ip -> "ip" (* distinct from [Proto 0], which renders "0" *)
  | p -> string_of_int (Config.Packet.protocol_number p)

let rule_key (r : Config.Acl.rule) =
  String.concat ";"
    [
      "acl.rule";
      proto_key r.protocol;
      addr_key r.src;
      addr_key r.dst;
      port_key r.src_port;
      port_key r.dst_port;
      (if r.established then "E" else "-");
    ]

(** The match condition of one ACL rule (ignoring its action). Memoized
    in the current manager's compilation cache, so corpus sweeps compile
    each distinct rule once per manager epoch. *)
let of_rule (r : Config.Acl.rule) =
  Bdd.cached ~key:(rule_key r) (fun () ->
      Bdd.conj_list
        [
          of_protocol r.protocol;
          of_addr_spec src r.src;
          of_addr_spec dst r.dst;
          of_port_spec src_port r.src_port;
          of_port_spec dst_port r.dst_port;
          (if r.established then Bdd.var established_var else Bdd.one);
        ])

type cell = {
  guard : Bdd.t; (* packets reaching and matching this rule *)
  action : Config.Action.t;
  rule_seq : int option; (* [None] for the implicit trailing deny *)
}

(** Ordered first-match partition of the packet space: each cell's guard
    is the rule's match condition minus everything matched earlier; the
    final cell is the implicit deny. Guards partition the space. *)
let exec (acl : Config.Acl.t) =
  let rec go unmatched = function
    | [] ->
        [ { guard = unmatched; action = Config.Action.Deny; rule_seq = None } ]
    | (r : Config.Acl.rule) :: rest ->
        let m = of_rule r in
        let guard = Bdd.conj unmatched m in
        { guard; action = r.action; rule_seq = Some r.seq }
        :: go (Bdd.conj unmatched (Bdd.neg m)) rest
  in
  go Bdd.one acl.Config.Acl.rules

(** The set of packets an ACL permits. *)
let permitted acl =
  Bdd.disj_list
    (List.filter_map
       (fun c ->
         if Config.Action.equal c.action Config.Action.Permit then Some c.guard
         else None)
       (exec acl))

(** Extract a concrete packet from a non-empty region. Prefers familiar
    protocols (TCP, then UDP, then ICMP) when the region allows them. *)
let to_packet bdd =
  if Bdd.is_zero bdd then None
  else
    let bdd =
      Option.value ~default:bdd
        (List.find_map
           (fun p ->
             let refined = Bdd.conj bdd (Bvec.eq_const protocol p) in
             if Bdd.is_sat refined then Some refined else None)
           [ 6; 17; 1 ])
    in
    let a = Bvec.valuation (Bdd.any_sat bdd) in
    let field bv = Bvec.read bv a in
    let protocol_v = Config.Packet.protocol_of_number (field protocol) in
    Some
      {
        Config.Packet.src = Netaddr.Ipv4.of_int (field src);
        dst = Netaddr.Ipv4.of_int (field dst);
        protocol = protocol_v;
        src_port = field src_port;
        dst_port = field dst_port;
        established =
          Option.value ~default:false (Bvec.value a established_var);
      }

(** A packet matched by both rules, if any — the overlap witness. *)
let overlap_witness r1 r2 = to_packet (Bdd.conj (of_rule r1) (of_rule r2))
