(** Synthetic ACL generation with exact overlap accounting.

    ACLs are assembled from three building blocks whose pairwise
    interactions are known in closed form, so a generated ACL has a
    predictable overlap profile (verified by the analyzer in tests):

    - a block of [plain] pairwise-disjoint permit rules (0 overlaps);
    - [crossing] pairs of partially-overlapping rules with opposite
      actions confined to pair-private address space: each pair adds
      exactly one {e non-trivial} conflicting overlap;
    - an optional trailing [deny ip any any], which overlaps every
      preceding rule and conflicts (trivially, as a superset) with every
      permit rule.

    Totals for an ACL with [p] plain rules, [k] crossing pairs and a
    trailing deny: overlaps = 3k + p + 1·0 ... precisely [3k + p] plus
    [k + p] conflicts from the trailing deny; without it, overlaps = k.
    In closed form (with trailing deny): overlaps = 3k + p, conflicts =
    2k + p, non-trivial conflicts = k. Without: overlaps = conflicts =
    non-trivial = k. *)

let ip = Netaddr.Ipv4.of_octets

(* Pair-private address spaces: octet pools sliced per rule index. *)
let plain_rule rng i =
  (* permit tcp host 30.x.y.i any eq port — distinct hosts are disjoint. *)
  let x = Random.State.int rng 200 in
  let y = Random.State.int rng 200 in
  Config.Acl.rule ~protocol:Config.Packet.Tcp
    ~src:(Config.Acl.Host (ip 30 x y (i land 0xff)))
    ~dst:Config.Acl.Any
    ~dst_port:(Config.Acl.Eq (1024 + (i mod 50000)))
    Config.Action.Permit

let crossing_pair rng i =
  (* Confined to src 10.i.0.0/16 and dst 20.i.0.0/16; the two rules
     intersect but neither contains the other. *)
  let port = 80 + Random.State.int rng 100 in
  let r1 =
    Config.Acl.rule ~protocol:Config.Packet.Tcp
      ~src:(Config.Acl.addr_of_prefix (Netaddr.Prefix.make (ip 10 i 0 0) 17))
      ~dst:(Config.Acl.addr_of_prefix (Netaddr.Prefix.make (ip 20 i 0 0) 16))
      ~dst_port:(Config.Acl.Eq port) Config.Action.Permit
  in
  let r2 =
    Config.Acl.rule ~protocol:Config.Packet.Tcp
      ~src:(Config.Acl.addr_of_prefix (Netaddr.Prefix.make (ip 10 i 0 0) 16))
      ~dst:(Config.Acl.addr_of_prefix (Netaddr.Prefix.make (ip 20 i 0 0) 17))
      ~dst_port:(Config.Acl.Eq port) Config.Action.Deny
  in
  [ r1; r2 ]

let trailing_deny = Config.Acl.rule Config.Action.Deny

(** Build an ACL with [plain] disjoint permits, [crossing] conflicting
    pairs, and optionally a trailing deny-any. *)
let make ~rng ~name ~plain ~crossing ~trailing_deny_any =
  if crossing > 255 then invalid_arg "Acl_gen.make: crossing > 255";
  let rules =
    List.concat
      [
        List.concat (List.init crossing (fun i -> crossing_pair rng (i + 1)));
        List.init plain (fun i -> plain_rule rng i);
        (if trailing_deny_any then [ trailing_deny ] else []);
      ]
  in
  Config.Acl.make name
    (List.mapi (fun i (r : Config.Acl.rule) -> { r with seq = (i + 1) * 10 }) rules)

(** Expected analyzer output for the parameters, used for calibration
    checks. *)
let expected ~plain ~crossing ~trailing_deny_any =
  if trailing_deny_any then
    (* crossing pairs + every rule vs the trailing deny *)
    let overlaps = crossing + (2 * crossing) + plain in
    let conflicts = crossing + crossing + plain in
    (overlaps, conflicts, crossing)
  else (crossing, crossing, crossing)
