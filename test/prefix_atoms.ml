(** Test helper: the atoms of a set of prefix-list ranges, a reference
    for prefix-list boundaries and overlaps that shares no code with
    the range algebra of {!Netaddr.Prefix_range}.

    At each length [l], a range matches the /l prefixes of its base's
    address block, or none. So the starts and ends of the blocks of the
    ranges that match at [l] cut the /l prefixes into atoms on which
    every one of the ranges agrees. [representatives rs] is the first
    prefix of each atom that starts at a cut, in (length, address)
    order; the atoms it leaves out are matched by none of [rs]. A
    property of a prefix that depends only on which ranges match it
    holds for some matched prefix iff it holds for some representative,
    and the first representative it holds for is the least such
    prefix. *)
let representatives (ranges : Netaddr.Prefix_range.t list) =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun (r : Netaddr.Prefix_range.t) ->
          if r.lo <= l && l <= r.hi then
            [
              Netaddr.Ipv4.to_int (Netaddr.Prefix.first r.prefix);
              Netaddr.Ipv4.to_int (Netaddr.Prefix.last r.prefix) + 1;
            ]
          else [])
        ranges
      |> List.filter (fun a -> a < 1 lsl 32)
      |> List.sort_uniq Int.compare
      |> List.map (fun a -> Netaddr.Prefix.make (Netaddr.Ipv4.of_int a) l))
    (List.init 33 Fun.id)
