(** Fully random configuration generation with a tunable overlap
    density, for fuzzing and for the density-sweep benchmark. Unlike
    {!Acl_gen}/{!Route_map_gen} the overlap counts here are emergent —
    the analyzer measures them — but the [overlap_density] knob moves
    them monotonically from pairwise-disjoint (0.0) to heavily
    entangled (1.0). *)

let ip = Netaddr.Ipv4.of_octets

(* A fresh region private to rule [i]: host-source in 30.0.0.0/8 space
   sliced by index, so distinct indices never collide. *)
let fresh_region i =
  ( Config.Acl.Host (ip 30 (i / 256 mod 256) (i mod 256) 1),
    Config.Acl.Eq (1024 + (i mod 50000)) )

(* A region derived from an existing rule: widen or shift its source so
   the two intersect without either containing the other. *)
let derived_region rng (base : Config.Acl.rule) i =
  match Config.Acl.addr_to_prefix base.Config.Acl.src with
  | Some p when p.Netaddr.Prefix.len > 1 && p.Netaddr.Prefix.len < 32 ->
      (* Widen the source by one bit: a superset -> overlap. *)
      ( Config.Acl.addr_of_prefix
          (Netaddr.Prefix.make p.Netaddr.Prefix.ip (p.Netaddr.Prefix.len - 1)),
        base.Config.Acl.dst_port )
  | _ ->
      (* Host source: reuse it with a different port predicate that
         still covers the original port. *)
      let port =
        match base.Config.Acl.dst_port with
        | Config.Acl.Eq p -> Config.Acl.Range (max 0 (p - 10), min 65535 (p + 10))
        | _ -> Config.Acl.Any_port
      in
      ignore (rng, i);
      (base.Config.Acl.src, port)

(** A random ACL of [rules] rules; each rule overlaps some earlier rule
    with probability [overlap_density]. *)
let acl ~rng ~name ~rules ~overlap_density =
  if overlap_density < 0.0 || overlap_density > 1.0 then
    invalid_arg "Random_corpus.acl: density must be in [0, 1]";
  let action () =
    if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny
  in
  let built = ref [] in
  for i = 0 to rules - 1 do
    let src, dst_port =
      match !built with
      | prev :: _ when Random.State.float rng 1.0 < overlap_density ->
          (* Overlap a random earlier rule (the most recent is fine and
             keeps chains of entanglement growing). *)
          let target =
            List.nth !built (Random.State.int rng (List.length !built))
          in
          ignore prev;
          derived_region rng target i
      | _ -> fresh_region i
    in
    built :=
      Config.Acl.rule ~protocol:Config.Packet.Tcp ~src ~dst:Config.Acl.Any
        ~dst_port (action ())
      :: !built
  done;
  Config.Acl.make name
    (List.rev !built
    |> List.mapi (fun i (r : Config.Acl.rule) -> { r with seq = (i + 1) * 10 }))

(** A random route-map of [stanzas] stanzas over fresh prefix lists;
    each stanza's prefix window overlaps an earlier stanza's with
    probability [overlap_density]. Returns the accumulated database and
    the map. *)
let route_map ~rng ~db ~name ~stanzas ~overlap_density =
  if overlap_density < 0.0 || overlap_density > 1.0 then
    invalid_arg "Random_corpus.route_map: density must be in [0, 1]";
  let db = ref db in
  let regions = ref [] in
  let out = ref [] in
  for i = 0 to stanzas - 1 do
    let base, lo, hi =
      match !regions with
      | (base, lo, hi) :: _ when Random.State.float rng 1.0 < overlap_density
        ->
          (* Widen the window: guaranteed overlap with the source. *)
          (base, lo, min 32 (hi + 2))
      | _ ->
          let base = Netaddr.Prefix.make (ip 60 (i mod 256) 0 0) 16 in
          (base, 16, 20 + Random.State.int rng 4)
    in
    regions := (base, lo, hi) :: !regions;
    let pl_name = Printf.sprintf "%s_R%d" name i in
    db :=
      Config.Database.add_prefix_list !db
        (Config.Prefix_list.make pl_name
           [
             Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
               (Netaddr.Prefix_range.make base ~ge:(Some lo) ~le:(Some hi));
           ]);
    let action =
      if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny
    in
    out :=
      Config.Route_map.stanza ~seq:((i + 1) * 10)
        ~matches:[ Config.Route_map.Match_prefix_list [ pl_name ] ]
        action
      :: !out
  done;
  let rm = Config.Route_map.make name (List.rev !out) in
  (Config.Database.add_route_map !db rm, rm)
