(* [Netsim.Topology.make] as it validated before it indexed routers by
   name: the duplicate check filters the whole name list once per name,
   and every neighbor entry scans the router list for its peer, so a
   topology costs O(routers²). Kept as the reference the indexed [make]
   must agree with: the same topologies accepted, and the same first
   [Invalid_topology] message raised. *)

open Netsim.Topology

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_topology s)) fmt

let make routers =
  let names = List.map (fun r -> r.name) routers in
  let dup =
    List.exists
      (fun n -> List.length (List.filter (( = ) n) names) > 1)
      names
  in
  if dup then fail "duplicate router name";
  List.iter
    (fun r ->
      List.iter
        (fun nb ->
          if not (List.mem nb.peer names) then
            fail "router %s has unknown neighbor %s" r.name nb.peer;
          (* Sessions must be bidirectional. *)
          let peer = List.find (fun x -> x.name = nb.peer) routers in
          if not (List.exists (fun nb' -> nb'.peer = r.name) peer.neighbors)
          then fail "session %s -> %s is not bidirectional" r.name nb.peer;
          (* Referenced route-maps must exist on this router. *)
          List.iter
            (fun m ->
              if Config.Database.route_map r.config m = None then
                fail "router %s references undefined route-map %s" r.name m)
            (nb.import @ nb.export))
        r.neighbors)
    routers;
  { routers }
