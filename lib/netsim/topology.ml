(** Network topologies: eBGP routers, sessions, originated prefixes and
    per-neighbor import/export route-map chains. *)

type neighbor = {
  peer : string; (* remote router name *)
  import : string list; (* route-map chain applied to received routes *)
  export : string list; (* route-map chain applied to advertised routes *)
}

type router = {
  name : string;
  asn : int;
  router_ip : Netaddr.Ipv4.t; (* advertised as next-hop *)
  originated : Netaddr.Prefix.t list;
  neighbors : neighbor list;
  config : Config.Database.t; (* this router's lists and route-maps *)
}

type t = { routers : router list }

exception Invalid_topology of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_topology s)) fmt

let router ?(originated = []) ?(neighbors = [])
    ?(config = Config.Database.empty) ~asn ~router_ip name =
  { name; asn; router_ip; originated; neighbors; config }

let neighbor ?(import = []) ?(export = []) peer = { peer; import; export }

(* One name index and one set of directed sessions make validation
   O(routers + sessions). The checks run in a fixed order — duplicate
   names first, then each router's neighbors in turn: unknown peer,
   missing back session, undefined route-map — so the first failure
   raised is well defined. *)
let make routers =
  let n = List.length routers in
  let names = Hashtbl.create n and sessions = Hashtbl.create n in
  List.iter
    (fun r ->
      if Hashtbl.mem names r.name then fail "duplicate router name";
      Hashtbl.add names r.name ();
      List.iter
        (fun nb -> Hashtbl.replace sessions (r.name, nb.peer) ())
        r.neighbors)
    routers;
  let defined r m =
    if Config.Database.route_map r.config m = None then
      fail "router %s references undefined route-map %s" r.name m
  in
  List.iter
    (fun r ->
      List.iter
        (fun nb ->
          if not (Hashtbl.mem names nb.peer) then
            fail "router %s has unknown neighbor %s" r.name nb.peer;
          (* Sessions must be bidirectional. *)
          if not (Hashtbl.mem sessions (nb.peer, r.name)) then
            fail "session %s -> %s is not bidirectional" r.name nb.peer;
          (* Referenced route-maps must exist on this router. *)
          List.iter (defined r) nb.import;
          List.iter (defined r) nb.export)
        r.neighbors)
    routers;
  { routers }

let find t name =
  match List.find_opt (fun r -> r.name = name) t.routers with
  | Some r -> r
  | None -> fail "no router named %s" name

let router_names t = List.map (fun r -> r.name) t.routers

(** Replace one router's configuration (e.g. after an incremental
    update synthesized a new route-map). *)
let with_config t name config =
  {
    routers =
      List.map
        (fun r -> if r.name = name then { r with config } else r)
        t.routers;
  }

let pp fmt t =
  List.iter
    (fun r ->
      Format.fprintf fmt "@[<v>router %s (AS %d, %a)@ " r.name r.asn
        Netaddr.Ipv4.pp r.router_ip;
      List.iter
        (fun p -> Format.fprintf fmt " network %a@ " Netaddr.Prefix.pp p)
        r.originated;
      List.iter
        (fun nb ->
          Format.fprintf fmt " neighbor %s import [%s] export [%s]@ " nb.peer
            (String.concat "," nb.import)
            (String.concat "," nb.export))
        r.neighbors;
      Format.fprintf fmt "@]@.")
    t.routers
