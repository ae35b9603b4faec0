(** A parsed configuration: named collections of every construct. *)

module Smap = Map.Make (String)

type t = {
  prefix_lists : Prefix_list.t Smap.t;
  community_lists : Community_list.t Smap.t;
  as_path_lists : As_path_list.t Smap.t;
  route_maps : Route_map.t Smap.t;
  acls : Acl.t Smap.t;
}

let empty =
  {
    prefix_lists = Smap.empty;
    community_lists = Smap.empty;
    as_path_lists = Smap.empty;
    route_maps = Smap.empty;
    acls = Smap.empty;
  }

let add_prefix_list t (pl : Prefix_list.t) =
  { t with prefix_lists = Smap.add pl.Prefix_list.name pl t.prefix_lists }

let add_community_list t (cl : Community_list.t) =
  {
    t with
    community_lists = Smap.add cl.Community_list.name cl t.community_lists;
  }

let add_as_path_list t (al : As_path_list.t) =
  { t with as_path_lists = Smap.add al.As_path_list.name al t.as_path_lists }

let add_route_map t (rm : Route_map.t) =
  { t with route_maps = Smap.add rm.Route_map.name rm t.route_maps }

let add_acl t (acl : Acl.t) =
  { t with acls = Smap.add acl.Acl.name acl t.acls }

let prefix_list t name = Smap.find_opt name t.prefix_lists
let community_list t name = Smap.find_opt name t.community_lists
let as_path_list t name = Smap.find_opt name t.as_path_lists
let route_map t name = Smap.find_opt name t.route_maps
let acl t name = Smap.find_opt name t.acls

let route_maps t = List.map snd (Smap.bindings t.route_maps)
let acls t = List.map snd (Smap.bindings t.acls)

let all_names t =
  List.concat
    [
      List.map fst (Smap.bindings t.prefix_lists);
      List.map fst (Smap.bindings t.community_lists);
      List.map fst (Smap.bindings t.as_path_lists);
      List.map fst (Smap.bindings t.route_maps);
      List.map fst (Smap.bindings t.acls);
    ]

(** Right-biased union: definitions in [b] shadow same-name definitions
    in [a]. *)
let merge a b =
  let right _ x y = match y with Some _ -> y | None -> x in
  let right k x y = right k x y in
  {
    prefix_lists =
      Smap.merge (fun k x y -> right k x y) a.prefix_lists b.prefix_lists;
    community_lists =
      Smap.merge (fun k x y -> right k x y) a.community_lists b.community_lists;
    as_path_lists =
      Smap.merge (fun k x y -> right k x y) a.as_path_lists b.as_path_lists;
    route_maps = Smap.merge (fun k x y -> right k x y) a.route_maps b.route_maps;
    acls = Smap.merge (fun k x y -> right k x y) a.acls b.acls;
  }

(** Names of ancillary lists a route-map references that are missing
    from the database — useful for validating LLM output, which loves to
    hallucinate list names. *)
let undefined_references t (rm : Route_map.t) =
  List.filter
    (fun (kind, name) ->
      match kind with
      | `Prefix_list -> prefix_list t name = None
      | `Community_list -> community_list t name = None
      | `As_path_list -> as_path_list t name = None)
    (Route_map.referenced_lists rm)

(* Sections in a fixed kind order, each kind's in name order: lists
   before the maps and ACLs that name them. *)
let write b t =
  let first = ref true in
  let section write _ x =
    if !first then first := false else Buffer.add_char b '\n';
    write b x
  in
  Smap.iter (section As_path_list.write) t.as_path_lists;
  Smap.iter (section Community_list.write) t.community_lists;
  Smap.iter (section Prefix_list.write) t.prefix_lists;
  Smap.iter (section Acl.write) t.acls;
  Smap.iter (section Route_map.write) t.route_maps
