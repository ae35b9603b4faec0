(** Deterministic fleet topology generator (see netgen.mli). *)

type profile = Fat_tree | Wan

let profile_to_string = function Fat_tree -> "fat-tree" | Wan -> "wan"

type role = Core | Aggregation | Edge | Backbone | Site

let role_to_string = function
  | Core -> "core"
  | Aggregation -> "aggregation"
  | Edge -> "edge"
  | Backbone -> "backbone"
  | Site -> "site"

type node = { name : string; role : role; site : int }

type t = {
  profile : profile;
  routers : int;
  k : int;
  pods : int;
  nodes : node list;
  topology : Netsim.Topology.t;
  external_router : string;
}

exception Invalid_profile of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid_profile m)) fmt
let pfx = Netaddr.Prefix.of_string_exn

(* Shared prefixes. The service and edge prefixes live in public space
   so the bogon filter lets them through; the probe sits inside the
   192.168.0.0/16 bogon. *)
let service_prefix = pfx "60.10.0.0/16"
let bogon_probe = pfx "192.168.77.0/24"
let reserved_prefix = pfx "192.168.0.0/16"
let edge_prefix i = pfx (Printf.sprintf "20.%d.%d.0/24" (i / 256) (i mod 256))

let max_routers = 4096
let external_name = "ext0"
let external_asn = 64500

(* Internal router i: a private ASN and a CGNAT management address,
   both pure functions of the generation index. *)
let asn_of_index i = 64512 + i

let ip_of_index i =
  Netaddr.Ipv4.of_octets 100 (64 + (i / 254)) ((i mod 254) + 1) 0

let map_in name = name ^ "_IN"
let map_out name = name ^ "_OUT"

(* A generated router before numbering: neighbors by name only. *)
type proto = { p_name : string; p_role : role; p_site : int; p_peers : string list }

(* ------------------------------------------------------------------ *)
(* Fat-tree. Canonically arity k (even, 4..16) gives (k/2)^2 cores and
   k pods of k/2 aggregation + k/2 edge routers. For fleets beyond the
   k=16 budget (320 routers) we keep k=16 and append extra pods; each
   aggregation router j still uplinks to the same core group
   [j*(k/2) .. j*(k/2)+k/2-1], so every pod is wired identically. *)
(* ------------------------------------------------------------------ *)

let fat_tree_protos ~k ~pods =
  let half = k / 2 in
  let cores = half * half in
  let core_name i = Printf.sprintf "core%03d" i in
  let agg_name p j = Printf.sprintf "pod%03d_agg%d" p j in
  let edge_name p j = Printf.sprintf "pod%03d_edge%d" p j in
  let core_protos =
    List.init cores (fun i ->
        let peers =
          (* core i belongs to group i/half and serves agg #group in
             every pod. *)
          List.init pods (fun p -> agg_name p (i / half))
        in
        { p_name = core_name i; p_role = Core; p_site = -1; p_peers = peers })
  in
  let pod_protos =
    List.concat
      (List.init pods (fun p ->
           let aggs =
             List.init half (fun j ->
                 let ups = List.init half (fun c -> core_name ((j * half) + c)) in
                 let downs = List.init half (fun e -> edge_name p e) in
                 {
                   p_name = agg_name p j;
                   p_role = Aggregation;
                   p_site = p;
                   p_peers = ups @ downs;
                 })
           in
           let edges =
             List.init half (fun j ->
                 {
                   p_name = edge_name p j;
                   p_role = Edge;
                   p_site = p;
                   p_peers = List.init half (fun a -> agg_name p a);
                 })
           in
           aggs @ edges))
  in
  core_protos @ pod_protos

let fat_tree_dims ~routers =
  (* Smallest even k in 4..16 whose canonical budget covers the fleet;
     past k=16 the pod count grows instead. *)
  let rec pick k =
    if k >= 16 then 16
    else if 5 * k * k / 4 >= routers then k
    else pick (k + 2)
  in
  let k = pick 4 in
  let half = k / 2 in
  let cores = half * half in
  let pods =
    if 5 * k * k / 4 >= routers then k
    else ((routers - cores + k - 1) / k) + 1 (* one spare partial pod *)
  in
  (k, pods)

(* ------------------------------------------------------------------ *)
(* WAN: the classic 11-city Abilene backbone; site routers attach
   round-robin to backbone cities.                                     *)
(* ------------------------------------------------------------------ *)

let abilene_cities =
  [
    "seattle"; "sunnyvale"; "losangeles"; "denver"; "kansascity"; "houston";
    "indianapolis"; "chicago"; "atlanta"; "newyork"; "washington";
  ]

let abilene_links =
  [
    (0, 1); (0, 3); (1, 2); (1, 3); (2, 5); (3, 4); (4, 5); (4, 6); (5, 8);
    (6, 7); (6, 8); (7, 9); (8, 10); (9, 10);
  ]

let wan_protos ~sites =
  let bb = List.length abilene_cities in
  let bb_name i = Printf.sprintf "wan%02d_%s" i (List.nth abilene_cities i) in
  let site_name i = Printf.sprintf "site%03d" i in
  let bb_protos =
    List.mapi
      (fun i city ->
        let links =
          List.filter_map
            (fun (a, b) ->
              if a = i then Some (bb_name b)
              else if b = i then Some (bb_name a)
              else None)
            abilene_links
        in
        let attached =
          List.filter_map
            (fun s -> if s mod bb = i then Some (site_name s) else None)
            (List.init sites Fun.id)
        in
        ignore city;
        { p_name = bb_name i; p_role = Backbone; p_site = -1; p_peers = links @ attached })
      abilene_cities
  in
  let site_protos =
    List.init sites (fun s ->
        { p_name = site_name s; p_role = Site; p_site = s; p_peers = [ bb_name (s mod bb) ] })
  in
  bb_protos @ site_protos

(* ------------------------------------------------------------------ *)
(* Assembly: trim to the requested size, prune dangling sessions, and
   number the survivors.                                               *)
(* ------------------------------------------------------------------ *)

let generate ~profile ~routers =
  if routers < 1 then invalid "routers must be >= 1 (got %d)" routers;
  if routers > max_routers then
    invalid "routers must be <= %d (got %d)" max_routers routers;
  let k, pods, protos =
    match profile with
    | Fat_tree ->
        let k, pods = fat_tree_dims ~routers in
        (k, pods, fat_tree_protos ~k ~pods)
    | Wan ->
        let bb = List.length abilene_cities in
        let sites = max 0 (routers - bb) in
        (0, bb, wan_protos ~sites)
  in
  let kept =
    (* Generation order is cores/backbone first, then pods/sites, so a
       truncated fleet keeps its spine. *)
    List.filteri (fun i _ -> i < routers) protos
  in
  let alive = Hashtbl.create (List.length kept) in
  List.iter (fun p -> Hashtbl.replace alive p.p_name ()) kept;
  let edge_counter = ref 0 in
  let open Netsim.Topology in
  let internal =
    List.mapi
      (fun i p ->
        let peers = List.filter (Hashtbl.mem alive) p.p_peers in
        let peers =
          if i = 0 then peers @ [ external_name ] else peers
        in
        let originated =
          match p.p_role with
          | Edge | Site ->
              let e = !edge_counter in
              incr edge_counter;
              [ edge_prefix e ]
          | Core | Aggregation | Backbone -> []
        in
        let neighbors =
          List.map
            (fun peer ->
              neighbor peer ~import:[ map_in p.p_name ] ~export:[ map_out p.p_name ])
            peers
        in
        let config =
          Netsim.Figure3.placeholder_maps [ map_in p.p_name; map_out p.p_name ]
        in
        router p.p_name ~asn:(asn_of_index i) ~router_ip:(ip_of_index i)
          ~originated ~neighbors ~config)
      kept
  in
  let first = (List.hd kept).p_name in
  let ext =
    router external_name ~asn:external_asn
      ~router_ip:(Netaddr.Ipv4.of_octets 100 127 255 1)
      ~originated:[ service_prefix; bogon_probe ]
      ~neighbors:[ neighbor first ]
  in
  let topology = make (internal @ [ ext ]) in
  let nodes =
    List.map (fun p -> { name = p.p_name; role = p.p_role; site = p.p_site }) kept
  in
  { profile; routers; k; pods; nodes; topology; external_router = external_name }

let install t configs =
  let by_name = Hashtbl.create (List.length configs) in
  List.iter (fun (name, db) -> Hashtbl.replace by_name name db) configs;
  {
    Netsim.Topology.routers =
      List.map
        (fun (r : Netsim.Topology.router) ->
          match Hashtbl.find_opt by_name r.name with
          | Some config -> { r with config }
          | None -> r)
        t.topology.Netsim.Topology.routers;
  }

let site_community node =
  (* Cores and backbone routers share the spine tag; each pod/site gets
     its own. Pod counts are bounded by max_routers, so the value fits
     comfortably in 16 bits. *)
  if node.site < 0 then Bgp.Community.make 65000 99
  else Bgp.Community.make 65000 (100 + node.site)

(* ------------------------------------------------------------------ *)
(* Global-policy compiler.                                             *)
(* ------------------------------------------------------------------ *)

module Policy = struct
  type step = { map : string; intent : Llm.Intent.t }

  type plan = {
    router : string;
    role : role;
    site : int;
    maps : string list;
    steps : step list;
    reference : Config.Database.t;
  }

  module I = Llm.Intent

  let bogon_ranges =
    List.map
      (fun p -> Netaddr.Prefix_range.make p ~ge:None ~le:(Some 32))
      Netsim.Figure3.bogons

  let reserved_range =
    Netaddr.Prefix_range.make reserved_prefix ~ge:None ~le:(Some 32)

  let service_range = Netaddr.Prefix_range.exact service_prefix

  (* Every plan's intents reference the same handful of prefix ranges;
     fleet runs prewarm their symbolic encodings into a shared frozen
     BDD base so per-router deltas never recompile them. *)
  let shared_ranges () = bogon_ranges @ [ reserved_range; service_range ]

  let deny_bogons = I.route_map_intent ~prefixes:bogon_ranges Config.Action.Deny

  let deny_reserved =
    I.route_map_intent ~prefixes:[ reserved_range ] Config.Action.Deny

  let permit_all = I.route_map_intent Config.Action.Permit

  let permit_all_tagging community =
    I.route_map_intent
      ~sets:
        [ Config.Route_map.Set_community { communities = [ community ]; additive = true } ]
      Config.Action.Permit

  let permit_service_lp200 =
    I.route_map_intent ~prefixes:[ service_range ]
      ~sets:[ Config.Route_map.Set_local_pref 200 ]
      Config.Action.Permit

  let wants_service role = match role with Edge | Site -> true | _ -> false

  (* The hand-written reference config the oracle answers from: what a
     network engineer would have produced for this router by hand. *)
  let reference_config ~name ~community ~service =
    let service_stanza =
      if service then
        Printf.sprintf
          "route-map %s permit 20\n\
          \ match ip address prefix-list SERVICE\n\
          \ set local-preference 200\n"
          (map_in name)
      else ""
    in
    let src =
      Printf.sprintf
        {|
ip prefix-list BOGONS seq 10 permit 0.0.0.0/8 le 32
ip prefix-list BOGONS seq 20 permit 10.0.0.0/8 le 32
ip prefix-list BOGONS seq 30 permit 127.0.0.0/8 le 32
ip prefix-list BOGONS seq 40 permit 169.254.0.0/16 le 32
ip prefix-list BOGONS seq 50 permit 172.16.0.0/12 le 32
ip prefix-list BOGONS seq 60 permit 192.168.0.0/16 le 32
ip prefix-list BOGONS seq 70 permit 224.0.0.0/4 le 32
ip prefix-list SERVICE seq 10 permit 60.10.0.0/16
ip prefix-list RESERVED seq 10 permit 192.168.0.0/16 le 32
route-map %s deny 10
 match ip address prefix-list BOGONS
%sroute-map %s permit 30
 set community %s additive
route-map %s deny 10
 match ip address prefix-list RESERVED
route-map %s permit 20
|}
        (map_in name) service_stanza (map_in name)
        (Bgp.Community.to_string community)
        (map_out name) (map_out name)
    in
    match Config.Parser.parse src with
    | Ok db -> db
    | Error m -> failwith ("Netgen.Policy.reference_config: " ^ m)

  let compile t =
    List.map
      (fun node ->
        let community = site_community node in
        let service = wants_service node.role in
        let min_ = map_in node.name and mout = map_out node.name in
        let steps =
          [
            { map = min_; intent = deny_bogons };
            { map = min_; intent = permit_all_tagging community };
          ]
          @ (if service then
               (* Learned last, so it must be disambiguated above the
                  catch-all tag stanza. *)
               [ { map = min_; intent = permit_service_lp200 } ]
             else [])
          @ [
              { map = mout; intent = deny_reserved };
              { map = mout; intent = permit_all };
            ]
        in
        {
          router = node.name;
          role = node.role;
          site = node.site;
          maps = [ min_; mout ];
          steps;
          reference = reference_config ~name:node.name ~community ~service;
        })
      t.nodes
end

(* ------------------------------------------------------------------ *)
(* Fleet-wide policy probes over a simulation.                         *)
(* ------------------------------------------------------------------ *)

type check = { name : string; ok : bool; detail : string }

let check t state =
  let leaves =
    List.filter (fun n -> Policy.wants_service n.role) t.nodes
  in
  let internal_names = List.map (fun (n : node) -> n.name) t.nodes in
  let converged =
    {
      name = "converged";
      ok = state.Netsim.Simulator.converged;
      detail = Printf.sprintf "%d rounds" state.Netsim.Simulator.rounds;
    }
  in
  let bogon_holders =
    List.filter
      (fun r -> Netsim.Simulator.reaches state ~router:r ~prefix:bogon_probe)
      internal_names
  in
  let bogons =
    {
      name = "bogons-filtered";
      ok = bogon_holders = [];
      detail =
        (match bogon_holders with
        | [] -> "probe absent from every internal RIB"
        | rs -> Printf.sprintf "probe visible on %d routers (%s...)"
                  (List.length rs) (List.hd rs));
    }
  in
  let service_misses =
    List.filter
      (fun (n : node) ->
        match
          Netsim.Simulator.lookup state ~router:n.name ~prefix:service_prefix
        with
        | Some e -> e.Netsim.Simulator.route.Bgp.Route.local_pref <> 200
        | None -> true)
      leaves
  in
  let service =
    {
      name = "service-lp200-at-leaves";
      ok = service_misses = [] && leaves <> [];
      detail =
        (if leaves = [] then "no edge/site routers in this fleet"
         else
           Printf.sprintf "%d/%d edge+site routers hold %s at LP 200"
             (List.length leaves - List.length service_misses)
             (List.length leaves)
             (Netaddr.Prefix.to_string service_prefix));
    }
  in
  let spread =
    (* Spot-check fleet-wide propagation: the first edge prefix must be
       visible from the last router and vice versa. *)
    match leaves with
    | [] -> { name = "edge-prefixes-propagate"; ok = true; detail = "skipped" }
    | (first : node) :: _ ->
        let last = List.nth leaves (List.length leaves - 1) in
        let p0 = edge_prefix 0 in
        let ok =
          Netsim.Simulator.reaches state ~router:last.name ~prefix:p0
          && Netsim.Simulator.reaches state ~router:first.name
               ~prefix:(edge_prefix (List.length leaves - 1))
        in
        {
          name = "edge-prefixes-propagate";
          ok;
          detail =
            Printf.sprintf "%s <-> %s" first.name last.name;
        }
  in
  [ converged; bogons; service; spread ]

let pp_check fmt c =
  Format.fprintf fmt "[%s] %-28s %s"
    (if c.ok then "PASS" else "FAIL")
    c.name c.detail
