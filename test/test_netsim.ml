open Netsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pfx = Netaddr.Prefix.of_string_exn
let ip = Netaddr.Ipv4.of_string_exn

let parse_ok src =
  match Config.Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

(* ------------------------------------------------------------------ *)
(* Topology validation                                                *)
(* ------------------------------------------------------------------ *)

let test_topology_validation () =
  let r name ~neighbors =
    Topology.router name ~asn:1 ~router_ip:(ip "1.1.1.1") ~neighbors
  in
  (* Unidirectional session rejected. *)
  (try
     ignore
       (Topology.make
          [ r "A" ~neighbors:[ Topology.neighbor "B" ]; r "B" ~neighbors:[] ]);
     Alcotest.fail "expected Invalid_topology"
   with Topology.Invalid_topology _ -> ());
  (* Unknown neighbor rejected. *)
  (try
     ignore (Topology.make [ r "A" ~neighbors:[ Topology.neighbor "Z" ] ]);
     Alcotest.fail "expected Invalid_topology"
   with Topology.Invalid_topology _ -> ());
  (* Undefined route-map rejected. *)
  try
    ignore
      (Topology.make
         [
           r "A" ~neighbors:[ Topology.neighbor "B" ~import:[ "NOPE" ] ];
           r "B" ~neighbors:[ Topology.neighbor "A" ];
         ]);
    Alcotest.fail "expected Invalid_topology"
  with Topology.Invalid_topology _ -> ()

(* Random router lists for validation, most of them invalid in some
   way: 1–12 routers whose names come from a pool of 14, so duplicates
   occur; sessions that are sometimes one-way; now and then a peer no
   router is named; import/export chains over three map names that
   each router may or may not define. *)
let name_pool = Array.init 14 (fun i -> String.make 1 (Char.chr (65 + i)))
let map_pool = [| "M1"; "M2"; "M3" |]

let gen_router_list st =
  let int k = Random.State.int st k in
  let n = 1 + int 12 in
  let names =
    if int 4 = 0 then Array.init n (fun _ -> name_pool.(int (n + 2)))
    else begin
      let pool = Array.sub name_pool 0 (n + 2) in
      for i = Array.length pool - 1 downto 1 do
        let j = int (i + 1) in
        let x = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- x
      done;
      Array.sub pool 0 n
    end
  in
  let one_way = int 2 = 0 and partial_maps = int 2 = 0 in
  let peers = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if int 3 = 0 then
        match if one_way then int 5 else 2 with
        | 0 -> peers.(i) <- names.(j) :: peers.(i)
        | 1 -> peers.(j) <- names.(i) :: peers.(j)
        | _ ->
            peers.(i) <- names.(j) :: peers.(i);
            peers.(j) <- names.(i) :: peers.(j)
    done
  done;
  if int 4 = 0 then begin
    let i = int n in
    peers.(i) <- "Z" :: peers.(i)
  end;
  let chain () = List.init (int 3) (fun _ -> map_pool.(int 3)) in
  List.init n (fun i ->
      let defined =
        List.filter
          (fun _ -> (not partial_maps) || int 4 > 0)
          (Array.to_list map_pool)
      in
      Topology.router names.(i) ~asn:(1 + i)
        ~router_ip:(Netaddr.Ipv4.of_octets 10 0 i 1)
        ~config:(Figure3.placeholder_maps defined)
        ~neighbors:
          (List.map
             (fun p -> Topology.neighbor p ~import:(chain ()) ~export:(chain ()))
             (List.rev peers.(i))))

let print_router_list routers =
  String.concat "\n"
    (List.map
       (fun (r : Topology.router) ->
         Printf.sprintf "%s maps [%s]: %s" r.name
           (String.concat ","
              (List.map
                 (fun (m : Config.Route_map.t) -> m.name)
                 (Config.Database.route_maps r.config)))
           (String.concat "; "
              (List.map
                 (fun (nb : Topology.neighbor) ->
                   Printf.sprintf "%s in [%s] out [%s]" nb.peer
                     (String.concat "," nb.import)
                     (String.concat "," nb.export))
                 r.neighbors)))
       routers)

let validate make routers =
  match make routers with
  | (_ : Topology.t) -> Ok ()
  | exception Topology.Invalid_topology m -> Error m

let prop_make_matches_reference =
  QCheck.Test.make ~name:"make agrees with the reference" ~count:1000
    (QCheck.make ~print:print_router_list gen_router_list)
    (fun routers ->
      validate Topology.make routers
      = validate Topology_reference.make routers)

(* ------------------------------------------------------------------ *)
(* Basic propagation                                                  *)
(* ------------------------------------------------------------------ *)

(* A -- B -- C line. *)
let line_topology () =
  Topology.make
    [
      Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1")
        ~originated:[ pfx "11.0.0.0/8" ]
        ~neighbors:[ Topology.neighbor "B" ];
      Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1")
        ~neighbors:[ Topology.neighbor "A"; Topology.neighbor "C" ];
      Topology.router "C" ~asn:3 ~router_ip:(ip "3.0.0.1")
        ~originated:[ pfx "33.0.0.0/8" ]
        ~neighbors:[ Topology.neighbor "B" ];
    ]

let test_line_propagation () =
  let state = Simulator.run (line_topology ()) in
  check "converged" true state.Simulator.converged;
  (* C hears A's prefix with path [2; 1]. *)
  (match Simulator.lookup state ~router:"C" ~prefix:(pfx "11.0.0.0/8") with
  | Some e ->
      Alcotest.(check (list int)) "as path" [ 2; 1 ] e.route.Bgp.Route.as_path;
      check "via B" true (e.learned_from = Some "B");
      check "next hop is B" true
        (Netaddr.Ipv4.equal e.route.Bgp.Route.next_hop (ip "2.0.0.1"))
  | None -> Alcotest.fail "C should reach 11.0.0.0/8");
  (* And symmetrically. *)
  check "A reaches C" true
    (Simulator.reaches state ~router:"A" ~prefix:(pfx "33.0.0.0/8"))

let test_loop_prevention () =
  (* Triangle where every router originates; no as-path loops appear. *)
  let t =
    Topology.make
      [
        Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1")
          ~originated:[ pfx "11.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "B"; Topology.neighbor "C" ];
        Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1")
          ~neighbors:[ Topology.neighbor "A"; Topology.neighbor "C" ];
        Topology.router "C" ~asn:3 ~router_ip:(ip "3.0.0.1")
          ~neighbors:[ Topology.neighbor "A"; Topology.neighbor "B" ];
      ]
  in
  let state = Simulator.run t in
  check "converged" true state.Simulator.converged;
  List.iter
    (fun router ->
      List.iter
        (fun (_, (e : Simulator.rib_entry)) ->
          let path = e.route.Bgp.Route.as_path in
          check "no duplicate ASNs" true
            (List.length path = List.length (List.sort_uniq Int.compare path)))
        (Simulator.rib state router))
    [ "A"; "B"; "C" ]

let test_best_path_selection () =
  (* D hears X's prefix from two paths; the longer one loses. *)
  let t =
    Topology.make
      [
        Topology.router "X" ~asn:10 ~router_ip:(ip "10.0.0.1")
          ~originated:[ pfx "99.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "S"; Topology.neighbor "L1" ];
        Topology.router "S" ~asn:20 ~router_ip:(ip "20.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "D" ];
        Topology.router "L1" ~asn:30 ~router_ip:(ip "30.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "L2" ];
        Topology.router "L2" ~asn:31 ~router_ip:(ip "31.0.0.1")
          ~neighbors:[ Topology.neighbor "L1"; Topology.neighbor "D" ];
        Topology.router "D" ~asn:40 ~router_ip:(ip "40.0.0.1")
          ~neighbors:[ Topology.neighbor "S"; Topology.neighbor "L2" ];
      ]
  in
  let state = Simulator.run t in
  match Simulator.lookup state ~router:"D" ~prefix:(pfx "99.0.0.0/8") with
  | Some e -> check "short path wins" true (e.learned_from = Some "S")
  | None -> Alcotest.fail "D should reach 99.0.0.0/8"

let test_local_pref_beats_path_length () =
  (* Import policy bumps local-pref on the longer path; it must win. *)
  let prefer =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map PREFER permit 10
 match ip address prefix-list ALL
 set local-preference 300
|}
  in
  let t =
    Topology.make
      [
        Topology.router "X" ~asn:10 ~router_ip:(ip "10.0.0.1")
          ~originated:[ pfx "99.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "S"; Topology.neighbor "L1" ];
        Topology.router "S" ~asn:20 ~router_ip:(ip "20.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "D" ];
        Topology.router "L1" ~asn:30 ~router_ip:(ip "30.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "L2" ];
        Topology.router "L2" ~asn:31 ~router_ip:(ip "31.0.0.1")
          ~neighbors:[ Topology.neighbor "L1"; Topology.neighbor "D" ];
        Topology.router "D" ~asn:40 ~router_ip:(ip "40.0.0.1") ~config:prefer
          ~neighbors:
            [
              Topology.neighbor "S";
              Topology.neighbor "L2" ~import:[ "PREFER" ];
            ];
      ]
  in
  let state = Simulator.run t in
  match Simulator.lookup state ~router:"D" ~prefix:(pfx "99.0.0.0/8") with
  | Some e ->
      check "local-pref wins" true (e.learned_from = Some "L2");
      check_int "lp 300" 300 e.route.Bgp.Route.local_pref
  | None -> Alcotest.fail "D should reach 99.0.0.0/8"

let test_export_filter () =
  let filter =
    parse_ok
      {|
ip prefix-list SECRET permit 11.0.0.0/8
route-map OUT deny 10
 match ip address prefix-list SECRET
route-map OUT permit 20
|}
  in
  let t =
    Topology.make
      [
        Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1") ~config:filter
          ~originated:[ pfx "11.0.0.0/8"; pfx "12.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "B" ~export:[ "OUT" ] ];
        Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1")
          ~neighbors:[ Topology.neighbor "A" ];
      ]
  in
  let state = Simulator.run t in
  check "filtered prefix hidden" false
    (Simulator.reaches state ~router:"B" ~prefix:(pfx "11.0.0.0/8"));
  check "other prefix visible" true
    (Simulator.reaches state ~router:"B" ~prefix:(pfx "12.0.0.0/8"))

let test_communities_propagate () =
  let tagger =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map TAG permit 10
 match ip address prefix-list ALL
 set community 65000:100 additive
|}
  in
  let t =
    Topology.make
      [
        Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1")
          ~originated:[ pfx "11.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "B" ];
        Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1") ~config:tagger
          ~neighbors:
            [
              Topology.neighbor "A" ~import:[ "TAG" ]; Topology.neighbor "C";
            ];
        Topology.router "C" ~asn:3 ~router_ip:(ip "3.0.0.1")
          ~neighbors:[ Topology.neighbor "B" ];
      ]
  in
  let state = Simulator.run t in
  match Simulator.lookup state ~router:"C" ~prefix:(pfx "11.0.0.0/8") with
  | Some e ->
      check "community survives the next hop" true
        (Bgp.Route.has_community e.route (Bgp.Community.make 65000 100))
  | None -> Alcotest.fail "C should reach 11.0.0.0/8"

(* ------------------------------------------------------------------ *)
(* Figure 3 with the reference configuration                          *)
(* ------------------------------------------------------------------ *)

let test_reference_policies () =
  let state = Simulator.run (Figure3.reference ()) in
  check "converged" true state.Simulator.converged;
  let results = Policies.check_all state in
  List.iter
    (fun (r : Policies.result) ->
      check (r.policy ^ " — " ^ r.detail) true r.holds)
    results

let test_reference_details () =
  let state = Simulator.run (Figure3.reference ()) in
  (* M reaches the service via R1 with local-pref 200. *)
  (match
     Simulator.lookup state ~router:"M" ~prefix:Figure3.service_prefix
   with
  | Some e ->
      check "via R1" true (e.learned_from = Some "R1");
      check_int "lp 200" 200 e.route.Bgp.Route.local_pref
  | None -> Alcotest.fail "M should reach the service prefix");
  (* ISPs see each other's prefixes only directly, never via us; with no
     direct ISP1-ISP2 session they see nothing of each other. *)
  check "isp1 blind to isp2" false
    (Simulator.reaches state ~router:"ISP1" ~prefix:Figure3.isp2_prefix);
  (* The datacenter still reaches ISP routes (no policy forbids it). *)
  check "dc reaches isp1 space" true
    (Simulator.reaches state ~router:"DC" ~prefix:Figure3.isp1_prefix)

let test_policies_fail_without_configs () =
  (* With empty border configs (implicit-deny placeholder maps removed:
     no import/export chains at all), reused prefixes leak and bogons
     reach the ISPs: the checker must notice. *)
  let t =
    Figure3.topology
      ~r1_config:(Figure3.placeholder_maps Figure3.r1_maps)
      ~r2_config:(Figure3.placeholder_maps Figure3.r2_maps)
      ~m_config:(Figure3.placeholder_maps Figure3.m_maps)
      ~dc_config:Config.Database.empty
  in
  let state = Simulator.run t in
  let results = Policies.check_all state in
  (* Placeholder maps deny everything, so the service prefix cannot
     reach M: P2 and P3 fail. *)
  let failed = List.filter (fun (r : Policies.result) -> not r.holds) results in
  check "some policies fail" true (failed <> [])

(* ------------------------------------------------------------------ *)
(* iBGP                                                               *)
(* ------------------------------------------------------------------ *)

(* AS 200 = {B, C, E}; external feed A (AS 100) peers with B. *)
let ibgp_topology ~full_mesh =
  let lp =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map LP250 permit 10
 match ip address prefix-list ALL
 set local-preference 250
|}
  in
  Topology.make
    (List.concat
       [
         [
           Topology.router "A" ~asn:100 ~router_ip:(ip "1.0.0.1")
             ~originated:[ pfx "11.0.0.0/8" ]
             ~neighbors:[ Topology.neighbor "B" ];
           Topology.router "B" ~asn:200 ~router_ip:(ip "2.0.0.1") ~config:lp
             ~neighbors:
               (List.concat
                  [
                    [ Topology.neighbor "A" ~import:[ "LP250" ];
                      Topology.neighbor "C" ];
                    (if full_mesh then [ Topology.neighbor "E" ] else []);
                  ]);
           Topology.router "C" ~asn:200 ~router_ip:(ip "2.0.0.2")
             ~neighbors:[ Topology.neighbor "B"; Topology.neighbor "E" ];
           Topology.router "E" ~asn:200 ~router_ip:(ip "2.0.0.3")
             ~neighbors:
               (List.concat
                  [
                    [ Topology.neighbor "C" ];
                    (if full_mesh then [ Topology.neighbor "B" ] else []);
                  ]);
         ];
       ])

let test_ibgp_no_prepend_and_lp () =
  let state = Simulator.run (ibgp_topology ~full_mesh:true) in
  match Simulator.lookup state ~router:"C" ~prefix:(pfx "11.0.0.0/8") with
  | Some e ->
      (* Only the eBGP hop appears in the path; the import-time local
         preference survives the iBGP hop. *)
      Alcotest.(check (list int)) "path has only AS 100" [ 100 ]
        e.route.Bgp.Route.as_path;
      check_int "local-pref propagated" 250 e.route.Bgp.Route.local_pref
  | None -> Alcotest.fail "C should learn the external route over iBGP"

let test_ibgp_full_mesh_rule () =
  (* Without a B-E session, E must NOT learn the route: C may not
     re-advertise an iBGP-learned route to another iBGP peer. *)
  let partial = Simulator.run (ibgp_topology ~full_mesh:false) in
  check "E blind without full mesh" false
    (Simulator.reaches partial ~router:"E" ~prefix:(pfx "11.0.0.0/8"));
  let full = Simulator.run (ibgp_topology ~full_mesh:true) in
  check "E learns with full mesh" true
    (Simulator.reaches full ~router:"E" ~prefix:(pfx "11.0.0.0/8"))

(* ------------------------------------------------------------------ *)
(* Random-topology properties                                         *)
(* ------------------------------------------------------------------ *)

(* A random tree over n routers (edge i connects node i+1 to a random
   earlier node), each originating one private prefix, no policies. *)
let gen_tree =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    list_size (return (n - 1)) (int_range 0 1000) >>= fun parents ->
    let parent = Array.of_list parents in
    let neighbors = Array.make n [] in
    Array.iteri
      (fun i p ->
        let child = i + 1 and parent = p mod (i + 1) in
        neighbors.(child) <- parent :: neighbors.(child);
        neighbors.(parent) <- child :: neighbors.(parent))
      parent;
    return
      (Topology.make
         (List.init n (fun i ->
              Topology.router
                (Printf.sprintf "N%d" i)
                ~asn:(1000 + i)
                ~router_ip:(Netaddr.Ipv4.of_octets 10 0 i 1)
                ~originated:[ Netaddr.Prefix.make (Netaddr.Ipv4.of_octets 40 i 0 0) 16 ]
                ~neighbors:
                  (List.map
                     (fun j -> Topology.neighbor (Printf.sprintf "N%d" j))
                     neighbors.(i))))))

let arb_tree =
  QCheck.make ~print:(Format.asprintf "%a" Topology.pp) gen_tree

let prop_tree_full_reachability =
  QCheck.Test.make ~name:"policy-free trees: everyone reaches everything"
    ~count:100 arb_tree
    (fun t ->
      let state = Simulator.run t in
      state.Simulator.converged
      && List.for_all
           (fun (r : Topology.router) ->
             List.for_all
               (fun (o : Topology.router) ->
                 List.for_all
                   (fun p -> Simulator.reaches state ~router:r.name ~prefix:p)
                   o.Topology.originated)
               t.Topology.routers)
           t.Topology.routers)

let prop_tree_paths_loop_free =
  QCheck.Test.make ~name:"tree RIB paths never repeat an ASN" ~count:100
    arb_tree
    (fun t ->
      let state = Simulator.run t in
      List.for_all
        (fun (r : Topology.router) ->
          List.for_all
            (fun (_, (e : Simulator.rib_entry)) ->
              let path = e.route.Bgp.Route.as_path in
              List.length path = List.length (List.sort_uniq Int.compare path))
            (Simulator.rib state r.name))
        t.Topology.routers)

let prop_simulation_deterministic =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:50 arb_tree
    (fun t ->
      let a = Simulator.run t and b = Simulator.run t in
      List.for_all
        (fun (r : Topology.router) ->
          Simulator.rib a r.name = Simulator.rib b r.name)
        t.Topology.routers)

let () =
  Alcotest.run "netsim"
    [
      ( "topology",
        [
          Alcotest.test_case "validation" `Quick test_topology_validation;
          QCheck_alcotest.to_alcotest prop_make_matches_reference;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "line propagation" `Quick test_line_propagation;
          Alcotest.test_case "loop prevention" `Quick test_loop_prevention;
          Alcotest.test_case "shortest path wins" `Quick test_best_path_selection;
          Alcotest.test_case "local-pref beats length" `Quick
            test_local_pref_beats_path_length;
          Alcotest.test_case "export filter" `Quick test_export_filter;
          Alcotest.test_case "communities propagate" `Quick
            test_communities_propagate;
        ] );
      ( "ibgp",
        [
          Alcotest.test_case "no prepend, lp propagates" `Quick
            test_ibgp_no_prepend_and_lp;
          Alcotest.test_case "full-mesh rule" `Quick test_ibgp_full_mesh_rule;
        ] );
      ( "random-topologies",
        [
          QCheck_alcotest.to_alcotest prop_tree_full_reachability;
          QCheck_alcotest.to_alcotest prop_tree_paths_loop_free;
          QCheck_alcotest.to_alcotest prop_simulation_deterministic;
        ] );
      ( "figure3",
        [
          Alcotest.test_case "five policies hold" `Quick test_reference_policies;
          Alcotest.test_case "details" `Quick test_reference_details;
          Alcotest.test_case "unconfigured network fails" `Quick
            test_policies_fail_without_configs;
        ] );
    ]
