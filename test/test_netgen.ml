(* Tests for the fleet topology generator (lib/netgen) and the E5
   fleet evaluation. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generator shape                                                     *)
(* ------------------------------------------------------------------ *)

let test_fat_tree_shape () =
  let t = Netgen.generate ~profile:Netgen.Fat_tree ~routers:20 in
  checki "internal routers" 20 (List.length t.Netgen.nodes);
  checki "k" 4 t.Netgen.k;
  (* 21 = 20 internal + the external origin router. *)
  checki "topology size" 21
    (List.length (Netsim.Topology.router_names t.Netgen.topology));
  let roles r =
    List.length (List.filter (fun n -> n.Netgen.role = r) t.Netgen.nodes)
  in
  checki "cores" 4 (roles Netgen.Core);
  checki "aggs" 8 (roles Netgen.Aggregation);
  checki "edges" 8 (roles Netgen.Edge)

let test_fat_tree_trim () =
  (* A non-canonical size keeps the spine and truncates the pod tail,
     pruning dangling sessions: the result must still validate. *)
  let t = Netgen.generate ~profile:Netgen.Fat_tree ~routers:13 in
  checki "internal routers" 13 (List.length t.Netgen.nodes);
  List.iter
    (fun r ->
      let open Netsim.Topology in
      List.iter
        (fun nb -> ignore (find t.Netgen.topology nb.peer))
        r.neighbors)
    t.Netgen.topology.Netsim.Topology.routers

let test_wan_shape () =
  let t = Netgen.generate ~profile:Netgen.Wan ~routers:25 in
  checki "internal routers" 25 (List.length t.Netgen.nodes);
  let roles r =
    List.length (List.filter (fun n -> n.Netgen.role = r) t.Netgen.nodes)
  in
  checki "backbone" 11 (roles Netgen.Backbone);
  checki "sites" 14 (roles Netgen.Site)

let test_generate_deterministic () =
  let show t =
    Format.asprintf "%a" Netsim.Topology.pp t.Netgen.topology
  in
  let a = Netgen.generate ~profile:Netgen.Fat_tree ~routers:32 in
  let b = Netgen.generate ~profile:Netgen.Fat_tree ~routers:32 in
  check Alcotest.string "byte-identical topologies" (show a) (show b)

let test_invalid_sizes () =
  Alcotest.check_raises "zero routers"
    (Netgen.Invalid_profile "routers must be >= 1 (got 0)") (fun () ->
      ignore (Netgen.generate ~profile:Netgen.Fat_tree ~routers:0))

(* [install] against the fold it replaced, one [Topology.with_config]
   per config: every other router gets its reference config, one router
   is named twice (the later config wins) and one name is unknown (no
   router changes). The generated fleet also validates under the
   reference [make]. *)
let test_install_matches_fold () =
  List.iter
    (fun (profile, routers) ->
      let t = Netgen.generate ~profile ~routers in
      ignore (Topology_reference.make t.Netgen.topology.Netsim.Topology.routers);
      let plans = Netgen.Policy.compile t in
      let configs =
        List.filteri (fun i _ -> i mod 2 = 0) plans
        |> List.map (fun (p : Netgen.Policy.plan) ->
               (p.Netgen.Policy.router, p.Netgen.Policy.reference))
      in
      let configs =
        configs
        @ [
            (fst (List.hd configs), Config.Database.empty);
            ("no-such-router", Config.Database.empty);
          ]
      in
      let fold =
        List.fold_left
          (fun topo (name, db) -> Netsim.Topology.with_config topo name db)
          t.Netgen.topology configs
      in
      let installed = Netgen.install t configs in
      let same (a : Netsim.Topology.router) (b : Netsim.Topology.router) =
        a.name = b.name && a.asn = b.asn && a.router_ip = b.router_ip
        && a.originated = b.originated && a.neighbors = b.neighbors
        && a.config == b.config
      in
      checkb
        (Printf.sprintf "%s %d: install = with_config fold"
           (Netgen.profile_to_string profile) routers)
        true
        (List.equal same fold.Netsim.Topology.routers
           installed.Netsim.Topology.routers))
    [
      (Netgen.Fat_tree, 13); (Netgen.Fat_tree, 20); (Netgen.Fat_tree, 64);
      (Netgen.Wan, 13); (Netgen.Wan, 25); (Netgen.Wan, 64);
    ]

(* ------------------------------------------------------------------ *)
(* Policy compiler                                                     *)
(* ------------------------------------------------------------------ *)

let test_policy_plans () =
  let t = Netgen.generate ~profile:Netgen.Fat_tree ~routers:20 in
  let plans = Netgen.Policy.compile t in
  checki "one plan per router" 20 (List.length plans);
  List.iter
    (fun (p : Netgen.Policy.plan) ->
      let expected =
        match p.Netgen.Policy.role with
        | Netgen.Edge | Netgen.Site -> 5
        | _ -> 4
      in
      checki
        (p.Netgen.Policy.router ^ " steps")
        expected
        (List.length p.Netgen.Policy.steps);
      (* Every step's target map has a reference version for the
         oracle. *)
      List.iter
        (fun (s : Netgen.Policy.step) ->
          checkb
            (p.Netgen.Policy.router ^ "/" ^ s.Netgen.Policy.map ^ " reference")
            true
            (Config.Database.route_map p.Netgen.Policy.reference
               s.Netgen.Policy.map
            <> None))
        p.Netgen.Policy.steps)
    plans

(* ------------------------------------------------------------------ *)
(* E5 end-to-end on a small fleet, with simulation checks              *)
(* ------------------------------------------------------------------ *)

let test_e5_small_fleet () =
  let r = Evaluation.E5_fleet.run ~simulate:true ~routers:20 () in
  checki "results" 20 (List.length r.Evaluation.E5_fleet.results);
  List.iter
    (fun (res : Evaluation.E5_fleet.router_result) ->
      checkb (res.Evaluation.E5_fleet.router ^ " asked questions") true
        (res.Evaluation.E5_fleet.questions > 0))
    r.Evaluation.E5_fleet.results;
  match r.Evaluation.E5_fleet.simulation with
  | None -> Alcotest.fail "expected simulation"
  | Some (state, checks) ->
      checkb "converged" true state.Netsim.Simulator.converged;
      List.iter
        (fun (c : Netgen.check) ->
          checkb ("check " ^ c.Netgen.name) true c.Netgen.ok)
        checks

let test_e5_serial_equals_pooled () =
  let strip (r : Evaluation.E5_fleet.router_result) =
    Printf.sprintf "%s q=%d s=%d l=%d" r.Evaluation.E5_fleet.router
      r.Evaluation.E5_fleet.questions r.Evaluation.E5_fleet.synthesis_calls
      r.Evaluation.E5_fleet.total_llm_calls
  in
  let serial = Evaluation.E5_fleet.run ~routers:12 () in
  let pool = Parallel.Pool.create ~domains:4 () in
  let pooled = Evaluation.E5_fleet.run ~pool ~routers:12 () in
  Alcotest.(check (list string))
    "serial = pooled"
    (List.map strip serial.Evaluation.E5_fleet.results)
    (List.map strip pooled.Evaluation.E5_fleet.results)

let () =
  Alcotest.run "netgen"
    [
      ( "generator",
        [
          Alcotest.test_case "fat-tree shape" `Quick test_fat_tree_shape;
          Alcotest.test_case "fat-tree trim" `Quick test_fat_tree_trim;
          Alcotest.test_case "wan shape" `Quick test_wan_shape;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "invalid sizes" `Quick test_invalid_sizes;
          Alcotest.test_case "install = with_config fold" `Quick
            test_install_matches_fold;
        ] );
      ( "policy",
        [ Alcotest.test_case "plans" `Quick test_policy_plans ] );
      ( "e5",
        [
          Alcotest.test_case "small fleet + simulation" `Slow
            test_e5_small_fleet;
          Alcotest.test_case "serial = pooled" `Slow
            test_e5_serial_equals_pooled;
        ] );
    ]
