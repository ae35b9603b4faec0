(** Experiment E5 — fleet-scale synthesis: generate a whole topology
    with {!Netgen}, expand the global policies into per-router intent
    worklists, and place every router's worklist with one
    {!Clarify.Batch.run}, sharded across the domain pool.

    Each router is an independent unit of work: its own mock LLM, its
    own reference-driven oracle, its own scratch BDD manager (so peak
    memory is per-router, not per-fleet), and — with [--record-dir] —
    its own JSONL telemetry log ([e5_<router>.jsonl]) that the
    streaming analytics ({!Analytics.Stream}) can tail while the run is
    live: [clarify fleet status --follow] rebuilds the fleet's progress
    (pending, running, done, stragglers) from those logs and the
    [fleet.json] manifest. *)

(* ------------------------------------------------------------------ *)
(* Per-router synthesis.                                               *)
(* ------------------------------------------------------------------ *)

type router_result = {
  router : string;
  role : Netgen.role;
  site : int;
  steps : int;
  questions : int;
  synthesis_calls : int;
  total_llm_calls : int;
  wall_ns : float; (* nondeterministic; excluded from reports *)
  config : Config.Database.t;
}

type result = {
  profile : Netgen.profile;
  routers : int;
  k : int;
  pods : int;
  results : router_result list; (* generation order, pool-size independent *)
  simulation : (Netsim.Simulator.state * Netgen.check list) option;
  wall_ns : float;
}

(* A plan as the fleet manifest and each log's fleet_router event list
   it. *)
let plan_fields (p : Netgen.Policy.plan) =
  [
    ("router", Json.String p.router);
    ("role", Json.String (Netgen.role_to_string p.role));
    ("site", Json.Int p.site);
    ("steps", Json.Int (List.length p.steps));
  ]

(* With [--record-dir] the router's batch is recorded to
   DIR/e5_<router>.jsonl between a [fleet_router] event, its plan, and
   a [fleet_router_done] event, its wall time, which is what
   [clarify fleet status] follows. *)
let build_router ?record_dir ?bdd_base (plan : Netgen.Policy.plan) =
  let open Netgen.Policy in
  Router_batch.with_recording ~record_dir ~log:("e5_" ^ plan.router ^ ".jsonl")
    ~router:plan.router
  @@ fun () ->
  Telemetry.emit ~kind:"fleet_router" (fun () -> plan_fields plan);
  let t0 = Unix.gettimeofday () in
  (* A scratch manager per router bounds BDD memory by the largest
     single router, not the fleet. When the run supplies a frozen base
     (the prewarmed shared prefix ranges), the scratch manager is a
     delta layered on it, so the shared structure is compiled once per
     run instead of per router. *)
  let manager =
    match bdd_base with
    | Some base -> Symbdd.Bdd.Manager.create_delta base
    | None -> Symbdd.Bdd.Manager.create ()
  in
  let b =
    Symbdd.Bdd.with_manager manager @@ fun () ->
    Router_batch.build ~experiment:"E5" ~router:plan.router
      ~reference:plan.reference plan.steps
  in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  Telemetry.emit ~kind:"fleet_router_done" (fun () ->
      [ ("router", Json.String plan.router); ("wall_ns", Json.Float wall_ns) ]);
  {
    router = plan.router;
    role = plan.role;
    site = plan.site;
    steps = List.length plan.steps;
    questions = b.questions;
    synthesis_calls = b.synthesis_calls;
    total_llm_calls = b.total_llm_calls;
    wall_ns;
    config = b.config;
  }

(* ------------------------------------------------------------------ *)
(* The fleet manifest: written before any router starts so a watcher
   (clarify fleet status) knows the full roster, roles and step
   budgets even while logs are still appearing.                        *)
(* ------------------------------------------------------------------ *)

let manifest_name = "fleet.json"

let write_manifest ~dir (net : Netgen.t) (plans : Netgen.Policy.plan list) =
  let nodes = List.map (fun p -> Json.Obj (plan_fields p)) plans in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "clarify-fleet/1");
        ("profile", Json.String (Netgen.profile_to_string net.Netgen.profile));
        ("routers", Json.Int net.Netgen.routers);
        ("k", Json.Int net.Netgen.k);
        ("pods", Json.Int net.Netgen.pods);
        ("log_prefix", Json.String "e5_");
        ("nodes", Json.List nodes);
      ]
  in
  let oc = open_out (Filename.concat dir manifest_name) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~indent:1 doc))

(* ------------------------------------------------------------------ *)
(* The run.                                                            *)
(* ------------------------------------------------------------------ *)

let run ?record_dir ?(pool = Parallel.Pool.serial) ?(simulate = false)
    ?(profile = Netgen.Fat_tree) ~routers () =
  let t0 = Unix.gettimeofday () in
  let net = Netgen.generate ~profile ~routers in
  let plans = Netgen.Policy.compile net in
  Option.iter (fun dir -> write_manifest ~dir net plans) record_dir;
  (* Every plan's intents reference the same handful of prefix ranges;
     compile them once into a frozen base shared by all routers. *)
  let bdd_base = Symbdd.Bdd.Manager.create () in
  Symbdd.Bdd.with_manager bdd_base (fun () ->
      List.iter
        (fun r -> ignore (Symbolic.Route_ctx.of_prefix_range r))
        (Netgen.Policy.shared_ranges ()));
  Symbdd.Bdd.Manager.freeze bdd_base;
  (* One router per claim: a router that carries 10x the stanzas
     delays only itself — idle workers keep claiming its pod-mates,
     which is what keeps the fleet's p99/p50 tail flat. *)
  let results =
    Parallel.Pool.map pool
      ~f:(fun plan -> build_router ?record_dir ~bdd_base plan)
      plans
  in
  let simulation =
    if simulate then (
      let topo =
        Netgen.install net (List.map (fun r -> (r.router, r.config)) results)
      in
      let state = Netsim.Simulator.run topo in
      Some (state, Netgen.check net state))
    else None
  in
  {
    profile;
    routers;
    k = net.Netgen.k;
    pods = net.Netgen.pods;
    results;
    simulation;
    wall_ns = (Unix.gettimeofday () -. t0) *. 1e9;
  }

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) idx))

let print fmt (r : result) =
  Format.fprintf fmt "=== E5: fleet synthesis (%s, %d routers) ===@.@."
    (Netgen.profile_to_string r.profile)
    r.routers;
  (match r.profile with
  | Netgen.Fat_tree ->
      Format.fprintf fmt "topology: fat-tree k=%d, %d pods@." r.k r.pods
  | Netgen.Wan ->
      Format.fprintf fmt "topology: WAN, %d backbone cities@." r.pods);
  let by_role =
    List.fold_left
      (fun acc (res : router_result) ->
        let role = Netgen.role_to_string res.role in
        let n = try List.assoc role acc with Not_found -> 0 in
        (role, n + 1) :: List.remove_assoc role acc)
      [] r.results
    |> List.sort compare
  in
  Format.fprintf fmt "roles: %s@.@."
    (String.concat ", "
       (List.map (fun (role, n) -> Printf.sprintf "%d %s" n role) by_role));
  let sum f = List.fold_left (fun a x -> a + f x) 0 r.results in
  Format.fprintf fmt
    "steps %d, questions %d, synthesis calls %d, total LLM calls %d@."
    (sum (fun x -> x.steps))
    (sum (fun x -> x.questions))
    (sum (fun x -> x.synthesis_calls))
    (sum (fun x -> x.total_llm_calls));
  let walls =
    List.map (fun (x : router_result) -> x.wall_ns /. 1e6) r.results
    |> Array.of_list
  in
  Array.sort compare walls;
  Format.fprintf fmt
    "router wall (nondeterministic): p50 %.1fms  p99 %.1fms  max %.1fms; \
     fleet wall %.2fs@.@."
    (percentile walls 50.) (percentile walls 99.) (percentile walls 100.)
    (r.wall_ns /. 1e9);
  match r.simulation with
  | None -> Format.fprintf fmt "BGP simulation: skipped (pass --simulate)@."
  | Some (state, checks) ->
      Format.fprintf fmt "BGP simulation: converged=%b in %d rounds@."
        state.Netsim.Simulator.converged state.Netsim.Simulator.rounds;
      List.iter (fun c -> Format.fprintf fmt "%a@." Netgen.pp_check c) checks
