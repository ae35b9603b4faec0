(** Experiment E5 — fleet-scale synthesis: generate a whole topology
    with {!Netgen}, expand the global policies into per-router intent
    worklists, and run every router's synthesis through the full
    Clarify pipeline, sharded across the domain pool.

    Each router is an independent unit of work: its own mock LLM, its
    own reference-driven oracle, its own scratch BDD manager (so peak
    memory is per-router, not per-fleet), and — with [--record-dir] —
    its own JSONL telemetry log ([e5_<router>.jsonl]) that the
    streaming analytics ({!Analytics.Stream}) can tail while the run is
    live: [clarify fleet status --follow] rebuilds the fleet's progress
    (pending, running, done, stragglers) from those logs and the
    [fleet.json] manifest. *)

module D = Clarify.Disambiguator
module P = Clarify.Pipeline

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

let with_router_recording ~record_dir ~(plan : Netgen.Policy.plan) f =
  match record_dir with
  | None -> f ()
  | Some dir ->
      let path = Filename.concat dir ("e5_" ^ plan.Netgen.Policy.router ^ ".jsonl") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Telemetry.with_channel_recorder oc @@ fun () ->
          Telemetry.with_context [ ("router", plan.Netgen.Policy.router) ]
            (fun () ->
              Telemetry.emit ~kind:"fleet_router" (fun () ->
                  [
                    ("router", Json.String plan.Netgen.Policy.router);
                    ( "role",
                      Json.String (Netgen.role_to_string plan.Netgen.Policy.role)
                    );
                    ("site", Json.Int plan.Netgen.Policy.site);
                    ( "steps",
                      Json.Int (List.length plan.Netgen.Policy.steps) );
                  ]);
              let (r : router_result) = f () in
              Telemetry.emit ~kind:"fleet_router_done" (fun () ->
                  [
                    ("router", Json.String plan.Netgen.Policy.router);
                    ("wall_ns", Json.Float r.wall_ns);
                  ]);
              (* Same close-out idiom as E4: a point-in-time gauge
                 sample, JSON-only in reports. *)
              Telemetry.emit ~kind:"gauges" (fun () ->
                  List.map
                    (fun (n, v) -> (n, Json.Float v))
                    (Obs.Gauge.sample_all ()));
              r))

let build_router ?record_dir ?bdd_base (plan : Netgen.Policy.plan) =
  let open Netgen.Policy in
  with_router_recording ~record_dir ~plan @@ fun () ->
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
  let db, questions, llm =
    Symbdd.Bdd.with_manager manager @@ fun () ->
    let llm = Llm.Mock_llm.create () in
    let questions = ref 0 in
    let db =
      List.fold_left
        (fun db { map; intent } ->
          let db =
            if Config.Database.route_map db map = None then
              Config.Database.add_route_map db
                (Config.Route_map.make map [])
            else db
          in
          let reference_map =
            Option.get (Config.Database.route_map plan.reference map)
          in
          let oracle =
            D.intent_driven (fun route ->
                Config.Semantics.eval_route_map plan.reference
                  reference_map route)
          in
          let prompt = Llm.Intent.to_prompt intent in
          match
            P.run_route_map_update ~llm ~oracle ~db ~target:map ~prompt ()
          with
          | Ok report ->
              questions := !questions + List.length report.P.questions;
              report.P.db
          | Error e ->
              failwith
                (Printf.sprintf "E5 %s %s: %s" plan.router map
                   (P.error_to_string e)))
        Config.Database.empty plan.steps
    in
    (db, !questions, llm)
  in
  {
    router = plan.router;
    role = plan.role;
    site = plan.site;
    steps = List.length plan.steps;
    questions;
    synthesis_calls = (Llm.Mock_llm.stats llm).Llm.Mock_llm.synthesis_calls;
    total_llm_calls = Llm.Mock_llm.total_calls llm;
    wall_ns = (Unix.gettimeofday () -. t0) *. 1e9;
    config = db;
  }

(* ------------------------------------------------------------------ *)
(* The fleet manifest: written before any router starts so a watcher
   (clarify fleet status) knows the full roster, roles and step
   budgets even while logs are still appearing.                        *)
(* ------------------------------------------------------------------ *)

let manifest_name = "fleet.json"

let write_manifest ~dir (net : Netgen.t) (plans : Netgen.Policy.plan list) =
  let nodes =
    List.map
      (fun (p : Netgen.Policy.plan) ->
        Json.Obj
          [
            ("router", Json.String p.Netgen.Policy.router);
            ("role", Json.String (Netgen.role_to_string p.Netgen.Policy.role));
            ("site", Json.Int p.Netgen.Policy.site);
            ("steps", Json.Int (List.length p.Netgen.Policy.steps));
          ])
      plans
  in
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
    ?(profile = Netgen.Fat_tree) ?(grain = 1) ?skew ~routers () =
  let t0 = Unix.gettimeofday () in
  let net = Netgen.generate ~profile ~routers in
  let plans = Netgen.Policy.compile net in
  let plans =
    match skew with
    | None -> plans
    | Some (heavy, factor) -> Netgen.Policy.skew ~heavy ~factor plans
  in
  Option.iter (fun dir -> write_manifest ~dir net plans) record_dir;
  (* Every plan's intents reference the same handful of prefix ranges;
     compile them once into a frozen base shared by all routers. *)
  let bdd_base = Symbdd.Bdd.Manager.create () in
  Symbdd.Bdd.with_manager bdd_base (fun () ->
      List.iter
        (fun r -> ignore (Symbolic.Route_ctx.of_prefix_range r))
        (Netgen.Policy.shared_ranges ()));
  Symbdd.Bdd.Manager.freeze bdd_base;
  (* One router per task (grain 1): a router that carries 10x the
     stanzas delays only itself — idle workers keep claiming its
     pod-mates, which is what keeps the fleet's p99/p50 tail flat.
     [?grain] exists so the bench can reconstruct the coarse
     chunked-fork-join baseline it compares against. *)
  let results =
    Parallel.Pool.map ~grain pool
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
