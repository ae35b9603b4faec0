(** Experiment E4 — the paper's Section 5 evaluation (Figures 3 and 4):
    incrementally synthesize the route-maps of routers M, R1 and R2 from
    natural-language intents, one {!Clarify.Batch.run} per router,
    install them on the Figure 3 topology, and check the five global
    policies.

    The global policies are decomposed Lightyear-style into per-router,
    per-interface local intents, each of which becomes one stanza
    insertion. The simulated user answering disambiguation questions is
    driven by the hand-written reference configuration. *)

module I = Llm.Intent

let bogon_ranges =
  List.map
    (fun p -> Netaddr.Prefix_range.make p ~ge:None ~le:(Some 32))
    Netsim.Figure3.bogons

let reused_range =
  Netaddr.Prefix_range.make
    (Netaddr.Prefix.of_string_exn "192.168.0.0/16")
    ~ge:None ~le:(Some 32)

let service_range =
  Netaddr.Prefix_range.exact Netsim.Figure3.service_prefix

(* The building-block intents. *)
let deny_bogons =
  I.route_map_intent ~prefixes:bogon_ranges Config.Action.Deny

let deny_reused = I.route_map_intent ~prefixes:[ reused_range ] Config.Action.Deny
let permit_all = I.route_map_intent Config.Action.Permit

let permit_all_tagging community =
  I.route_map_intent
    ~sets:[ Config.Route_map.Set_community { communities = [ community ]; additive = true } ]
    Config.Action.Permit

let deny_community community =
  I.route_map_intent ~communities:[ community ] Config.Action.Deny

let permit_service = I.route_map_intent ~prefixes:[ service_range ] Config.Action.Permit

let permit_service_lp200 =
  I.route_map_intent ~prefixes:[ service_range ]
    ~sets:[ Config.Route_map.Set_local_pref 200 ]
    Config.Action.Permit

(* One update step: which map, in which order, built from which intent. *)
let step map intent = { Netgen.Policy.map; intent }

let border_steps ~prefix_name ~isp ~own_community ~other_community =
  let m n = prefix_name ^ "_" ^ n in
  [
    (* import from the ISP: drop bogons, tag the rest. *)
    step (m ("FROM_" ^ isp)) deny_bogons;
    step (m ("FROM_" ^ isp)) (permit_all_tagging own_community);
    (* export to the ISP: drop bogons, then everything else, then learn
       that routes from the other ISP must not leak (inserted last, so
       it must be disambiguated above the catch-all). *)
    step (m ("TO_" ^ isp)) deny_bogons;
    step (m ("TO_" ^ isp)) permit_all;
    step (m ("TO_" ^ isp)) (deny_community other_community);
    (* import from the datacenter: service first, reused blocked. *)
    step (m "FROM_DC") permit_service;
    step (m "FROM_DC") deny_reused;
    step (m "FROM_DC") permit_all;
    (* import from management: reused blocked. *)
    step (m "FROM_M") deny_reused;
    step (m "FROM_M") permit_all;
    (* export to management: reused blocked. *)
    step (m "TO_M") deny_reused;
    step (m "TO_M") permit_all;
  ]

let m_steps =
  [
    step "M_FROM_R1" permit_service_lp200;
    step "M_FROM_R1" permit_all;
    step "M_FROM_R1" deny_reused;
    step "M_FROM_R2" deny_reused;
    step "M_FROM_R2" permit_all;
    step "M_TO_R1" deny_reused;
    step "M_TO_R1" permit_all;
    step "M_TO_R2" deny_reused;
    step "M_TO_R2" permit_all;
  ]

type router_stats = {
  router : string;
  route_maps : int;
  synthesis_calls : int; (* the paper's "#LLM calls" *)
  total_llm_calls : int; (* including classification and spec extraction *)
  questions : int; (* the paper's "#Disambiguation" *)
}

type result = {
  stats : router_stats list;
  policies : Netsim.Policies.result list;
  converged : bool;
  rounds : int;
}

(* One router's config: its steps placed with one batch, the user
   answering from the router's reference config. With --record-dir the
   batch is recorded to D/e4_<router>.jsonl, so `clarify report D`
   rebuilds Figure 4 from the logs alone. *)
let build_router ?record_dir ~router ~map_names ~steps ~reference_db () =
  Router_batch.with_recording ~record_dir ~log:("e4_" ^ router ^ ".jsonl")
    ~router
  @@ fun () ->
  let b =
    Router_batch.build ~experiment:"E4" ~router ~reference:reference_db steps
  in
  ( b.config,
    {
      router;
      route_maps = List.length map_names;
      synthesis_calls = b.synthesis_calls;
      total_llm_calls = b.total_llm_calls;
      questions = b.questions;
    } )

(* Each router's name, route-maps, steps and reference config. *)
let routers () =
  let reference = Netsim.Figure3.reference () in
  List.map
    (fun (router, map_names, steps) ->
      ( router,
        map_names,
        steps,
        (Netsim.Topology.find reference router).Netsim.Topology.config ))
    [
      ("M", Netsim.Figure3.m_maps, m_steps);
      ( "R1",
        Netsim.Figure3.r1_maps,
        border_steps ~prefix_name:"R1" ~isp:"ISP1"
          ~own_community:Netsim.Figure3.from_isp1_community
          ~other_community:Netsim.Figure3.from_isp2_community );
      ( "R2",
        Netsim.Figure3.r2_maps,
        border_steps ~prefix_name:"R2" ~isp:"ISP2"
          ~own_community:Netsim.Figure3.from_isp2_community
          ~other_community:Netsim.Figure3.from_isp1_community );
    ]

(* The three routers are synthesized independently (each from its own
   reference config, with its own mock LLM and oracle), so a pool runs
   them on separate domains: each worker builds BDDs in its own manager
   and records telemetry through its own domain-local recorder, and
   only plain data (the config database and stats) crosses back. The
   per-router results are assembled in fixed M, R1, R2 order, so the
   report is identical at every pool size. *)
let run ?record_dir ?(pool = Parallel.Pool.serial) () =
  let built =
    Parallel.Pool.map pool
      ~f:(fun (router, map_names, steps, reference_db) ->
        build_router ?record_dir ~router ~map_names ~steps ~reference_db ())
      (routers ())
  in
  let (m_db, m_stats), (r1_db, r1_stats), (r2_db, r2_stats) =
    match built with [ m; r1; r2 ] -> (m, r1, r2) | _ -> assert false
  in
  let topology =
    Netsim.Figure3.topology ~r1_config:r1_db ~r2_config:r2_db ~m_config:m_db
      ~dc_config:Config.Database.empty
  in
  let state = Netsim.Simulator.run topology in
  {
    stats = [ m_stats; r1_stats; r2_stats ];
    policies = Netsim.Policies.check_all state;
    converged = state.Netsim.Simulator.converged;
    rounds = state.Netsim.Simulator.rounds;
  }

(* Figure 4 of the paper, for comparison. *)
let paper_figure4 = [ ("M", 4, 9, 5); ("R1", 5, 12, 6); ("R2", 5, 12, 6) ]

let print fmt r =
  Format.fprintf fmt "=== E4: incremental synthesis on Figure 3 ===@.@.";
  Format.fprintf fmt "Figure 4 — paper vs measured:@.";
  Format.fprintf fmt "%-8s %22s %22s %22s@." "Router" "#Route-maps (p/m)"
    "#LLM calls (p/m)" "#Disambiguation (p/m)";
  List.iter
    (fun s ->
      let p_maps, p_calls, p_dis =
        match List.find_opt (fun (n, _, _, _) -> n = s.router) paper_figure4 with
        | Some (_, m, c, d) -> (m, c, d)
        | None -> (0, 0, 0)
      in
      Format.fprintf fmt "%-8s %18d / %d %18d / %d %18d / %d@." s.router p_maps
        s.route_maps p_calls s.synthesis_calls p_dis s.questions)
    r.stats;
  Format.fprintf fmt
    "@.(LLM calls above count synthesis calls, as in the paper; including \
     classification and spec-extraction calls the totals are %s.)@.@."
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "%s: %d" s.router s.total_llm_calls)
          r.stats));
  Format.fprintf fmt "BGP simulation: converged in %d rounds.@.@." r.rounds;
  Format.fprintf fmt "Global policies:@.%a@." Netsim.Policies.pp r.policies
