(* fleet: a Netgen fat-tree fleet of about two thousand routers, each
   router's policy worklist synthesized through the pipeline on a pool
   of [nproc] domains, one router per task, as E5 builds it. *)

module D = Clarify.Disambiguator

let setups = 5
let chunk = 128 (* routers per map call; the loop checks its deadline between calls *)

type setup = {
  plans : Netgen.Policy.plan array;
  base : Symbdd.Bdd.Manager.t; (* frozen, shared prefix ranges prewarmed *)
  generate_s : float;
  compile_s : float;
}

(* The fleet is generated from its size alone; the seed orders the
   routers, which fixes the order they are submitted in and so how they
   fall into tasks and chunks. *)
let setup ~seed () =
  let t0 = Drive.now () in
  let net = Netgen.generate ~profile:Netgen.Fat_tree ~routers:Gen.fleet_routers in
  let t1 = Drive.now () in
  let plans = Gen.shuffle (Gen.rng ~seed ~salt:2) (Array.of_list (Netgen.Policy.compile net)) in
  let t2 = Drive.now () in
  let base = Symbdd.Bdd.Manager.create () in
  Symbdd.Bdd.with_manager base (fun () ->
      List.iter
        (fun r -> ignore (Symbolic.Route_ctx.of_prefix_range r))
        (Netgen.Policy.shared_ranges ()));
  Symbdd.Bdd.Manager.freeze base;
  { plans; base; generate_s = t1 -. t0; compile_s = t2 -. t1 }

let oracle (plan : Netgen.Policy.plan) map =
  let reference = Option.get (Config.Database.route_map plan.reference map) in
  D.intent_driven (Config.Semantics.eval_route_map plan.reference reference)

let ensure_map db map =
  if Config.Database.route_map db map = None then
    Config.Database.add_route_map db (Config.Route_map.make map [])
  else db

(* One router through [Pipeline.run_route_map_update], step by step, as
   [E5_fleet.build_router] does it: its config and question witnesses. *)
let build (s : Drive.samples) ~base (plan : Netgen.Policy.plan) =
  let t0 = Drive.now () in
  let llm = Llm.Mock_llm.create () in
  let r =
    Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create_delta base) (fun () ->
        List.fold_left
          (fun (db, ws) { Netgen.Policy.map; intent } ->
            let db = ensure_map db map in
            let oracle = oracle plan map and prompt = Llm.Intent.to_prompt intent in
            let clk = Drive.start () in
            let r =
              Clarify.Pipeline.run_route_map_update ~llm ~oracle:(Drive.ask clk oracle) ~db
                ~target:map ~prompt ()
            in
            Drive.finish s clk ~intents:1;
            match r with
            | Ok r ->
                ( r.Clarify.Pipeline.db,
                  List.map (fun (q : D.question) -> q.route) r.questions @ ws )
            | Error _ ->
                s.failed <- s.failed + 1;
                (db, ws))
          (Config.Database.empty, []) plan.steps)
  in
  s.llm_calls <- s.llm_calls + Llm.Mock_llm.total_calls llm;
  Stats.Series.add s.unit_s (Drive.now () -. t0);
  r

let traced_build (t : Drive.tr) (s : Drive.samples) ~base (plan : Netgen.Policy.plan) =
  let llm = Llm.Mock_llm.create () in
  let db =
    Drive.traced_unit t
      ~manager:(fun () -> Symbdd.Bdd.Manager.create_delta base)
      (fun () ->
        List.fold_left
          (fun db { Netgen.Policy.map; intent } ->
            let db = ensure_map db map in
            let oracle = oracle plan map and prompt = Llm.Intent.to_prompt intent in
            let clk = Drive.start () in
            let ask = Drive.traced_ask t clk ~policy:map ~view:D.view oracle in
            let db = Drive.traced_route_map t ~llm ~ask ~db ~target:map ~prompt in
            Drive.finish s clk ~intents:1;
            db)
          Config.Database.empty plan.steps)
  in
  s.llm_calls <- s.llm_calls + Llm.Mock_llm.total_calls llm;
  db

let correct ~seed (plan : Netgen.Policy.plan) index (db, witnesses) =
  let rng = Gen.rng ~seed ~salt:(1000 + index) in
  let community =
    Bgp.Community.make 65000 (if plan.site < 0 then 99 else 100 + plan.site)
  in
  let routes = Gen.fleet_routes rng ~community @ witnesses in
  List.for_all
    (fun map ->
      match (Config.Database.route_map db map, Config.Database.route_map plan.reference map) with
      | Some got, Some want ->
          List.for_all
            (fun route ->
              Config.Semantics.route_result_equal
                (Config.Semantics.eval_route_map db got route)
                (Config.Semantics.eval_route_map plan.reference want route))
            routes
      | _ -> false)
    plan.maps

(* The [c]th chunk of router indices, cycling through the fleet. *)
let chunk_at ~n c = List.init chunk (fun k -> ((c * chunk) + k) mod n)

let run ~seed ~seconds ~trace =
  let nproc = Domain.recommended_domain_count () in
  let pool = Parallel.Pool.create ~domains:nproc () in
  let netgen_s = ref [] in
  let setup_s, st =
    Drive.repeat_setup setups (fun () ->
        let st = setup ~seed () in
        netgen_s := (st.generate_s, st.compile_s) :: !netgen_s;
        st)
  in
  let n = Array.length st.plans in
  let first = Array.make n None and built = Array.make n 0 in
  let runs = ref [] in
  let budget = if trace then seconds /. 2. else seconds in
  (* A window is one map call. *)
  let s, walls =
    Drive.windows ~pool ~deadline:(Drive.now () +. budget) (fun c ->
        let rs, run =
          Drive.timed_map pool (chunk_at ~n c) ~f:(fun i ->
              let s = Drive.samples () in
              (i, s, build s ~base:st.base st.plans.(i)))
        in
        List.iter
          (fun (i, _, r) ->
            built.(i) <- built.(i) + 1;
            if first.(i) = None then first.(i) <- Some r)
          rs;
        (* Kept for the traced run's scheduler figures only. *)
        if trace then runs := run :: !runs;
        (Drive.merge (List.map (fun (_, s, _) -> s) rs), run.batch_s))
  in
  let calls = List.length walls in
  let peak_rss_mb = Stats.peak_rss_mb () in
  (* A router that disagrees with its reference fails each of its
     intents every time it is built. *)
  let failed = ref s.failed and seen = ref 0 in
  Array.iteri
    (fun i r ->
      Option.iter
        (fun r ->
          incr seen;
          if not (correct ~seed st.plans.(i) i r) then
            failed := !failed + (built.(i) * List.length st.plans.(i).steps))
        r)
    first;
  let layers =
    if not trace then []
    else begin
      let tasks = ref [] in
      let ts_samples = ref [] in
      let (), gc_major, top_heap =
        Drive.gc_delta (fun () ->
            List.iter
              (fun items ->
                let rs, _ =
                  Drive.timed_map pool items ~f:(fun i ->
                      let t = Drive.tr () and s = Drive.samples () in
                      (i, t, s, traced_build t s ~base:st.base st.plans.(i)))
                in
                List.iter
                  (fun (i, t, s, db) ->
                    tasks := t :: !tasks;
                    ts_samples := s :: !ts_samples;
                    match first.(i) with
                    | Some (db', _) when Config.Parser.to_string db = Config.Parser.to_string db' -> ()
                    | _ -> incr failed)
                  rs)
              (List.init calls (chunk_at ~n)))
      in
      (* Recording runs in the calling domain, whose events it keeps, so
         its routers are built there one at a time. *)
      let recording =
        Drive.recording ~deadline:(Drive.now () +. (seconds /. 4.)) (fun i ->
            let s = Drive.samples () in
            ignore (build s ~base:st.base st.plans.(i mod n));
            (Stats.Series.sum s.intent_s, s.intents))
      in
      (* The untraced fold must equal E5's own router builder, and that
         builder's fleet must equal [E5_fleet.run]'s on a small fleet. *)
      let e5 =
        Parallel.Pool.map pool
          ~f:(fun i ->
            (i, Evaluation.E5_fleet.build_router ~bdd_base:st.base st.plans.(i)))
          (List.filter (fun i -> first.(i) <> None) (List.init n Fun.id))
      in
      List.iter
        (fun (i, (r : Evaluation.E5_fleet.router_result)) ->
          match first.(i) with
          | Some (db, _) when Config.Parser.to_string db = Config.Parser.to_string r.config -> ()
          | _ -> incr failed)
        e5;
      let small = 64 in
      let e5_run = Evaluation.E5_fleet.run ~pool ~routers:small () in
      let small_plans = Netgen.Policy.compile (Netgen.generate ~profile:Netgen.Fat_tree ~routers:small) in
      List.iter2
        (fun plan (r : Evaluation.E5_fleet.router_result) ->
          let db, _ = build (Drive.samples ()) ~base:st.base plan in
          if Config.Parser.to_string db <> Config.Parser.to_string r.config then incr failed)
        small_plans e5_run.results;
      let median f = Stats.median (List.map f !netgen_s) in
      Report.per_layer_values (Drive.merge_tr !tasks) (Drive.merge !ts_samples)
        {
          Report.units = List.length !tasks;
          pool = Some (Parallel.Pool.domains pool, !runs);
          netgen = Some (median fst, median snd);
          gc_major;
          gc_top_heap_words = top_heap;
          recording;
          widest_share = 0.;
        }
    end
  in
  let router_s = Stats.Series.to_array s.unit_s in
  let tail, p, k = Stats.tail_array router_s in
  {
    Drive.setup_s;
    peak_rss_mb;
    rates = Drive.rates walls;
    samples = s;
    tails = (90., 90., 90.);
    failed = !failed;
    notes =
      [
        Printf.sprintf "nproc %d, domains %d, routers %d (%d built, %d distinct checked)" nproc
          (Parallel.Pool.domains pool) n (Stats.Series.length s.unit_s) !seen;
        Printf.sprintf "router_ms.p50 %.4f ms" (Report.ms (Stats.median_array router_s));
        Printf.sprintf "router_ms.tail %.4f ms (p%.1f of n=%d)" (Report.ms tail) p k;
      ];
    layers;
  }
