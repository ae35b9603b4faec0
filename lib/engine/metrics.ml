(** Observability counters for the symbolic engine.

    Defined here (and referenced from every engine analysis) so that a
    single module owns the naming scheme and the BDD allocation hook is
    wired exactly once. *)

(* Solver invocations: searchFilters (search, differ, verify_rule),
   searchRoutePolicies (search, verify_stanza), compareRoutePolicies and
   compareAcls. The .mli documents the sweep and batch series. *)
let search_filters_calls =
  Obs.Counter.make "engine.search_filters.solver_calls"

let search_route_policies_calls =
  Obs.Counter.make "engine.search_route_policies.solver_calls"

let compare_route_policies_calls =
  Obs.Counter.make "engine.compare_route_policies.solver_calls"

let compare_acls_calls = Obs.Counter.make "engine.compare_acls.solver_calls"

let adjacent_insertions_calls =
  Obs.Counter.make "engine.adjacent_insertions.calls"

let adjacent_contexts =
  Obs.Counter.make "engine.adjacent_insertions.contexts_built"

let adjacent_prefix_reuse =
  Obs.Counter.make "engine.adjacent_insertions.prefix_cells_reused"

let witnesses_decoded =
  Obs.Counter.make "engine.adjacent_insertions.witnesses_decoded"

let boundary_ns = Obs.Histogram.make "engine.adjacent_insertions.boundary_ns"
let batch_intents = Obs.Counter.make "engine.batch.intents"
let batch_conflict_pairs = Obs.Counter.make "engine.batch.conflict_pairs"
let batch_questions_saved = Obs.Counter.make "engine.batch.questions_saved"
let batch_ns = Obs.Histogram.make "engine.batch.batch_ns"

(* Fresh nodes in this domain's unique table. *)
let bdd_nodes = Obs.Counter.make "bdd.nodes_allocated"

(* Symbolic compilation cache probes (ACL rules, route-space constants). *)
let cache_hits = Obs.Counter.make "bdd.compile_cache.hits"
let cache_misses = Obs.Counter.make "bdd.compile_cache.misses"

(* The hooks are installed only while the layer is enabled, so the BDD
   allocation and cache-probe paths stay a single [match] when
   observability is off. They go on the calling domain's manager —
   worker domains install their own per-domain labeled hooks (see
   [Parallel.Pool]). *)
let () =
  Obs.subscribe_state (fun on ->
      Symbdd.Bdd.set_alloc_hook
        (if on then Some (fun () -> Obs.Counter.incr bdd_nodes) else None);
      Symbdd.Bdd.set_cache_hook
        (if on then
           Some
             (fun hit ->
               Obs.Counter.incr (if hit then cache_hits else cache_misses))
         else None))

(* The sampling domain's manager sizes, as gauges collected at read
   time: every snapshot sees the live unique table, memo and
   compile-cache occupancy with no publish step. Each domain has its own
   manager; a snapshot samples the domain it is taken on, while
   worker-domain BDD churn still shows up through the per-domain
   [bdd.nodes_allocated{domain=N}] counters. *)
let () =
  let gauge name f = ignore (Obs.Gauge.collector name f : Obs.Gauge.t) in
  let open Symbdd.Bdd.Manager in
  let stats () = stats (Symbdd.Bdd.manager ()) in
  gauge "bdd.manager.nodes" (fun () -> float_of_int (stats ()).nodes);
  gauge "bdd.manager.memo_entries" (fun () -> float_of_int (stats ()).memo);
  gauge "bdd.manager.cache_entries" (fun () ->
      float_of_int (stats ()).cache_entries);
  gauge "bdd.manager.arena_occupancy" (fun () ->
      let s = stats () in
      float_of_int s.nodes /. float_of_int s.arena_capacity);
  gauge "bdd.manager.uniq_probe_len" (fun () ->
      let s = stats () in
      if s.uniq_lookups = 0 then 0.
      else float_of_int s.uniq_probes /. float_of_int s.uniq_lookups);
  gauge "bdd.manager.memo_evictions" (fun () ->
      float_of_int (stats ()).memo_evictions)
