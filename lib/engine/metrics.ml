(** Observability counters for the symbolic engine.

    Defined here (and referenced from every engine analysis) so that a
    single module owns the naming scheme and the BDD allocation hook is
    wired exactly once. *)

let search_filters_calls =
  Obs.Counter.make "engine.search_filters.solver_calls"
    ~help:"searchFilters invocations (search/differ/verify_rule)"

let search_route_policies_calls =
  Obs.Counter.make "engine.search_route_policies.solver_calls"
    ~help:"searchRoutePolicies invocations (search/verify_stanza)"

let compare_route_policies_calls =
  Obs.Counter.make "engine.compare_route_policies.solver_calls"
    ~help:"compareRoutePolicies invocations"

let compare_acls_calls =
  Obs.Counter.make "engine.compare_acls.solver_calls"
    ~help:"compareAcls invocations"

let adjacent_insertions_calls =
  Obs.Counter.make "engine.adjacent_insertions.calls"
    ~help:
      "boundary sweeps of route-maps, ACLs and prefix lists (one per \
       single-rule sweep or batch_insertions call; a conflict-graph pass \
       is not one)"

let adjacent_contexts =
  Obs.Counter.make "engine.adjacent_insertions.contexts_built"
    ~help:
      "first-match partitions compiled while finding boundaries (1 per \
       sweep of a non-empty target, 1 per conflict-graph pass)"

let adjacent_prefix_reuse =
  Obs.Counter.make "engine.adjacent_insertions.prefix_cells_reused"
    ~help:
      "insertion positions served from a shared prefix execution instead \
       of a fresh two-map re-execution"

let witnesses_decoded =
  Obs.Counter.make "engine.adjacent_insertions.witnesses_decoded"
    ~help:
      "boundary witnesses decoded, to decide a boundary or for a question \
       that shows one"

let boundary_ns =
  Obs.Histogram.make "engine.adjacent_insertions.boundary_ns"
    ~help:
      "wall time of one full boundary sweep (all insertion positions; no \
       conflict-graph pass)"

let batch_intents =
  Obs.Counter.make "engine.batch.intents"
    ~help:"intents processed by batch synthesis runs"

let batch_conflict_pairs =
  Obs.Counter.make "engine.batch.conflict_pairs"
    ~help:
      "genuine inter-intent conflict pairs classified by conflict-graph \
       passes and batch_insertions"

let batch_questions_saved =
  Obs.Counter.make "engine.batch.questions_saved"
    ~help:
      "disambiguation questions answered from the batch answer cache \
       instead of being asked again"

let batch_ns =
  Obs.Histogram.make "engine.batch.batch_ns"
    ~help:"wall time of one full batch synthesis run (all intents)"

let bdd_nodes =
  Obs.Counter.make "bdd.nodes_allocated"
    ~help:"fresh BDD nodes allocated in this domain's unique table"

let cache_hits =
  Obs.Counter.make "bdd.compile_cache.hits"
    ~help:"symbolic compilation cache hits (ACL rules, route-space constants)"

let cache_misses =
  Obs.Counter.make "bdd.compile_cache.misses"
    ~help:"symbolic compilation cache misses"

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
   time: every snapshot and every /metrics scrape sees the live unique
   table, memo and compile-cache occupancy with no publish step.
   (These replace the old high-water [bdd.manager.*] counters and
   their explicit [publish_manager_stats] call.) Each domain has its
   own manager; a scrape samples the domain it runs on — domain 0 for
   the serving thread — while worker-domain BDD churn still shows up
   through the per-domain [bdd.nodes_allocated{domain=N}] counters. *)
let manager_stats () = Symbdd.Bdd.Manager.stats (Symbdd.Bdd.manager ())

let manager_nodes =
  Obs.Gauge.collector "bdd.manager.nodes"
    ~help:"live nodes in this domain's BDD unique table" (fun () ->
      float_of_int (manager_stats ()).Symbdd.Bdd.Manager.nodes)

let manager_memo =
  Obs.Gauge.collector "bdd.manager.memo_entries"
    ~help:"entries across this domain's BDD operation memo tables"
    (fun () ->
      let s = manager_stats () in
      float_of_int
        (s.Symbdd.Bdd.Manager.neg_memo + s.Symbdd.Bdd.Manager.and_memo
       + s.Symbdd.Bdd.Manager.or_memo + s.Symbdd.Bdd.Manager.xor_memo
       + s.Symbdd.Bdd.Manager.restrict_memo))

let manager_cache_entries =
  Obs.Gauge.collector "bdd.manager.cache_entries"
    ~help:"entries in this domain's symbolic compilation cache" (fun () ->
      float_of_int (manager_stats ()).Symbdd.Bdd.Manager.cache_entries)

let manager_arena_occupancy =
  Obs.Gauge.collector "bdd.manager.arena_occupancy"
    ~help:"fraction of this domain's arena node-store capacity in use"
    (fun () ->
      let s = manager_stats () in
      float_of_int s.Symbdd.Bdd.Manager.nodes
      /. float_of_int s.Symbdd.Bdd.Manager.arena_capacity)

let manager_probe_length =
  Obs.Gauge.collector "bdd.manager.uniq_probe_len"
    ~help:
      "mean open-addressing probe length per unique-table lookup in this \
       domain's arena" (fun () ->
      let s = manager_stats () in
      if s.Symbdd.Bdd.Manager.uniq_lookups = 0 then 0.
      else
        float_of_int s.Symbdd.Bdd.Manager.uniq_probes
        /. float_of_int s.Symbdd.Bdd.Manager.uniq_lookups)

let manager_memo_evictions =
  Obs.Gauge.collector "bdd.manager.memo_evictions"
    ~help:
      "generation-tag evictions forced by the bounded BDD operation memos \
       (CLARIFY_BDD_MEMO_BOUND)" (fun () ->
      float_of_int (manager_stats ()).Symbdd.Bdd.Manager.memo_evictions)
