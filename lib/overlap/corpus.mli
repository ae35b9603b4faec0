(** Corpus-level aggregation of overlap statistics, producing the
    quantities reported in the paper's Section 3. *)

type acl_summary = {
  total : int;
  with_overlaps : int; (* >= 1 overlapping pair *)
  heavy_overlaps : int; (* > 20 overlapping pairs, the paper's threshold *)
  with_conflicts : int;
  heavy_conflicts : int;
  with_nontrivial : int;
  heavy_nontrivial : int;
  max_overlaps : int; (* largest per-ACL overlap count *)
}

val summarize_acls : ?pool:Parallel.Pool.t -> Config.Acl.t list -> acl_summary
(** Per-ACL analyses are independent, so a [pool] of N domains analyzes
    N ACLs concurrently; results are aggregated in input order, so the
    summary is identical at every pool size. Every distinct rule in the
    corpus is compiled once into a shared frozen base manager, and each
    domain analyzes under a private delta layered on it (no per-domain
    recompilation). Deltas are reset periodically, bounding memory on
    very large corpora without touching the shared base or any BDD the
    caller holds. *)

type route_map_summary = {
  rm_total : int;
  rm_with_overlaps : int;
  rm_heavy_overlaps : int;
  rm_max_overlaps : int;
  rm_conflicting_pairs_total : int;
}

val summarize_route_maps :
  ?pool:Parallel.Pool.t ->
  Config.Database.t ->
  Config.Route_map.t list ->
  route_map_summary
(** Same parallelization and memory-bounding contract as
    {!summarize_acls}. *)
