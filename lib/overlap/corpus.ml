(** Corpus-level aggregation of overlap statistics, producing the
    quantities reported in the paper's Section 3. *)

type acl_summary = {
  total : int;
  with_overlaps : int; (* >= 1 overlapping pair *)
  heavy_overlaps : int; (* > threshold overlapping pairs *)
  with_conflicts : int;
  heavy_conflicts : int; (* of the conflicting ones, > threshold pairs *)
  with_nontrivial : int;
  heavy_nontrivial : int;
  max_overlaps : int; (* largest per-ACL overlap count *)
}

let default_threshold = 20
let reset_period = 512

(* Per-domain count of analyses since that domain's last manager reset.
   A [Manager.reset] every [reset_period] analyses bounds memory across
   very large corpora — the unique table itself is dropped, not just
   the operation memos, so node count cannot grow without bound. Safe
   because sweeps run under a scratch delta manager (below) and no BDD
   outlives a single [analyze] call; on a delta the reset rewinds to
   the base boundary, so the shared prewarmed compilation survives. *)
let analyzed_since_reset : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let bounded analyze x =
  let n = Domain.DLS.get analyzed_since_reset in
  incr n;
  if !n mod reset_period = 0 then
    Symbdd.Bdd.Manager.reset (Symbdd.Bdd.manager ());
  analyze x

(* Run one corpus sweep, optionally across a pool. [prewarm] compiles
   whatever the sweep's analyses share (distinct ACL rules, prefix
   lists) into a fresh base manager, which is then frozen; the serial
   path and every pool worker run under private deltas layered on it,
   so the shared structure is compiled once per sweep instead of once
   per domain, and the caller's default manager is not bloated by
   sweep-sized unique tables. [progress] fires only on the serial
   path: parallel completion order is nondeterministic, and per-index
   callbacks from worker domains would race. *)
let sweep ?(pool = Parallel.Pool.serial) ?progress ?prewarm ~f items =
  let base = Symbdd.Bdd.Manager.create () in
  (match prewarm with
  | Some warm -> Symbdd.Bdd.with_manager base warm
  | None -> ());
  Symbdd.Bdd.Manager.freeze base;
  match progress with
  | Some p when Parallel.Pool.domains pool <= 1 ->
      Symbdd.Bdd.with_manager
        (Symbdd.Bdd.Manager.create_delta base)
        (fun () ->
          List.mapi
            (fun i x ->
              p i;
              bounded f x)
            items)
  | _ -> Parallel.Pool.map ~bdd_base:base pool ~f:(bounded f) items

let summarize_acls ?(threshold = default_threshold) ?pool ?progress
    (acls : Config.Acl.t list) =
  let prewarm () =
    List.iter
      (fun (acl : Config.Acl.t) ->
        List.iter
          (fun r -> ignore (Symbolic.Packet_space.of_rule r))
          acl.Config.Acl.rules)
      acls
  in
  let stats = sweep ?pool ?progress ~prewarm ~f:Acl_overlap.analyze acls in
  let count f = List.length (List.filter f stats) in
  {
    total = List.length stats;
    with_overlaps = count (fun (s : Acl_overlap.stats) -> s.overlap_pairs > 0);
    heavy_overlaps = count (fun s -> s.overlap_pairs > threshold);
    with_conflicts = count (fun s -> s.conflict_pairs > 0);
    heavy_conflicts = count (fun s -> s.conflict_pairs > threshold);
    with_nontrivial = count (fun s -> s.nontrivial_conflicts > 0);
    heavy_nontrivial = count (fun s -> s.nontrivial_conflicts > threshold);
    max_overlaps =
      List.fold_left (fun m (s : Acl_overlap.stats) -> max m s.overlap_pairs) 0 stats;
  }

type route_map_summary = {
  rm_total : int;
  rm_with_overlaps : int;
  rm_heavy_overlaps : int;
  rm_max_overlaps : int;
  rm_conflicting_pairs_total : int;
}

let summarize_route_maps ?(threshold = default_threshold) ?pool db
    (rms : Config.Route_map.t list) =
  let prewarm () =
    Config.Database.Smap.iter
      (fun _ pl -> ignore (Symbolic.Route_ctx.of_prefix_list pl))
      db.Config.Database.prefix_lists
  in
  let stats = sweep ?pool ~prewarm ~f:(Route_map_overlap.analyze db) rms in
  {
    rm_total = List.length stats;
    rm_with_overlaps =
      List.length
        (List.filter (fun (s : Route_map_overlap.stats) -> s.overlap_pairs > 0) stats);
    rm_heavy_overlaps =
      List.length (List.filter (fun s -> s.Route_map_overlap.overlap_pairs > threshold) stats);
    rm_max_overlaps =
      List.fold_left
        (fun m (s : Route_map_overlap.stats) -> max m s.overlap_pairs)
        0 stats;
    rm_conflicting_pairs_total =
      List.fold_left
        (fun acc (s : Route_map_overlap.stats) -> acc + s.conflict_pairs)
        0 stats;
  }
