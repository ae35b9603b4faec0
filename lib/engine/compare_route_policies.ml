(** Behavioural diff of two route-maps — the analogue of Batfish's
    [compareRoutePolicies].

    The two maps may live in different databases (e.g. two candidate
    insertions of a synthesized stanza, each carrying freshly named
    ancillary lists). Differences are reported as concrete input routes
    together with both outcomes. *)

open Symbdd
module Ctx = Symbolic.Route_ctx

type difference = {
  route : Bgp.Route.t;
  result_a : Config.Semantics.route_result;
  result_b : Config.Semantics.route_result;
  stanza_a : int option; (* seq of the handling stanza, None = implicit *)
  stanza_b : int option;
}

let context ~db_a ~db_b rm_a rm_b =
  Ctx.create [ (db_a, [ rm_a ]); (db_b, [ rm_b ]) ]

(* Apply a canonical community pipeline to a concrete community set. *)
let apply_comm_op db op cs =
  match op with
  | Config.Transform.Comm_id -> List.sort_uniq Bgp.Community.compare cs
  | Config.Transform.Comm_const s -> s
  | Config.Transform.Comm_update { delete; add } ->
      let survives c =
        not
          (List.exists
             (fun name ->
               match Config.Database.community_list db name with
               | Some cl -> Config.Community_list.matches cl [ c ]
               | None -> false)
             delete)
      in
      List.sort_uniq Bgp.Community.compare (add @ List.filter survives cs)

(* Community sets (as subsets of the universe) on which the two
   pipelines produce different outputs: candidates are the empty set,
   every singleton, and the full universe. *)
let separating_sets ctx ~db_a ~db_b op_a op_b =
  let universe = Array.to_list ctx.Ctx.comm_universe in
  let candidates =
    ([] :: List.map (fun u -> [ u ]) universe) @ [ universe ]
  in
  List.filter
    (fun s -> apply_comm_op db_a op_a s <> apply_comm_op db_b op_b s)
    candidates

(* Force a route whose community set is exactly [s]. *)
let route_with_comms ctx region s =
  let cube =
    Bdd.conj_list
      (List.mapi
         (fun i u ->
           if List.exists (Bgp.Community.equal u) s then
             Bdd.var (Ctx.atom_base + i)
           else Bdd.nvar (Ctx.atom_base + i))
         (Array.to_list ctx.Ctx.comm_universe))
  in
  Ctx.to_route ctx (Bdd.conj region cube)

(* Pick an example route from a region, preferring one that exposes
   community-transform differences when the two pipelines differ. *)
let sample_route ctx ~db_a ~db_b op_a op_b region =
  let targeted =
    if Config.Transform.comm_op_equal db_a db_b op_a op_b then None
    else
      List.find_map
        (fun s -> route_with_comms ctx region s)
        (separating_sets ctx ~db_a ~db_b op_a op_b)
  in
  match targeted with Some r -> Some r | None -> Ctx.to_route ctx region

(** All behavioural differences, one example per differing pair of
    execution cells, capped at [limit]. Reaching the cap exits the cell
    product immediately, so [first_difference] stops at the first
    differing pair instead of scanning the remaining O(n²) cells. *)
let compare ?(limit = max_int) ~db_a ~db_b (rm_a : Config.Route_map.t)
    (rm_b : Config.Route_map.t) =
  Obs.Counter.incr Metrics.compare_route_policies_calls;
  let ctx = context ~db_a ~db_b rm_a rm_b in
  let cells_a = Ctx.exec ctx db_a rm_a in
  let cells_b = Ctx.exec ctx db_b rm_b in
  let differences = ref [] in
  let count = ref 0 in
  let emit route (ra, rb) sa sb =
    if not (Config.Semantics.route_result_equal ra rb) then begin
      differences :=
        { route; result_a = ra; result_b = rb; stanza_a = sa; stanza_b = sb }
        :: !differences;
      incr count
    end
  in
  (try
     List.iter
       (fun (ca : Ctx.cell) ->
         List.iter
           (fun (cb : Ctx.cell) ->
             if !count >= limit then raise_notrace Exit;
             let region = Bdd.conj ca.guard cb.guard in
             let maybe_differs =
               match (ca.action, cb.action) with
               | Config.Action.Deny, Config.Action.Deny -> false
               | Config.Action.Permit, Config.Action.Permit ->
                   not
                     (Config.Transform.equal ~db1:db_a ~db2:db_b
                        (Config.Transform.of_sets db_a ca.sets)
                        (Config.Transform.of_sets db_b cb.sets))
               | _ -> true
             in
             if maybe_differs then
               let op_a = (Config.Transform.of_sets db_a ca.sets).communities in
               let op_b = (Config.Transform.of_sets db_b cb.sets).communities in
               match sample_route ctx ~db_a ~db_b op_a op_b region with
               | None -> ()
               | Some route ->
                   emit route
                     ( Config.Semantics.eval_route_map db_a rm_a route,
                       Config.Semantics.eval_route_map db_b rm_b route )
                     ca.stanza_seq cb.stanza_seq)
           cells_b)
       cells_a
   with Exit -> ());
  List.rev !differences

(** First behavioural difference, if any. *)
let first_difference ~db_a ~db_b rm_a rm_b =
  match compare ~limit:1 ~db_a ~db_b rm_a rm_b with
  | [] -> None
  | d :: _ -> Some d

let equal_behavior ~db_a ~db_b rm_a rm_b =
  first_difference ~db_a ~db_b rm_a rm_b = None

(* ------------------------------------------------------------------ *)
(* Batch adjacent-insertion analysis (DESIGN.md §11).

   Inserting stanza S* at position i vs i+1 only reorders S* against
   stanza s_i, so the two maps can differ exactly on the routes that
   fall through stanzas 0..i-1 and match both S* and s_i. In the
   first-match partition of the *target* map, cell i's guard already is
   fall-through(0..i-1) ∧ match(s_i): the candidate region at position
   i is one conjunction, [cell_i.guard ∧ match(new)], against a single
   shared compilation — no per-position map construction or
   re-execution. That partition is projected onto match(new)
   ([Route_ctx.exec ~candidates]), so stanzas the candidate cannot meet
   are never compiled and their cells are empty; every other region is
   the same canonical BDD. The pair filtering and sampling below mirror
   [compare] exactly, so witnesses are byte-identical to the naive
   per-position sweep; the two outcomes come from the two stanzas that
   handle the witness, not from evaluating either map. *)

let naive_chunk ~db ~target stanza (start, len) =
  Obs.Counter.incr ~by:len Metrics.adjacent_contexts;
  let map_at p = Config.Route_map.insert_at target p stanza in
  List.filter_map
    (fun i ->
      match
        first_difference ~db_a:db ~db_b:db (map_at i) (map_at (i + 1))
      with
      | None -> None
      | Some d -> Some (i, d))
    (List.init len (fun k -> start + k))

(* Boundaries of one candidate stanza against a pre-executed partition
   of the target: position [i]'s candidate region is
   [cells.(i).guard ∧ match(stanza)], sampled exactly as [compare] would,
   so witnesses match the naive sweep. A witness falls through stanzas
   0..i-1 and matches both the candidate and s_i, so the candidate
   handles it when inserted at i and s_i when inserted at i+1: applying
   those two stanzas' actions and sets gives both maps' outcomes, at a
   cost independent of the width. *)
let cell_boundaries ctx cells ~db stanza (start, len) =
  let match_new = Ctx.of_stanza ctx db stanza in
  let t_new = Config.Transform.of_sets db stanza.Config.Route_map.sets in
  List.filter_map
    (fun i ->
      let (c : Ctx.cell) = cells.(i) in
      (* A cell the candidates cannot reach has no witness. *)
      let maybe_differs =
        (not (Bdd.is_zero c.guard))
        &&
        match (stanza.Config.Route_map.action, c.action) with
        | Config.Action.Deny, Config.Action.Deny -> false
        | Config.Action.Permit, Config.Action.Permit ->
            not
              (Config.Transform.equal ~db1:db ~db2:db t_new
                 (Config.Transform.of_sets db c.sets))
        | _ -> true
      in
      if not maybe_differs then None
      else
        let region = Bdd.conj c.guard match_new in
        let op_a = t_new.Config.Transform.communities in
        let op_b = (Config.Transform.of_sets db c.sets).communities in
        match sample_route ctx ~db_a:db ~db_b:db op_a op_b region with
        | None -> None
        | Some route ->
            let result_a =
              Config.Semantics.apply_action db stanza.Config.Route_map.action
                stanza.Config.Route_map.sets route
            in
            let result_b =
              Config.Semantics.apply_action db c.action c.sets route
            in
            if Config.Semantics.route_result_equal result_a result_b then None
            else
              (* Both maps resequence, putting S* and s_i at seq
                 (i+1)*10 in their respective maps. *)
              let seq = Some ((i + 1) * 10) in
              Some
                (i, { route; result_a; result_b; stanza_a = seq; stanza_b = seq }))
    (List.init len (fun k -> start + k))

let incremental_chunk ~db ~(target : Config.Route_map.t) stanza (start, len) =
  Obs.Counter.incr Metrics.adjacent_contexts;
  Obs.Counter.incr ~by:(max 0 (len - 1)) Metrics.adjacent_prefix_reuse;
  (* Any insertion brings the new stanza's ancillary lists into scope;
     position 0 is as good as any for the shared universe, which is a
     function of the referenced community sets only. *)
  let ctx = context ~db_a:db ~db_b:db (Config.Route_map.insert_at target 0 stanza) target in
  let cells = Array.of_list (Ctx.exec ~candidates:[ stanza ] ctx db target) in
  cell_boundaries ctx cells ~db stanza (start, len)

let adjacent_insertions ?naive ?pool ~db ~(target : Config.Route_map.t)
    (stanza : Config.Route_map.stanza) =
  Obs.Counter.incr Metrics.adjacent_insertions_calls;
  let t0 = Obs.now () in
  let naive =
    match naive with Some b -> b | None -> Boundary_mode.naive_requested ()
  in
  let run_chunk =
    if naive then naive_chunk ~db ~target stanza
    else incremental_chunk ~db ~target stanza
  in
  let n = List.length target.Config.Route_map.stanzas in
  let result =
    match pool with
    | Some pool when Parallel.Pool.domains pool > 1 && n > 1 ->
        if naive then
          (* One position per task: a pathological insertion point gets
             stolen around instead of serializing a coarse chunk. *)
          List.concat
            (Parallel.Pool.map pool ~f:run_chunk
               (Parallel.Pool.ranges ~grain:1 n))
        else begin
          (* Compile the shared context and first-match partition once
             into a fresh base manager, freeze it, and let every worker
             walk its slice under a private delta — the base's nodes
             and compile cache are shared read-only, so nothing is
             recompiled per domain. *)
          let base = Bdd.Manager.create () in
          let ctx, cells =
            Bdd.with_manager base (fun () ->
                Obs.Counter.incr Metrics.adjacent_contexts;
                let ctx =
                  context ~db_a:db ~db_b:db
                    (Config.Route_map.insert_at target 0 stanza)
                    target
                in
                let cells =
                  Array.of_list (Ctx.exec ~candidates:[ stanza ] ctx db target)
                in
                (ctx, cells))
          in
          Bdd.Manager.freeze base;
          Obs.Counter.incr ~by:(max 0 (n - 1)) Metrics.adjacent_prefix_reuse;
          (* Slices of a few positions: the context fork (a hashtable
             copy) amortizes over the slice while slices stay plentiful
             enough to steal when stanza widths are skewed. *)
          List.concat
            (Parallel.Pool.map ~bdd_base:base pool
               ~f:(fun slice ->
                 cell_boundaries (Ctx.fork ctx) cells ~db stanza slice)
               (Parallel.Pool.ranges ~grain:8 n))
        end
    | _ -> if n = 0 then [] else run_chunk (0, n)
  in
  Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9);
  result

(* ------------------------------------------------------------------ *)
(* Multi-stanza batch sweep (DESIGN.md §12).

   A batch of N candidate stanzas against one target policy shares a
   single compiled first-match partition, projected onto the union of
   the candidates' match regions: every candidate's boundary sweep is
   n conjunctions against the same cells, and the pairwise
   inter-intent analysis is one conjunction per candidate pair. The
   symbolic scope always covers the target plus *every* candidate, so
   the community/as-path universe — and therefore every witness — is
   identical however the work is sharded across a pool. *)

type pair_kind = Pair_disjoint | Pair_overlap | Pair_conflict of difference

type batch_sweep = {
  per_candidate : (int * difference) list array;
      (* candidate k's boundary sweep against the original target *)
  overlaps : (int * int) list; (* i < j: match regions intersect *)
  conflicts : (int * int * difference) list;
      (* overlapping pairs whose behaviours differ, with a witness *)
}

let batch_insertions ?pool ~db ~(target : Config.Route_map.t) stanzas =
  let candidates = Array.of_list stanzas in
  let ncand = Array.length candidates in
  if ncand = 0 then { per_candidate = [||]; overlaps = []; conflicts = [] }
  else begin
    Obs.Counter.incr Metrics.adjacent_insertions_calls;
    let t0 = Obs.now () in
    let n = List.length target.Config.Route_map.stanzas in
    (* The shared scope map: target stanzas plus every candidate, so
       each chunk's universe is the same whichever candidates it owns. *)
    let scope_map =
      let base =
        1
        + List.fold_left
            (fun a (s : Config.Route_map.stanza) -> max a s.seq)
            0 target.Config.Route_map.stanzas
      in
      Config.Route_map.make target.Config.Route_map.name
        (target.Config.Route_map.stanzas
        @ List.mapi
            (fun k s -> { s with Config.Route_map.seq = base + k })
            stanzas)
    in
    let make_ctx () =
      Obs.Counter.incr Metrics.adjacent_contexts;
      Ctx.create [ (db, [ scope_map; target ]) ]
    in
    let classify_pair ctx (i, j) =
      let si = candidates.(i) and sj = candidates.(j) in
      let region =
        Bdd.conj (Ctx.of_stanza ctx db si) (Ctx.of_stanza ctx db sj)
      in
      if not (Ctx.is_sat ctx region) then (i, j, Pair_disjoint)
      else
        let ti = Config.Transform.of_sets db si.Config.Route_map.sets in
        let tj = Config.Transform.of_sets db sj.Config.Route_map.sets in
        let maybe_differs =
          match (si.Config.Route_map.action, sj.Config.Route_map.action) with
          | Config.Action.Deny, Config.Action.Deny -> false
          | Config.Action.Permit, Config.Action.Permit ->
              not (Config.Transform.equal ~db1:db ~db2:db ti tj)
          | _ -> true
        in
        if not maybe_differs then (i, j, Pair_overlap)
        else
          match
            sample_route ctx ~db_a:db ~db_b:db
              ti.Config.Transform.communities tj.Config.Transform.communities
              region
          with
          | None -> (i, j, Pair_overlap)
          | Some route ->
              (* The witness matches both candidates. *)
              let result_of (s : Config.Route_map.stanza) =
                Config.Semantics.apply_action db s.action s.sets route
              in
              let result_a = result_of si and result_b = result_of sj in
              if Config.Semantics.route_result_equal result_a result_b then
                (i, j, Pair_overlap)
              else
                ( i,
                  j,
                  Pair_conflict
                    {
                      route;
                      result_a;
                      result_b;
                      stanza_a = Some si.Config.Route_map.seq;
                      stanza_b = Some sj.Config.Route_map.seq;
                    } )
    in
    let all_pairs =
      List.concat
        (List.init ncand (fun i ->
             List.init (ncand - i - 1) (fun d -> (i, i + d + 1))))
    in
    let bounds, pairs =
      match pool with
      | Some pool when Parallel.Pool.domains pool > 1 && ncand > 1 ->
          (* One shared compilation for the whole batch: context,
             first-match partition and every candidate's match
             condition live in a frozen base; workers fork the context
             (private feasibility state) and layer private deltas. *)
          let base = Bdd.Manager.create () in
          let ctx, cells =
            Bdd.with_manager base (fun () ->
                let ctx = make_ctx () in
                (ctx, Array.of_list (Ctx.exec ~candidates:stanzas ctx db target)))
          in
          Bdd.Manager.freeze base;
          (* Candidate sweeps are coarse — one stealable task each;
             pairs are cheap, so a few share a task to amortize the
             context fork (a hashtable copy) that gives each task its
             private feasibility state. *)
          let bounds =
            Parallel.Pool.map ~bdd_base:base pool
              ~f:(fun k ->
                ( k,
                  cell_boundaries (Ctx.fork ctx) cells ~db candidates.(k)
                    (0, n) ))
              (List.init ncand Fun.id)
          in
          let pairs =
            Parallel.Pool.map ~grain:4 ~bdd_base:base pool
              ~f:(fun p -> classify_pair (Ctx.fork ctx) p)
              all_pairs
          in
          (bounds, pairs)
      | _ ->
          let ctx = make_ctx () in
          let cells = Array.of_list (Ctx.exec ~candidates:stanzas ctx db target) in
          ( List.map
              (fun k ->
                ( k,
                  cell_boundaries ctx cells ~db candidates.(k) (0, n) ))
              (List.init ncand Fun.id),
            List.map (classify_pair ctx) all_pairs )
    in
    Obs.Counter.incr
      ~by:(max 0 ((ncand * max 1 n) - 1))
      Metrics.adjacent_prefix_reuse;
    let per_candidate = Array.make ncand [] in
    List.iter (fun (k, bs) -> per_candidate.(k) <- bs) bounds;
    let overlaps =
      List.filter_map
        (function
          | i, j, (Pair_overlap | Pair_conflict _) -> Some (i, j)
          | _, _, Pair_disjoint -> None)
        pairs
    in
    let conflicts =
      List.filter_map
        (function
          | i, j, Pair_conflict d -> Some (i, j, d)
          | _ -> None)
        pairs
    in
    Obs.Counter.incr ~by:(List.length conflicts) Metrics.batch_conflict_pairs;
    Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9);
    { per_candidate; overlaps; conflicts }
  end

let pp_difference fmt d =
  Format.fprintf fmt
    "@[<v>Input route:@ %a@ @ OPTION A:@ %a@ @ OPTION B:@ %a@]" Bgp.Route.pp
    d.route Config.Semantics.pp_route_result d.result_a
    Config.Semantics.pp_route_result d.result_b
