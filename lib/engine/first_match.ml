(* The boundary sweep of an ordered first-match policy (DESIGN.md
   §11–12), written once for every family.

   Inserting a candidate rule at position i rather than i+1 only
   reorders it against target rule i, so the two placements differ
   exactly on inputs that fall through rules 0..i-1 and match both. In
   the first-match partition of the target, cell i's guard already is
   fall-through(0..i-1) ∧ match(rule i): every boundary is one
   conjunction against a single shared compilation. A family supplies
   that compilation and the per-cell and per-pair reads; this module
   compiles it once, in the caller's manager, reads it serially or
   across a pool, decodes the witnesses the reads left undecoded (or
   leaves them to be decoded on demand), and keeps the sweep
   counters. *)

open Symbdd

type 'd pair = Disjoint | Overlap | Conflict of 'd

module type FAMILY = sig
  type target
  type rule
  type difference
  type partition

  val width : target -> int
  val compile : target -> rule array -> partition
  val fork : partition -> partition
  val cell_boundaries :
    partition -> int -> int * int -> (int * difference option) list
  val witness : partition -> int -> int -> difference
  val classify : partition -> int -> int -> difference pair
end

module Sweep (F : FAMILY) = struct
  type batch_sweep = {
    per_candidate : (int * F.difference) list array;
    overlaps : (int * int) list;
    conflicts : (int * int * F.difference) list;
  }

  (* [List.map (f p) xs], across the pool when it has several domains,
     there are several items to share, and the current manager can be
     lent out as the workers' base: it is frozen for the length of the
     map, every participant layers a private delta on it, and nothing
     compiled into it is compiled again. A delta (a sweep inside a
     pooled task) or an already frozen manager cannot be a base, so the
     map runs serially there. *)
  let map ?grain pool p f xs =
    let m = Bdd.manager () in
    match pool with
    | Some pool
      when Parallel.Pool.domains pool > 1
           && List.compare_length_with xs 1 > 0
           && not (Bdd.Manager.is_delta m || Bdd.Manager.frozen m) ->
        Bdd.Manager.frozen_during m (fun () ->
            Parallel.Pool.map ?grain ~bdd_base:m pool
              ~f:(fun x -> f (F.fork p) x)
              xs)
    | _ -> List.map (f p) xs

  let observe t0 =
    Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9)

  (* Candidate [k]'s boundary with its witness: the one its read
     decoded, or one decoded now from [p]. *)
  let decoded p k (i, d) =
    match d with Some d -> (i, d) | None -> (i, F.witness p k i)

  (* The same, decoded from [p] only when forced. *)
  let on_demand p k (i, d) =
    match d with
    | Some d -> (i, Lazy.from_val d)
    | None -> (i, lazy (F.witness p k i))

  (* The one sweep of a single rule: its partition, compiled in the
     current manager, and the concatenation of [read p slice] over
     slices of its positions, [p] being the partition or a worker's
     fork of it; [None] for an empty target. *)
  let sweep ?pool target rule read =
    Obs.Counter.incr Metrics.adjacent_insertions_calls;
    let t0 = Obs.now () in
    let n = F.width target in
    let result =
      if n = 0 then None
      else begin
        Obs.Counter.incr Metrics.adjacent_contexts;
        Obs.Counter.incr ~by:(n - 1) Metrics.adjacent_prefix_reuse;
        let p = F.compile target [| rule |] in
        (* Slices of a few positions: the partition fork amortizes over
           the slice while slices stay plentiful enough to steal when
           rule widths are skewed. *)
        Some
          ( p,
            List.concat
              (map pool p read (Parallel.Pool.ranges ~grain:8 n)) )
      end
    in
    observe t0;
    result

  (* Every witness is decoded where its position was read, inside a
     pool task on a pooled sweep, so decoding stays parallel. *)
  let adjacent_insertions ?pool target rule =
    match
      sweep ?pool target rule (fun p slice ->
          List.map (decoded p 0) (F.cell_boundaries p 0 slice))
    with
    | None -> []
    | Some (_, bounds) -> bounds

  (* A task returns plain data, positions and the witnesses deciding
     them took; the rest are decoded on demand from the caller's own
     partition, never from a worker's fork, so in the caller's
     manager. *)
  let lazy_insertions ?pool target rule =
    match sweep ?pool target rule (fun p slice -> F.cell_boundaries p 0 slice) with
    | None -> []
    | Some (p, bounds) -> List.map (on_demand p 0) bounds

  let batch_insertions ?pool target rules =
    let cands = Array.of_list rules in
    let ncand = Array.length cands in
    if ncand = 0 then { per_candidate = [||]; overlaps = []; conflicts = [] }
    else begin
      Obs.Counter.incr Metrics.adjacent_insertions_calls;
      let t0 = Obs.now () in
      let n = F.width target in
      Obs.Counter.incr Metrics.adjacent_contexts;
      let ks = List.init ncand Fun.id in
      let pairs =
        List.concat_map
          (fun i -> List.init (ncand - i - 1) (fun d -> (i, i + d + 1)))
          ks
      in
      let p = F.compile target cands in
      (* Candidate sweeps are coarse, one stealable task each; pairs are
         cheap, so a few share a task to amortize the fork. *)
      let bounds =
        map pool p
          (fun p k -> List.map (decoded p k) (F.cell_boundaries p k (0, n)))
          ks
      in
      let kinds =
        map ~grain:4 pool p (fun p (i, j) -> F.classify p i j) pairs
      in
      Obs.Counter.incr
        ~by:((ncand * max 1 n) - 1)
        Metrics.adjacent_prefix_reuse;
      let overlaps, conflicts =
        List.fold_right2
          (fun (i, j) kind (overlaps, conflicts) ->
            match kind with
            | Disjoint -> (overlaps, conflicts)
            | Overlap -> ((i, j) :: overlaps, conflicts)
            | Conflict d -> ((i, j) :: overlaps, (i, j, d) :: conflicts))
          pairs kinds ([], [])
      in
      Obs.Counter.incr ~by:(List.length conflicts) Metrics.batch_conflict_pairs;
      observe t0;
      { per_candidate = Array.of_list bounds; overlaps; conflicts }
    end
end
