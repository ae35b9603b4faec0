(* The boundary sweep of an ordered first-match policy (DESIGN.md
   §11–12), written once for every family.

   Inserting a candidate rule at position i rather than i+1 only
   reorders it against target rule i, so the two placements differ
   exactly on inputs that fall through rules 0..i-1 and match both. In
   the first-match partition of the target, cell i's guard already is
   fall-through(0..i-1) ∧ match(rule i): every boundary is one
   conjunction against a single shared compilation. A family supplies
   that compilation and the per-cell and per-pair reads; this module
   owns the serial and pooled paths, the frozen base the workers
   share, and the sweep counters. *)

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
    partition -> int -> int * int -> (int * difference) list
  val classify : partition -> int -> int -> difference pair
end

module Sweep (F : FAMILY) = struct
  type batch_sweep = {
    per_candidate : (int * F.difference) list array;
    overlaps : (int * int) list;
    conflicts : (int * int * F.difference) list;
  }

  let pooled pool =
    match pool with
    | Some p when Parallel.Pool.domains p > 1 -> Some p
    | _ -> None

  (* Compile into a fresh base manager and freeze it: workers layer
     private deltas on it, so its nodes and compile cache are shared
     read-only and nothing is recompiled per domain. *)
  let frozen target cands =
    let base = Bdd.Manager.create () in
    let p = Bdd.with_manager base (fun () -> F.compile target cands) in
    Bdd.Manager.freeze base;
    (base, p)

  let observe t0 =
    Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9)

  let adjacent_insertions ?pool target rule =
    Obs.Counter.incr Metrics.adjacent_insertions_calls;
    let t0 = Obs.now () in
    let n = F.width target in
    let result =
      if n = 0 then []
      else begin
        Obs.Counter.incr Metrics.adjacent_contexts;
        Obs.Counter.incr ~by:(n - 1) Metrics.adjacent_prefix_reuse;
        match pooled pool with
        | Some pool when n > 1 ->
            (* Slices of a few positions: the partition fork amortizes
               over the slice while slices stay plentiful enough to
               steal when rule widths are skewed. *)
            let base, p = frozen target [| rule |] in
            List.concat
              (Parallel.Pool.map ~bdd_base:base pool
                 ~f:(fun slice -> F.cell_boundaries (F.fork p) 0 slice)
                 (Parallel.Pool.ranges ~grain:8 n))
        | _ -> F.cell_boundaries (F.compile target [| rule |]) 0 (0, n)
      end
    in
    observe t0;
    result

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
      let bounds, kinds =
        match pooled pool with
        | Some pool when ncand > 1 ->
            (* Candidate sweeps are coarse, one stealable task each;
               pairs are cheap, so a few share a task to amortize the
               fork. *)
            let base, p = frozen target cands in
            ( Parallel.Pool.map ~bdd_base:base pool
                ~f:(fun k -> F.cell_boundaries (F.fork p) k (0, n))
                ks,
              Parallel.Pool.map ~grain:4 ~bdd_base:base pool
                ~f:(fun (i, j) -> F.classify (F.fork p) i j)
                pairs )
        | _ ->
            let p = F.compile target cands in
            ( List.map (fun k -> F.cell_boundaries p k (0, n)) ks,
              List.map (fun (i, j) -> F.classify p i j) pairs )
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
