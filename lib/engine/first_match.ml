(* The boundary sweep of an ordered first-match policy (DESIGN.md
   §11–12), written once for every family.

   Inserting a candidate rule at position i rather than i+1 only
   reorders it against target rule i, so the two placements differ
   exactly on inputs that fall through rules 0..i-1 and match both. In
   the first-match partition of the target, cell i's guard already is
   fall-through(0..i-1) ∧ match(rule i): every boundary is one
   conjunction against a single shared compilation. A family supplies
   that compilation and the per-cell and per-pair reads; this module
   compiles it once, in the caller's manager, reads it serially,
   decodes the witnesses the reads left undecoded (or leaves them to
   be decoded on demand), classifies candidate pairs into the
   inter-intent conflict graph, and keeps the sweep counters. *)

type 'd pair = Disjoint | Overlap | Conflict of 'd

module type FAMILY = sig
  type target
  type rule
  type difference
  type partition

  val width : target -> int
  val compile : target -> rule array -> partition
  val cell_boundaries : partition -> int -> (int * difference option) list
  val witness : partition -> int -> int -> difference
  val classify : partition -> int -> int -> difference pair
end

module Sweep (F : FAMILY) = struct
  type batch_sweep = {
    per_candidate : (int * F.difference) list array;
    overlaps : (int * int) list;
    conflicts : (int * int * F.difference) list;
  }

  let observe t0 =
    Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9)

  (* Candidate [k]'s boundaries, each with the witness its read decoded
     or one decoded from [p] when forced. *)
  let read p k =
    List.map
      (fun (i, d) ->
        match d with
        | Some d -> (i, Lazy.from_val d)
        | None -> (i, lazy (F.witness p k i)))
      (F.cell_boundaries p k)

  let force bounds = List.map (fun (i, d) -> (i, Lazy.force d)) bounds

  (* The one sweep of a single rule: its partition, compiled in the
     current manager, read once; [finish] runs before the sweep's
     latency is observed. *)
  let sweep target rule finish =
    Obs.Counter.incr Metrics.adjacent_insertions_calls;
    let t0 = Obs.now () in
    let n = F.width target in
    let bounds =
      if n = 0 then []
      else begin
        Obs.Counter.incr Metrics.adjacent_contexts;
        Obs.Counter.incr ~by:(n - 1) Metrics.adjacent_prefix_reuse;
        finish (read (F.compile target [| rule |]) 0)
      end
    in
    observe t0;
    bounds

  let adjacent_insertions target rule = sweep target rule force
  let lazy_insertions target rule = sweep target rule Fun.id

  (* The candidates' partition, one context, and the pairs [i < j]
     classified from it in order. *)
  let graph target cands =
    let ncand = Array.length cands in
    Obs.Counter.incr Metrics.adjacent_contexts;
    let p = F.compile target cands in
    let pairs =
      List.concat_map
        (fun i -> List.init (ncand - i - 1) (fun d -> (i, i + d + 1)))
        (List.init ncand Fun.id)
    in
    let kinds = List.map (fun (i, j) -> F.classify p i j) pairs in
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
    (p, overlaps, conflicts)

  let conflict_graph target rules =
    match rules with
    | [] -> ([], [])
    | _ ->
        let _, overlaps, conflicts = graph target (Array.of_list rules) in
        (overlaps, conflicts)

  let batch_insertions target rules =
    match rules with
    | [] -> { per_candidate = [||]; overlaps = []; conflicts = [] }
    | _ ->
        Obs.Counter.incr Metrics.adjacent_insertions_calls;
        let t0 = Obs.now () in
        let cands = Array.of_list rules in
        let p, overlaps, conflicts = graph target cands in
        let n = F.width target and ncand = Array.length cands in
        if n > 0 then
          Obs.Counter.incr ~by:((ncand * n) - 1) Metrics.adjacent_prefix_reuse;
        let per_candidate = Array.init ncand (fun k -> force (read p k)) in
        observe t0;
        { per_candidate; overlaps; conflicts }
end
