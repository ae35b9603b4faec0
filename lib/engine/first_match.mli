(** The boundary sweep shared by every ordered first-match policy
    family: route-maps ({!Compare_route_policies}) and ACLs
    ({!Compare_acls}) are instances.

    Inserting a candidate at position [i] rather than [i + 1] only
    reorders it against target rule [i], so the two placements differ
    exactly on the inputs in [cell_i.guard ∧ match(candidate)], where
    [cell_i] is the target's first-match partition cell for rule [i].
    A family compiles that partition once and reads boundaries from
    it; {!Sweep} compiles it in the caller's BDD manager and drives the
    reads serially or across a pool.

    Witnesses are decoded on demand (DESIGN §11, "Witnesses on
    demand"): a read decides whether a position is a boundary from the
    partition when the two rules' outcomes differ on every input and a
    non-empty region is known to hold a real input, and decodes a
    witness to decide only where that is not so. {!Sweep.lazy_insertions} leaves the rest to be decoded when a
    question asks for them; every decode, either way, counts one
    [engine.adjacent_insertions.witnesses_decoded]. *)

(** How two candidates relate on the inputs both match. *)
type 'd pair =
  | Disjoint  (** no input matches both *)
  | Overlap  (** some input matches both; both treat it alike *)
  | Conflict of 'd  (** a shared input the two treat differently *)

module type FAMILY = sig
  type target
  type rule
  type difference

  type partition
  (** A target's first-match partition, projected onto some
      candidates, with whatever per-candidate state the reads need. *)

  val width : target -> int
  (** Number of rules; insertion positions are [0..width]. *)

  val compile : target -> rule array -> partition
  (** The partition of the target projected onto the candidates:
      cells the candidates cannot reach may be left empty. *)

  val fork : partition -> partition
  (** A copy a worker domain can read without racing other workers;
      BDDs stay shared. *)

  val cell_boundaries :
    partition -> int -> int * int -> (int * difference option) list
  (** [cell_boundaries p k (start, len)]: candidate [k]'s boundaries at
      positions [start .. start + len - 1], ascending, exactly those
      where the two placements differ. Each carries its witness when
      deciding that the position is a boundary took decoding one, and
      [None] when the partition alone decided it (the two outcomes
      differ on every input of a non-empty region). *)

  val witness : partition -> int -> int -> difference
  (** [witness p k i] decodes candidate [k]'s witness at boundary [i]:
      the one [cell_boundaries] would have decoded there, since a
      witness is a function of its region alone. Only called on a
      boundary [cell_boundaries] reported, on a partition it can read
      (the one {!compile} returned, in its manager, or a worker's
      {!fork} under a delta on it). *)

  val classify : partition -> int -> int -> difference pair
  (** How candidates [i] and [j] relate. *)
end

module Sweep (F : FAMILY) : sig
  type batch_sweep = {
    per_candidate : (int * F.difference) list array;
        (** candidate [k]'s boundaries against the original target,
            exactly what {!adjacent_insertions} returns for it *)
    overlaps : (int * int) list;
        (** candidate pairs [i < j] whose match regions intersect *)
    conflicts : (int * int * F.difference) list;
        (** overlapping pairs treated differently, with a witness *)
  }

  val adjacent_insertions :
    ?pool:Parallel.Pool.t -> F.target -> F.rule -> (int * F.difference) list
  (** Every position [i] at which inserting the rule at [i] behaves
      differently from inserting it at [i + 1], ascending, with one
      witness each, from one compilation of the target in the current
      BDD manager: {!lazy_insertions} with every witness decoded where
      its position is read (in the pool task, on a pooled sweep), and
      its [boundary_ns] including the decoding. *)

  val lazy_insertions :
    ?pool:Parallel.Pool.t ->
    F.target ->
    F.rule ->
    (int * F.difference Lazy.t) list
  (** The positions of {!adjacent_insertions}, each with its witness
      decoded only when forced: the sweep decides every boundary,
      decoding a witness only where the outcomes could agree on part
      of the region. The positions are read in slices of 8. With a
      [~pool] of more than one domain, more than one slice, and a
      current manager that is a root manager and not frozen, that
      manager is frozen for the length of one {!Parallel.Pool.map} and
      each slice is a stealable task under a private delta on it
      ({!Symbdd.Bdd.Manager.frozen_during}); it is writable again when
      the sweep returns or raises. Otherwise — a delta inside a pooled
      task, say — the slices are read serially. The result is the same
      either way. A task returns positions and the witnesses it had to
      decode; a witness left undecoded is decoded by {!FAMILY.witness}
      in the caller's manager from the caller's partition when forced,
      so force it before that manager is reset, and in the domain that
      swept. Counts one [engine.adjacent_insertions.calls], one
      context and [width - 1] reused cells, and observes
      [engine.adjacent_insertions.boundary_ns], which ends before any
      witness is forced. *)

  val batch_insertions :
    ?pool:Parallel.Pool.t -> F.target -> F.rule list -> batch_sweep
  (** Every candidate's sweep plus the pairwise overlap/conflict graph,
      all against one compilation projected onto every candidate, in
      the current manager. [~pool] lends it as {!lazy_insertions}
      does, for one map of one task per candidate and then one of 4
      pairs per task; the result is the same. Every boundary witness
      is decoded in the task that read its position. Increments
      [engine.batch.conflict_pairs] by the number of conflicts. *)
end
