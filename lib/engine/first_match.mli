(** The boundary sweep shared by every ordered first-match policy
    family: route-maps ({!Compare_route_policies}), ACLs
    ({!Compare_acls}) and prefix lists
    ([Clarify.Prefix_list_disambiguator]) are instances.

    Inserting a candidate at position [i] rather than [i + 1] only
    reorders it against target rule [i], so the two placements differ
    exactly on the inputs in [cell_i.guard ∧ match(candidate)], where
    [cell_i] is the target's first-match partition cell for rule [i].
    A family compiles that partition once and reads boundaries from
    it; {!Sweep} compiles it in the caller's BDD manager and reads it
    serially, once per candidate. The same partition, projected onto
    several candidates, classifies their pairwise overlap/conflict
    graph without being read.

    Witnesses are decoded on demand (DESIGN §11, "Witnesses on
    demand"): a read decides whether a position is a boundary from the
    partition when the two rules' outcomes differ on every input and a
    non-empty region is known to hold a real input, and decodes a
    witness to decide only where that is not so.
    {!Sweep.lazy_insertions} leaves the rest to be decoded when a
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
      cells the candidates cannot reach may be left empty. The cells
      are executed at the first {!cell_boundaries} or {!witness}, so a
      partition only classified never executes the target. *)

  val cell_boundaries : partition -> int -> (int * difference option) list
  (** [cell_boundaries p k]: candidate [k]'s boundaries, ascending,
      exactly the positions where the two placements differ. A cell
      outside candidate [k]'s own region is skipped without a decode,
      even when another candidate of the partition reaches it. Each
      boundary carries its witness when deciding that the position is
      a boundary took decoding one, and [None] when the partition
      alone decided it (the two outcomes differ on every input of a
      non-empty region). *)

  val witness : partition -> int -> int -> difference
  (** [witness p k i] decodes candidate [k]'s witness at boundary [i]:
      the one [cell_boundaries] would have decoded there, since a
      witness is a function of its region alone. Only called on a
      boundary [cell_boundaries] reported, in the manager {!compile}
      ran in. *)

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

  val adjacent_insertions : F.target -> F.rule -> (int * F.difference) list
  (** Every position [i] at which inserting the rule at [i] behaves
      differently from inserting it at [i + 1], ascending, with one
      witness each, from one compilation of the target in the current
      BDD manager: {!lazy_insertions} with every witness decoded, and
      its [boundary_ns] including the decoding. *)

  val lazy_insertions :
    F.target -> F.rule -> (int * F.difference Lazy.t) list
  (** The positions of {!adjacent_insertions}, each with its witness
      decoded only when forced: the sweep decides every boundary,
      decoding a witness only where the outcomes could agree on part
      of the region. An undecoded witness is decoded by
      {!FAMILY.witness} in the current manager when forced, so force
      it before that manager is reset. Counts one
      [engine.adjacent_insertions.calls], one context and [width - 1]
      reused cells, and observes
      [engine.adjacent_insertions.boundary_ns], which ends before any
      witness is forced. *)

  val conflict_graph :
    F.target ->
    F.rule list ->
    (int * int) list * (int * int * F.difference) list
  (** The pairwise overlap/conflict graph of the candidates, as
      [(overlaps, conflicts)] in the order of {!batch_sweep}'s fields,
      classified from one partition projected onto every candidate,
      in the current manager. No candidate is read, so a family whose
      [compile] leaves the target's cells to the first read never
      executes the target here. Counts one context and the conflicts
      in [engine.batch.conflict_pairs]; it is not a boundary sweep, so
      it counts no call and no reused cell and observes no
      [boundary_ns]. *)

  val batch_insertions : F.target -> F.rule list -> batch_sweep
  (** {!conflict_graph} and every candidate's boundaries read from the
      same partition, every witness decoded, in candidate order.
      Counts one call, one context, [candidates × width - 1] reused
      cells and the conflicts; its [boundary_ns] covers the
      classification and every read. *)
end
