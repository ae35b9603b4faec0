(** Behavioural diff of two ACLs, used to generate differential packet
    examples for ACL insertion disambiguation. *)

type difference = {
  packet : Config.Packet.t;
  action_a : Config.Action.t;
  action_b : Config.Action.t;
  rule_a : int option; (* handling rule seq under A; None = implicit *)
  rule_b : int option;
}

val compare : ?limit:int -> Config.Acl.t -> Config.Acl.t -> difference list
(** All behavioural differences, one example packet per differing pair
    of execution cells, capped at [limit]. *)

val first_difference : Config.Acl.t -> Config.Acl.t -> difference option
val equal_behavior : Config.Acl.t -> Config.Acl.t -> bool

val adjacent_insertions :
  ?naive:bool ->
  ?pool:Parallel.Pool.t ->
  target:Config.Acl.t ->
  Config.Acl.rule ->
  (int * difference) list
(** Every insertion position [i] (0-based, ascending) at which inserting
    the rule at [i] behaves differently from inserting it at [i + 1],
    with one witness packet per position. Incremental by default (one
    symbolic execution of the target, one conjunction per position);
    [~naive] forces per-position two-ACL comparison, and when omitted
    {!Boundary_mode.naive_requested} decides. [~pool] executes the
    target once into a frozen base manager and walks stealable slices
    of 8 positions under private deltas. Both strategies return
    identical results. *)

type batch_sweep = {
  per_candidate : (int * difference) list array;
      (** candidate [k]'s boundary sweep against the original target,
          exactly what {!adjacent_insertions} would return for it *)
  overlaps : (int * int) list;
      (** candidate pairs [i < j] whose match regions intersect *)
  conflicts : (int * int * difference) list;
      (** overlapping pairs with differing actions, with a witness
          packet from the shared region *)
}

val batch_insertions :
  ?pool:Parallel.Pool.t ->
  target:Config.Acl.t ->
  Config.Acl.rule list ->
  batch_sweep
(** Multi-rule sweep for batch synthesis: boundary sweeps for every
    candidate plus the pairwise inter-intent overlap/conflict graph,
    against one symbolic execution of [target] per worker chunk (one
    total when serial). Increments {!Metrics.batch_conflict_pairs} by
    the number of conflicts. *)

val pp_difference : Format.formatter -> difference -> unit
