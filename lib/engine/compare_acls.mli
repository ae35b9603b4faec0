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
  ?pool:Parallel.Pool.t ->
  target:Config.Acl.t ->
  Config.Acl.rule ->
  (int * difference) list
(** Every insertion position [i] (0-based, ascending) at which inserting
    the rule at [i] behaves differently from inserting it at [i + 1],
    with one witness packet per position: by definition, where
    {!first_difference} of the two placements finds one, and the
    witness it finds. The ACL instance of {!First_match.Sweep}: one
    symbolic execution of the target projected onto the rule, where
    target rules {!Symbolic.Packet_space.apart} from it are not
    compiled, then one read per position; [~pool] shards the
    positions. It is {!lazy_insertions} with every witness decoded. *)

val lazy_insertions :
  ?pool:Parallel.Pool.t ->
  target:Config.Acl.t ->
  Config.Acl.rule ->
  (int * difference Lazy.t) list
(** The positions of {!adjacent_insertions}, each witness decoded when
    forced, in the current manager: force them before it is reset. An
    ACL never needs a witness to decide a boundary: position [i] is one
    exactly when the two rules' actions differ and its region is
    non-empty, and for a single rule that region is the cell's guard,
    so the sweep decodes nothing. *)

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
    against one symbolic execution of [target]. *)

val pp_difference : Format.formatter -> difference -> unit
