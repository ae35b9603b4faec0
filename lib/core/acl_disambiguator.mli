(** Insertion disambiguation for ACL rules — the same algorithm as
    {!Disambiguator}, over packet space. Extends the paper's prototype,
    which handled route-maps only. *)

type question = {
  position : int;
  boundary_seq : int;
  packet : Config.Packet.t; (* differential example *)
  if_new_first : Config.Action.t;
  if_old_first : Config.Action.t;
}

type answer = Disambig_common.answer = Prefer_new | Prefer_old
type oracle = question -> answer
type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  acl : Config.Acl.t;
  position : int;
  questions : question list;
  boundaries : int;
}

type error = Inconsistent_intent of question list

val pp_question : Format.formatter -> question -> unit

val view : question -> Disambig_common.view
(** The telemetry rendering of a question — also the batch answer
    cache's key material. *)

val boundaries :
  ?pool:Parallel.Pool.t -> target:Config.Acl.t -> Config.Acl.rule -> question list
(** All differing boundaries in position order, from one sweep of
    {!Engine.Compare_acls.adjacent_insertions}: every witness is
    decoded. [?pool] is accepted and ignored. *)

val run :
  ?mode:mode ->
  ?pool:Parallel.Pool.t ->
  ?precomputed:question list ->
  target:Config.Acl.t ->
  rule:Config.Acl.rule ->
  oracle:oracle ->
  unit ->
  (outcome, error) result
(** {!Disambig_common.place} on the ACL family, over the boundaries of
    one sweep, {!Engine.Compare_acls.lazy_insertions}, which decides every
    boundary without a witness: a run decodes exactly the witnesses it
    asks about, in the current BDD manager, before it returns.
    Questions, placement and outcome are those of a run on
    {!boundaries}. [?precomputed] skips the engine sweep and uses the
    given boundary questions. [?pool] is accepted and ignored. *)

val scripted : answer list -> oracle
val intent_driven : (Config.Packet.t -> Config.Action.t) -> oracle
