(** Insertion disambiguation for prefix-list entries — the paper's first
    future-work item. Prefix lists share route-maps' first-match
    semantics, so the same boundary/binary-search algorithm applies with
    route prefixes as the inputs. *)

type question = {
  position : int;
  boundary_seq : int;
  prefix : Netaddr.Prefix.t; (* differential example *)
  if_new_first : Config.Action.t; (* implicit deny when unmatched *)
  if_old_first : Config.Action.t;
}

type answer = Disambig_common.answer = Prefer_new | Prefer_old
type oracle = question -> answer
type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  prefix_list : Config.Prefix_list.t;
  position : int;
  questions : question list;
  boundaries : int;
}

type error = Inconsistent_intent of question list

val pp_question : Format.formatter -> question -> unit

val view : question -> Disambig_common.view
(** The telemetry rendering of a question — also the batch answer
    cache's key material. *)

val insert_entry_at :
  Config.Prefix_list.t -> int -> Config.Prefix_list.entry -> Config.Prefix_list.t

val boundaries :
  target:Config.Prefix_list.t -> Config.Prefix_list.entry -> question list
(** All differing boundaries in position order, from one scan of the
    target. By definition, position [i] is a boundary when the entry
    inserted at [i] and at [i + 1] treat the overlap witness of the
    entry's and entry [i]'s ranges differently; that witness is the
    example. *)

val run :
  ?mode:mode ->
  ?precomputed:question list ->
  target:Config.Prefix_list.t ->
  entry:Config.Prefix_list.entry ->
  oracle:oracle ->
  unit ->
  (outcome, error) result
(** {!Disambig_common.place} on the prefix-list family. [?precomputed]
    skips the scan and uses the given boundary questions. *)

val intent_driven : (Netaddr.Prefix.t -> Config.Action.t) -> oracle
