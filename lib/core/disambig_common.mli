(** The disambiguation loop shared by the three insertion
    disambiguators ({!Disambiguator} for route-maps,
    {!Acl_disambiguator}, {!Prefix_list_disambiguator}).

    Each instance keeps its own question type; {!place} works through a
    {!view} rendering, so the three modes, the "question"/"probe"
    telemetry schema and the binary search exist in exactly one
    place. *)

type answer = Prefer_new | Prefer_old

val answer_to_string : answer -> string
(** ["new"] / ["old"], as recorded in telemetry and given to
    [clarify replay]. *)

type mode =
  | Binary_search  (** the paper's Section 4 algorithm *)
  | Top_bottom  (** the paper's prototype: only positions 0 and n *)
  | Linear  (** ask every boundary; detects inconsistent intent *)

val mode_to_string : mode -> string
(** ["binary_search"], ["top_bottom"] or ["linear"], as recorded in
    [session_start]. *)

val mode_of_string : string -> (mode, string) result
(** The inverse of {!mode_to_string}; [Error] names the unknown mode. *)

(** One policy family as telemetry and metrics see it. *)
type family = {
  subsystem : string;  (** the [subsystem] field of its events *)
  questions : Obs.Counter.t;  (** [<prefix>.questions] *)
  boundaries : Obs.Counter.t;  (** [<prefix>.boundaries] *)
  probes : Obs.Counter.t;  (** [<prefix>.binary_search.probes] *)
}

val family : subsystem:string -> prefix:string -> family
(** Registers the family's three counters. *)

(** A question as the flight recorder sees it: instances render their
    route / packet / prefix example and the two candidate behaviours to
    strings. *)
type view = {
  position : int;
  boundary_seq : int;
  example : string;
  if_new_first : string;
  if_old_first : string;
}

val find : (unit -> 'b list) -> 'b list
(** [find f] runs [f] in a ["find_boundaries"] span. *)

val sweep : family -> (unit -> 'b list) -> 'b list
(** {!find}, counting the boundaries [f] returns without decoding any
    witness: the eager [boundaries] entry points' sweep. *)

val decoded : position:('q -> int) -> 'q list -> (int * 'q Lazy.t) list
(** Questions already decoded, as {!place}'s boundaries. *)

val place :
  family ->
  mode:mode ->
  width:int ->
  view:('q -> view) ->
  position:('q -> int) ->
  top:('q -> 'q) ->
  oracle:('q -> answer) ->
  (int * 'q Lazy.t) list ->
  (int * 'q list * int, 'q list) result
(** The disambiguation loop of every family, the paper's Section 4:
    [place fam ~mode ~width ... bs] counts the boundaries [bs], each a
    position and its question, and asks as [mode] says, each
    question emitting one [kind="question"] event and each
    binary-search iteration one [kind="probe"] event. [Ok (position,
    questions, boundaries)] gives the chosen insertion position in
    [0..width], the questions in the order asked and the boundaries
    found; [Top_bottom] asks one question, [top] of the first boundary,
    and reports one boundary. [Error questions] is a [Linear] run whose
    answers are not monotone. With no boundary the rule goes to
    [width] without a question.

    A question is forced only when it is asked, and before [place]
    returns: about log₂ k of k boundaries under [Binary_search], one
    under [Top_bottom], all under [Linear]. The search and the final
    placement read positions alone, so a boundary never asked about is
    never decoded, and a question forced in the manager its boundaries
    were swept in is forced before that manager can be reset. *)

val scripted : answer list -> 'q -> answer
(** Answers drawn from a fixed list; raises [Failure] when
    exhausted. *)

(** Shared answer cache for batch runs ({!Batch}). A question matches
    an earlier one when the policy name, its (position, boundary_seq)
    pair and its rendered text all agree, so two identical-text
    questions from different intents against different policies or
    positions are never silently merged. *)
module Answer_cache : sig
  type t

  val create : unit -> t

  val find : t -> policy:string -> view -> answer option
  (** Cached answer for an identical earlier question, if any; counts a
      hit. *)

  val add : t -> policy:string -> view -> answer -> unit

  val find_at :
    t ->
    policy:string ->
    position:int ->
    boundary_seq:int ->
    view Lazy.t ->
    answer option
  (** {!find} for a question given by its coordinates and its view,
      which is forced only when an earlier question has the same
      coordinates. *)

  val add_at :
    t ->
    policy:string ->
    position:int ->
    boundary_seq:int ->
    view Lazy.t ->
    answer ->
    unit
  (** {!add} for a question given by its coordinates; the view is
      stored unforced. *)

  val hits : t -> int
  (** Questions served from the cache so far. *)

  val cached :
    t -> policy:string -> view:('q -> view) -> ('q -> answer) -> 'q -> answer
  (** [cached t ~policy ~view oracle] behaves like [oracle] but serves
      repeated questions from the cache without consulting it again. *)
end
