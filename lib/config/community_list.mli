(** Cisco [ip community-list] definitions, standard and expanded.

    A standard entry matches a route carrying {e all} of its listed
    communities; an expanded entry matches a route carrying {e at least
    one} community in its regex's language. Entries are evaluated
    first-match. *)

type standard_entry = { action : Action.t; communities : Bgp.Community.t list }

type expanded_entry = {
  action : Action.t;
  regex : Sre.Community_regex.t; (* compiled once at construction *)
}

type body =
  | Standard of standard_entry list
  | Expanded of expanded_entry list

type t = { name : string; body : body }

val standard : string -> standard_entry list -> t

val expanded : string -> (Action.t * string) list -> t
(** Compiles each regex source.
    @raise Sre.Community_regex.Parse_error on malformed regexes. *)

val eval : t -> Bgp.Community.t list -> Action.t option
(** First matching entry's action on the route's community set; [None]
    when no entry matches. *)

val matches : t -> Bgp.Community.t list -> bool
(** [eval] returned [Some Permit]. *)

val permitted_patterns :
  t ->
  [ `Standard of Bgp.Community.t list list
  | `Expanded of Sre.Community_regex.t list ]
(** The permit entries' payloads, for symbolic analysis. *)

val rename : t -> string -> t

val write : Buffer.t -> t -> unit
(** One [ip community-list standard|expanded NAME permit|deny ...] line
    per entry ({!Text}). *)

val pp : Format.formatter -> t -> unit
