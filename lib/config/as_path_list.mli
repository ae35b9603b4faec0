(** Cisco [ip as-path access-list] definitions: first-match permit/deny
    entries over AS-path regexes. *)

type entry = { action : Action.t; regex : Sre.As_path_regex.t }
type t = { name : string; entries : entry list }

val make : string -> (Action.t * string) list -> t
(** Compiles each regex source.
    @raise Sre.As_path_regex.Parse_error on malformed regexes. *)

val eval : t -> int list -> Action.t option
(** First matching entry's action on the given AS path. *)

val matches : t -> int list -> bool
(** [eval] returned [Some Permit]. *)

val rename : t -> string -> t

val write : Buffer.t -> t -> unit
(** One [ip as-path access-list NAME permit|deny REGEX] line per entry
    ({!Text}). *)

val pp : Format.formatter -> t -> unit
