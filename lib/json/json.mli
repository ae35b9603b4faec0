(** Minimal JSON abstract syntax, parser and printer.

    Implements the subset of JSON needed for the paper's behavioural
    specifications: objects, arrays, strings, integers, floats, booleans
    and null, with standard string escapes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t

val to_string : ?indent:int -> t -> string
(** Render; with [indent] > 0, pretty-print using that many spaces per
    nesting level, otherwise compact. Default [indent = 2]. *)

val member : string -> t -> t option
(** Object field lookup; [None] for missing fields or non-objects. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
