(** Expanded community-list regular expressions.

    Cisco matches expanded community lists against the textual rendering
    of a route's communities; we interpret the regex against each
    individual community rendered as ["A:B"] — a route satisfies the
    regex iff at least one of its communities matches. Within a single
    community string:

    - a leading [_] (or [^]) anchors the start, a trailing [_] (or [$])
      anchors the end; an unanchored pattern is padded with [.*]
      (Cisco's substring semantics);
    - an internal [_] matches the [:] separator;
    - digits, [:], [.], [[..]] classes, [()], [|], [*], [+], [?] have
      their usual character-level meanings. *)

module R : module type of Regex.Make (Alphabet.Char_)

exception Parse_error of string

type t

val compile : string -> t
(** @raise Parse_error on malformed input. *)

val source : t -> string
val regex : t -> R.re

val matches : t -> int * int -> bool
(** Does the community (asn, value) match? *)

val sat_witness : pos:t list -> neg:t list -> (int * int) option
(** A concrete community matching all of [pos] and none of [neg], if one
    can be found. Complete up to the witness-enumeration budget: a
    [None] answer is almost always genuine infeasibility, but an
    adversarial regex whose only witnesses exceed 16-bit bounds could be
    missed. *)

val intersects : t -> t -> bool
val is_empty : t -> bool
val pp : Format.formatter -> t -> unit
