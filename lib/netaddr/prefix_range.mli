(** Cisco prefix-list entry semantics: a base prefix plus an allowed
    range of prefix lengths.

    The entry [P/l ge g le e] matches a route prefix [Q/m] iff the first
    [l] bits of [Q] equal those of [P] and [g <= m <= e]. Cisco default
    bounds: with neither [ge] nor [le], [g = e = l]; with only [le n],
    the range is [l <= m <= n]; with only [ge n], it is [n <= m <= 32]. *)

type t = private { prefix : Prefix.t; lo : int; hi : int }

val make : Prefix.t -> ge:int option -> le:int option -> t
(** @raise Invalid_argument if the resulting bounds are not
    [prefix.len <= lo <= hi <= 32]. *)

val exact : Prefix.t -> t
(** Match exactly this prefix. *)

val any : t
(** [0.0.0.0/0 le 32]: matches every prefix. *)

val matches : t -> Prefix.t -> bool
(** Does a route prefix fall inside this range? *)

val overlap : t -> t -> bool
(** Do two ranges match at least one common route prefix? *)

val subset : t -> t -> bool
(** [subset a b] iff every prefix matched by [a] is matched by [b]. *)

val witness : t -> Prefix.t
(** Some prefix matched by the range (the base prefix extended to the
    minimum allowed length). *)

val inter : t -> t -> t option
(** The prefixes both ranges match, as one range: the longer base, over
    the lengths both windows allow; [None] when they share none. *)

val witness_overlap : t -> t -> Prefix.t option
(** A route prefix matched by both ranges, if any: their {!inter}'s
    {!witness}. *)

val first_uncovered : t -> t list -> Prefix.t option
(** [first_uncovered r rs]: the shortest, then lowest, prefix that [r]
    matches and no range of [rs] matches; [None] when [rs] covers
    [r]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s text: the prefix, then each [ge]/[le] modifier
    that the default bounds do not imply. *)
