(** Unsigned bit-vector predicates over BDD variables.

    A bit-vector is an array of BDD variable indices, most significant
    bit first. All constants are non-negative OCaml ints and must fit in
    the vector's width. *)

type t = private int array

val make : int array -> t
(** Wrap variable indices (MSB first). @raise Invalid_argument on an
    empty array or a negative index. *)

val sequential : first:int -> width:int -> t
(** Variables [first, first+1, ..., first+width-1]. *)

val width : t -> int
val vars : t -> int list

val eq_const : t -> int -> Bdd.t
(** [eq_const bv n]: the vector equals [n]. *)

val le_const : t -> int -> Bdd.t
val ge_const : t -> int -> Bdd.t

val in_range : t -> int -> int -> Bdd.t
(** [in_range bv lo hi]: [lo <= bv <= hi]. @raise Invalid_argument if
    [lo > hi]. *)

val prefix_match : t -> value:int -> len:int -> Bdd.t
(** Constrain the [len] most significant bits to those of [value]
    (itself interpreted as a full-width constant). *)

(** {2 Reading models} *)

type valuation
(** A partial assignment indexed by variable, so that every field and
    atom of one {!Bdd.any_sat} path is read from a single pass over it
    instead of a list search per bit. *)

val valuation : (int * bool) list -> valuation
(** Index a partial assignment, in time linear in its length and its
    largest variable. When a variable is bound more than once the first
    binding wins, as with [List.assoc_opt]; negative variables are
    ignored. *)

val value : valuation -> int -> bool option
(** A variable's value, [None] when unassigned. *)

val read : t -> valuation -> int
(** The vector's value under the valuation; unassigned bits read as 0. *)

val check_const : t -> int -> unit
(** @raise Invalid_argument if the constant does not fit the width. *)
