(** Unsigned bit-vector predicates over BDD variables.

    A bit-vector is an array of BDD variable indices, most significant
    bit first. All constants are non-negative OCaml ints and must fit in
    the vector's width.

    The predicates ({!eq_const}, {!le_const}, {!ge_const},
    {!in_range}, {!prefix_match}) are laid one {!Bdd.node} per bit from
    the least significant up, so they need the vector's variables
    strictly ascending, as {!sequential} makes them. On another vector they
    raise [Invalid_argument] wherever a node would sit below its
    child. {!read} takes any vector. *)

type t = private int array

val make : int array -> t
(** Wrap variable indices (MSB first), in any order, repeats allowed:
    such a vector can be {!read}, but only an ascending one can build
    predicates. @raise Invalid_argument on an empty array or a negative
    index. *)

val sequential : first:int -> width:int -> t
(** Variables [first, first+1, ..., first+width-1]. *)

val width : t -> int
val vars : t -> int list

val eq_const : t -> int -> Bdd.t
(** [eq_const bv n]: the vector equals [n]. One node per bit. *)

val le_const : t -> int -> Bdd.t
val ge_const : t -> int -> Bdd.t
(** [le_const bv n], [ge_const bv n]: the vector is at most, at least,
    [n]. At most one node per bit. *)

val in_range : t -> int -> int -> Bdd.t
(** [in_range bv lo hi]: [lo <= bv <= hi]. @raise Invalid_argument if
    [lo > hi]. *)

val prefix_match : ?on:Bdd.t -> t -> value:int -> len:int -> Bdd.t
(** Constrain the [len] most significant bits to those of [value]
    (itself interpreted as a full-width constant), conjoined with [on]
    (default {!Bdd.one}). The cube is laid directly on [on], so [on]
    must depend only on variables after the vector's bit [len - 1].
    @raise Invalid_argument if [value] does not fit, [len] is outside
    [0, width], or [on] reaches up to a constrained bit. *)

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

