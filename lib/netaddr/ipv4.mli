(** IPv4 addresses represented as integers in [0, 2{^32}). *)

type t = private int

val zero : t
val broadcast : t

val of_int : int -> t
(** [of_int n] builds an address from an integer. @raise Invalid_argument
    if [n] is outside [0, 2{^32}). *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d]. @raise Invalid_argument
    if any octet is outside [0, 255]. *)

val of_string : string -> t option
(** Parse dotted-quad notation: four octets of one to three decimal
    digits ({!Decimal}), each at most 255; [None] on malformed input. *)

val of_substring : string -> int -> int -> t option
(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    read in place. *)

val of_string_exn : string -> t
(** Like {!of_string}. @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s text. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a] counting from the most significant bit,
    so [bit a 0] is the top bit. @raise Invalid_argument unless
    [0 <= i < 32]. *)

val with_bit : t -> int -> bool -> t
(** [with_bit a i v] sets bit [i] (MSB-first) of [a] to [v]. *)

val mask : int -> t
(** [mask len] is the netmask with [len] leading one bits.
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val wildcard_of_mask : t -> t
(** Bitwise complement, i.e. the Cisco wildcard form of a netmask. *)

val logand : t -> t -> t
val succ : t -> t
(** Successor, wrapping at the top of the address space. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
