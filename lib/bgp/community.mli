(** BGP standard communities, written ["asn:value"] with two 16-bit
    halves. *)

type t = private { asn : int; value : int }

val make : int -> int -> t
(** @raise Invalid_argument unless both halves are in [0, 65535]. *)

val of_string : string -> t option
(** Parse ["asn:value"], each half in decimal ({!Netaddr.Decimal}). *)

val of_substring : string -> int -> int -> t option
(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    read in place. *)

val of_string_exn : string -> t
val to_string : t -> string

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s text. *)

val to_pair : t -> int * int

(* Well-known communities. *)
val no_export : t
val no_advertise : t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
