(** IPv4 CIDR prefixes, canonicalized so that host bits are zero. *)

type t = private { ip : Ipv4.t; len : int }

val make : Ipv4.t -> int -> t
(** [make ip len] canonicalizes [ip] by zeroing bits beyond [len].
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val of_string : string -> t option
(** Parse ["a.b.c.d/len"], the address as {!Ipv4.of_string} reads it and
    the length in decimal ({!Decimal}). Host bits are zeroed silently. *)

val of_substring : string -> int -> int -> t option
(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    read in place. *)

val of_string_exn : string -> t
val to_string : t -> string

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s text. *)

val default : t
(** [0.0.0.0/0]. *)

val host : Ipv4.t -> t
(** The /32 prefix of a single address. *)

val contains_ip : t -> Ipv4.t -> bool

val subset : t -> t -> bool
(** [subset p q] iff every address of [p] is in [q]. *)

val overlap : t -> t -> bool
(** [overlap p q] iff the prefixes share at least one address, i.e. one
    is a subset of the other. *)

val first : t -> Ipv4.t
val last : t -> Ipv4.t

val split : t -> (t * t) option
(** Split into the two half-prefixes; [None] when [len = 32]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
