(** Permit/deny actions shared by every Cisco matching construct. *)

type t = Permit | Deny

val to_string : t -> string
val flip : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
