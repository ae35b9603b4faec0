(** Permit/deny actions shared by every Cisco matching construct. *)

type t = Permit | Deny

let to_string = function Permit -> "permit" | Deny -> "deny"

let flip = function Permit -> Deny | Deny -> Permit
let equal = ( = )
let compare = Stdlib.compare
let pp fmt a = Format.pp_print_string fmt (to_string a)
