(** Cisco route-maps: ordered permit/deny stanzas with match and set
    clauses, evaluated first-match with an implicit trailing deny.
    Evaluation against a concrete route lives in {!Semantics} because
    match clauses refer to named ancillary lists. *)

type match_clause =
  | Match_prefix_list of string list (* OR across the named lists *)
  | Match_community of string list
  | Match_as_path of string list
  | Match_local_pref of int
  | Match_metric of int
  | Match_tag of int list (* OR across the listed tags *)

type set_clause =
  | Set_metric of int
  | Set_local_pref of int
  | Set_community of { communities : Bgp.Community.t list; additive : bool }
  | Set_comm_list_delete of string
  | Set_as_path_prepend of int list
  | Set_next_hop of Netaddr.Ipv4.t
  | Set_tag of int
  | Set_weight of int
  | Set_origin of Bgp.Route.origin

type stanza = {
  seq : int;
  action : Action.t;
  matches : match_clause list; (* AND across clauses *)
  sets : set_clause list; (* applied in order on permit *)
}

type t = { name : string; stanzas : stanza list (* ascending seq *) }

val make : string -> stanza list -> t
(** Sorts stanzas by sequence number.
    @raise Invalid_argument on duplicate sequence numbers. *)

val stanza :
  ?seq:int -> ?matches:match_clause list -> ?sets:set_clause list -> Action.t -> stanza

val next_seq : t -> int
val append : t -> stanza -> t

val resequence : t -> t
(** Renumber every stanza 10, 20, 30, ... preserving order. *)

val insert_at : t -> int -> stanza -> t
(** [insert_at t pos s] inserts [s] at position [pos] (0 = before
    everything, [List.length t.stanzas] = after everything) and
    resequences. @raise Invalid_argument when out of range. *)

val rename : t -> string -> t

val referenced_lists :
  t -> ([ `As_path_list | `Community_list | `Prefix_list ] * string) list
(** Names of ancillary lists referenced by match clauses and comm-list
    deletes, deduplicated and sorted. *)

val rename_references : t -> (string * string) list -> t
(** Rewrite every reference to a named list (used when a synthesized
    stanza's lists are imported under fresh names). *)

val string_of_set : set_clause -> string

val pp_stanza : Format.formatter -> string -> stanza -> unit
(** A stanza under the given map name, as {!write} writes it. *)

val write : Buffer.t -> t -> unit
(** Per stanza, the [route-map NAME permit|deny SEQ] header, then one
    indented line per match and then per set clause ({!Text}). *)

val pp : Format.formatter -> t -> unit
