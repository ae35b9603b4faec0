(** Cisco route-maps: ordered permit/deny stanzas with match and set
    clauses. Evaluation against a concrete route lives in {!Semantics}
    because match clauses refer to named ancillary lists. *)

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

let make name stanzas =
  let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) stanzas in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg
            (Printf.sprintf "Route_map.make: duplicate seq %d in %s" a.seq name)
        else check rest
    | _ -> ()
  in
  check sorted;
  { name; stanzas = sorted }

let stanza ?(seq = 0) ?(matches = []) ?(sets = []) action =
  { seq; action; matches; sets }

let next_seq t =
  match List.rev t.stanzas with [] -> 10 | last :: _ -> last.seq + 10

let append t s =
  let s = if s.seq = 0 then { s with seq = next_seq t } else s in
  make t.name (s :: t.stanzas)

(** Renumber every stanza 10, 20, 30, ... preserving order. *)
let resequence t =
  {
    t with
    stanzas = List.mapi (fun i s -> { s with seq = (i + 1) * 10 }) t.stanzas;
  }

(** Insert a stanza at position [pos] (0 = before everything); sequence
    numbers are reassigned by resequencing. *)
let insert_at t pos s =
  let n = List.length t.stanzas in
  if pos < 0 || pos > n then invalid_arg "Route_map.insert_at";
  let before = List.filteri (fun i _ -> i < pos) t.stanzas in
  let after = List.filteri (fun i _ -> i >= pos) t.stanzas in
  resequence { t with stanzas = before @ (s :: after) }

let rename t name = { t with name }

(** Names of ancillary lists referenced by the map's match clauses. *)
let referenced_lists t =
  let of_clause = function
    | Match_prefix_list names -> List.map (fun n -> (`Prefix_list, n)) names
    | Match_community names -> List.map (fun n -> (`Community_list, n)) names
    | Match_as_path names -> List.map (fun n -> (`As_path_list, n)) names
    | Match_local_pref _ | Match_metric _ | Match_tag _ -> []
  in
  let of_set = function
    | Set_comm_list_delete name -> [ (`Community_list, name) ]
    | _ -> []
  in
  List.concat_map
    (fun s -> List.concat_map of_clause s.matches @ List.concat_map of_set s.sets)
    t.stanzas
  |> List.sort_uniq Stdlib.compare

(** Rewrite every reference to a named list (used when inserting a
    synthesized stanza whose lists were renamed to avoid collisions). *)
let rename_references t (renaming : (string * string) list) =
  let rn n = match List.assoc_opt n renaming with Some n' -> n' | None -> n in
  let clause = function
    | Match_prefix_list names -> Match_prefix_list (List.map rn names)
    | Match_community names -> Match_community (List.map rn names)
    | Match_as_path names -> Match_as_path (List.map rn names)
    | (Match_local_pref _ | Match_metric _ | Match_tag _) as c -> c
  in
  let set = function
    | Set_comm_list_delete name -> Set_comm_list_delete (rn name)
    | s -> s
  in
  {
    t with
    stanzas =
      List.map
        (fun s ->
          { s with matches = List.map clause s.matches; sets = List.map set s.sets })
        t.stanzas;
  }

(* A keyword and the names or the number it takes. *)
let with_names b keyword names =
  Buffer.add_string b keyword;
  Text.list b ' ' Buffer.add_string names

let with_number b keyword n =
  Buffer.add_string b keyword;
  Netaddr.Decimal.write b n

let write_match b = function
  | Match_prefix_list ns -> with_names b "match ip address prefix-list " ns
  | Match_community ns -> with_names b "match community " ns
  | Match_as_path ns -> with_names b "match as-path " ns
  | Match_local_pref n -> with_number b "match local-preference " n
  | Match_metric n -> with_number b "match metric " n
  | Match_tag tags ->
      Buffer.add_string b "match tag ";
      Text.list b ' ' Netaddr.Decimal.write tags

let write_set b = function
  | Set_metric n -> with_number b "set metric " n
  | Set_local_pref n -> with_number b "set local-preference " n
  | Set_community { communities; additive } ->
      Buffer.add_string b "set community ";
      Text.list b ' ' Bgp.Community.write communities;
      if additive then Buffer.add_string b " additive"
  | Set_comm_list_delete name ->
      Buffer.add_string b "set comm-list ";
      Buffer.add_string b name;
      Buffer.add_string b " delete"
  | Set_as_path_prepend asns ->
      Buffer.add_string b "set as-path prepend ";
      Text.list b ' ' Netaddr.Decimal.write asns
  | Set_next_hop ip ->
      Buffer.add_string b "set ip next-hop ";
      Netaddr.Ipv4.write b ip
  | Set_tag n -> with_number b "set tag " n
  | Set_weight n -> with_number b "set weight " n
  | Set_origin o ->
      Buffer.add_string b "set origin ";
      Buffer.add_string b (Bgp.Route.origin_to_string o)

let string_of_set = Text.to_string write_set

let write_stanza b name (s : stanza) =
  Buffer.add_string b "route-map ";
  Buffer.add_string b name;
  Buffer.add_char b ' ';
  Buffer.add_string b (Action.to_string s.action);
  with_number b " " s.seq;
  List.iter
    (fun m ->
      Buffer.add_string b "\n ";
      write_match b m)
    s.matches;
  List.iter
    (fun c ->
      Buffer.add_string b "\n ";
      write_set b c)
    s.sets

let pp_stanza fmt name s = Text.pp (fun b s -> write_stanza b name s) fmt s
let write b t = Text.list b '\n' (fun b s -> write_stanza b t.name s) t.stanzas
let pp = Text.pp write
