(** Insertion disambiguation for prefix-list entries — the paper's first
    future-work item ("support for inserting entries into other data
    structures that can have conflicts like prefix lists").

    Prefix lists have the same first-match semantics as route-maps, so
    the same algorithm applies, with route prefixes as the inputs:
    adjacent placements of the new entry differ exactly on prefixes that
    match both the new entry and the existing entry at the boundary, and
    the differential example is a concrete prefix. *)

type question = {
  position : int;
  boundary_seq : int;
  prefix : Netaddr.Prefix.t; (* the differential example *)
  if_new_first : Config.Action.t; (* Cisco implicit deny when unmatched *)
  if_old_first : Config.Action.t;
}

type answer = Disambig_common.answer = Prefer_new | Prefer_old
type oracle = question -> answer
type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  prefix_list : Config.Prefix_list.t;
  position : int;
  questions : question list;
  boundaries : int;
}

type error = Inconsistent_intent of question list

let pp_question fmt q =
  Format.fprintf fmt
    "@[<v>Where the new entry is placed changes the treatment of this \
     prefix (boundary: existing entry %d):@ %a@ OPTION 1 (new entry \
     first): %a@ OPTION 2 (existing entry first): %a@]"
    q.boundary_seq Netaddr.Prefix.pp q.prefix Config.Action.pp q.if_new_first
    Config.Action.pp q.if_old_first

let insert_entry_at (pl : Config.Prefix_list.t) pos
    (entry : Config.Prefix_list.entry) =
  let n = List.length pl.Config.Prefix_list.entries in
  if pos < 0 || pos > n then invalid_arg "Prefix_list insertion position";
  let before = List.filteri (fun i _ -> i < pos) pl.Config.Prefix_list.entries in
  let after = List.filteri (fun i _ -> i >= pos) pl.Config.Prefix_list.entries in
  let entries =
    List.mapi
      (fun i (e : Config.Prefix_list.entry) ->
        { e with Config.Prefix_list.seq = (i + 1) * 10 })
      (before @ (entry :: after))
  in
  Config.Prefix_list.make pl.Config.Prefix_list.name entries

(* Observability (see DESIGN.md §Observability for the naming scheme). *)
let family =
  Disambig_common.family ~subsystem:"prefix_list"
    ~prefix:"prefix_list_disambiguator"

(* Adjacent placements i and i+1 differ exactly on prefixes matching
   both the new entry and existing entry i, provided no earlier entry
   captures them first and the two entries' actions differ. Earlier
   entries are the same under both placements, so one scan of the
   target answers every position: the overlap witness of the two
   ranges is a boundary's example unless an earlier entry shadows it.
   (Within one overlap region the disagreement set is a sub-window; the
   canonical witness lies inside it whenever it is nonempty.) *)
let boundaries ~(target : Config.Prefix_list.t)
    (entry : Config.Prefix_list.entry) =
  Disambig_common.sweep family @@ fun () ->
  let entries = Array.of_list target.Config.Prefix_list.entries in
  let shadowed i w =
    let rec scan j =
      j < i
      && (Netaddr.Prefix_range.matches entries.(j).Config.Prefix_list.range w
          || scan (j + 1))
    in
    scan 0
  in
  List.filter_map
    (fun i ->
      let existing = entries.(i) in
      if Config.Action.equal entry.Config.Prefix_list.action
           existing.Config.Prefix_list.action
      then None
      else
        match
          Netaddr.Prefix_range.witness_overlap entry.Config.Prefix_list.range
            existing.Config.Prefix_list.range
        with
        | None -> None
        | Some w when shadowed i w -> None
        | Some w ->
            Some
              {
                position = i;
                boundary_seq = existing.seq;
                prefix = w;
                if_new_first = entry.action;
                if_old_first = existing.action;
              })
    (List.init (Array.length entries) Fun.id)

let view (q : question) =
  {
    Disambig_common.position = q.position;
    boundary_seq = q.boundary_seq;
    example = Format.asprintf "%a" Netaddr.Prefix.pp q.prefix;
    if_new_first = Format.asprintf "%a" Config.Action.pp q.if_new_first;
    if_old_first = Format.asprintf "%a" Config.Action.pp q.if_old_first;
  }

let run ?(mode = Binary_search) ?precomputed ~(target : Config.Prefix_list.t)
    ~entry ~oracle () =
  let top q =
    { q with position = 0; boundary_seq = (List.hd target.entries).seq }
  in
  let position (q : question) = q.position in
  Disambig_common.place family ~mode ~width:(List.length target.entries)
    ~view ~position ~top ~oracle ?precomputed (fun () ->
      Disambig_common.decoded ~position (boundaries ~target entry))
  |> Result.map (fun (position, questions, boundaries) ->
         let prefix_list = insert_entry_at target position entry in
         { prefix_list; position; questions; boundaries })
  |> Result.map_error (fun qs -> Inconsistent_intent qs)

(** The ideal user: answers according to a target prefix policy. *)
let intent_driven (desired : Netaddr.Prefix.t -> Config.Action.t) =
  fun q ->
    if Config.Action.equal (desired q.prefix) q.if_new_first then Prefer_new
    else Prefer_old
