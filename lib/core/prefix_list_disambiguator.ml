(** Insertion disambiguation for prefix-list entries — the paper's first
    future-work item ("support for inserting entries into other data
    structures that can have conflicts like prefix lists").

    Prefix lists have the same first-match semantics as route-maps, so
    the same algorithm and the same boundary sweep
    ({!Engine.First_match.Sweep}) apply, with route prefixes as the
    inputs: the differential example is a concrete prefix. *)

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

(* Adjacent placements i and i+1 differ exactly on the prefixes that
   match the new entry and entry i and no earlier entry, when the two
   actions differ. That region is one range ([inter]) less the earlier
   entries, and its least prefix by (length, address)
   ([first_uncovered]) both decides that i is a boundary and is its
   witness: the ranges' overlap witness whenever no earlier entry
   matches that prefix. *)
module Sweep = Engine.First_match.Sweep (struct
  type target = Config.Prefix_list.t
  type rule = Config.Prefix_list.entry
  type difference = Netaddr.Prefix.t

  (* The target's entries and the candidates. *)
  type partition = rule array * rule array

  let width (t : target) = List.length t.entries
  let compile (t : target) cands = (Array.of_list t.entries, cands)

  (* Candidate [k]'s witness at position [i], or [None] when [i] is not
     a boundary; a decode counts wherever the region may be
     non-empty. *)
  let witness_at ((entries, cands) : partition) k i =
    let cand = cands.(k) and e = entries.(i) in
    if Config.Action.equal cand.action e.action then None
    else
      Option.bind (Netaddr.Prefix_range.inter cand.range e.range) (fun r ->
          Obs.Counter.incr Engine.Metrics.witnesses_decoded;
          Netaddr.Prefix_range.first_uncovered r
            (List.init i (fun j -> entries.(j).range)))

  (* Every boundary carries the witness that decided it. *)
  let cell_boundaries ((entries, _) as p) k =
    List.filter_map
      (fun i -> Option.map (fun w -> (i, Some w)) (witness_at p k i))
      (List.init (Array.length entries) Fun.id)

  let witness p k i = Option.get (witness_at p k i)

  let classify ((_, cands) : partition) i j =
    let a = cands.(i) and b = cands.(j) in
    match Netaddr.Prefix_range.witness_overlap a.range b.range with
    | None -> Engine.First_match.Disjoint
    | Some _ when Config.Action.equal a.action b.action ->
        Engine.First_match.Overlap
    | Some w -> Engine.First_match.Conflict w
end)

(* One sweep, as questions. The sweep decodes every witness to decide
   its boundary, so [lazy_insertions] would have nothing to defer. *)
let questions ~(target : Config.Prefix_list.t) entry =
  let entries = Array.of_list target.entries in
  List.map
    (fun (i, prefix) ->
      {
        position = i;
        boundary_seq = entries.(i).seq;
        prefix;
        if_new_first = entry.Config.Prefix_list.action;
        if_old_first = entries.(i).action;
      })
    (Sweep.adjacent_insertions target entry)

let boundaries ~target entry =
  Disambig_common.sweep family (fun () -> questions ~target entry)

(* Classification reads no target, so any target will do. *)
let conflict_graph = Sweep.conflict_graph (Config.Prefix_list.make "" [])

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
    ~view ~position ~top ~oracle
    (Disambig_common.decoded ~position
       (match precomputed with
       | Some qs -> qs
       | None -> Disambig_common.find (fun () -> questions ~target entry)))
  |> Result.map (fun (position, questions, boundaries) ->
         let prefix_list = insert_entry_at target position entry in
         { prefix_list; position; questions; boundaries })
  |> Result.map_error (fun qs -> Inconsistent_intent qs)

(** The ideal user: answers according to a target prefix policy. *)
let intent_driven (desired : Netaddr.Prefix.t -> Config.Action.t) =
  fun q ->
    if Config.Action.equal (desired q.prefix) q.if_new_first then Prefer_new
    else Prefer_old
