(** The paper's disambiguator (Section 4) for route-maps.

    Candidate placements of a verified stanza [S*] into a target map of
    [n] stanzas are positions 0..n. Adjacent placements [i] and [i+1]
    differ exactly on routes that match [S*] and are handled by the
    original stanza at position [i]; such a position is a {e boundary}
    and each boundary comes with a differential example computed by
    {!Engine.Compare_route_policies}. Under the paper's three
    well-formedness conditions on the intended semantics [M'], the
    user's answers are monotone across boundaries, so binary search
    identifies the placement with a logarithmic number of questions. *)

type question = {
  position : int; (* boundary position, 0-based into the target *)
  boundary_seq : int; (* seq of the original stanza at that position *)
  route : Bgp.Route.t;
  if_new_first : Config.Semantics.route_result;
  if_old_first : Config.Semantics.route_result;
}

type answer = Disambig_common.answer =
  | Prefer_new (* the route should be handled by the new stanza *)
  | Prefer_old (* the route should keep its existing behaviour *)

type oracle = question -> answer

type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  map : Config.Route_map.t;
  position : int; (* chosen placement *)
  questions : question list; (* in the order asked *)
  boundaries : int; (* number of differing boundaries found *)
}

type error =
  | Inconsistent_intent of question list
      (** Linear mode found non-monotone answers: no single insertion
          point implements the user's wishes (paper condition 3 fails). *)

let pp_question fmt q =
  Format.fprintf fmt
    "@[<v>Where the new stanza is placed changes the treatment of this \
     route (boundary: existing stanza %d):@ %a@ @ OPTION 1 (new stanza \
     first):@ %a@ @ OPTION 2 (existing stanza first):@ %a@]"
    q.boundary_seq Bgp.Route.pp q.route Config.Semantics.pp_route_result
    q.if_new_first Config.Semantics.pp_route_result q.if_old_first

(* Observability (see DESIGN.md §Observability for the naming scheme). *)
let family =
  Disambig_common.family ~subsystem:"route_map" ~prefix:"disambiguator"

(* The question of boundary [i], from its witness. *)
let question (stanzas : Config.Route_map.stanza array) i
    (d : Engine.Compare_route_policies.difference) =
  {
    position = i;
    boundary_seq = stanzas.(i).seq;
    route = d.route;
    if_new_first = d.result_a;
    if_old_first = d.result_b;
  }

(* Boundary questions: position i differs from i+1 exactly on routes
   handled by original stanza i and matched by the new stanza. The
   sweep itself lives in {!Engine.Compare_route_policies}, so the
   target is compiled once instead of once per position. *)
let boundaries ?pool ~db ~(target : Config.Route_map.t) stanza =
  Disambig_common.sweep family @@ fun () ->
  let stanzas = Array.of_list target.stanzas in
  List.map
    (fun (i, d) -> question stanzas i d)
    (Engine.Compare_route_policies.adjacent_insertions ?pool ~db ~target
       stanza)

let view (q : question) =
  {
    Disambig_common.position = q.position;
    boundary_seq = q.boundary_seq;
    example = Format.asprintf "%a" Bgp.Route.pp q.route;
    if_new_first =
      Format.asprintf "%a" Config.Semantics.pp_route_result q.if_new_first;
    if_old_first =
      Format.asprintf "%a" Config.Semantics.pp_route_result q.if_old_first;
  }

let run ?(mode = Binary_search) ?pool ?precomputed ~db
    ~(target : Config.Route_map.t) ~stanza ~oracle () =
  let top q =
    { q with position = 0; boundary_seq = (List.hd target.stanzas).seq }
  in
  Disambig_common.place family ~mode ~width:(List.length target.stanzas)
    ~view ~position:(fun q -> q.position) ~top ~oracle ?precomputed
    (fun () ->
      (* The same sweep as [boundaries], each witness decoded only if
         its question is asked. *)
      Disambig_common.sweep family @@ fun () ->
      let stanzas = Array.of_list target.stanzas in
      List.map
        (fun (i, d) -> (i, Lazy.map (question stanzas i) d))
        (Engine.Compare_route_policies.lazy_insertions ?pool ~db ~target
           stanza))
  |> Result.map (fun (position, questions, boundaries) ->
         let map = Config.Route_map.insert_at target position stanza in
         { map; position; questions; boundaries })
  |> Result.map_error (fun qs -> Inconsistent_intent qs)

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)
(* ------------------------------------------------------------------ *)

(** Answers drawn from a fixed list (for scripted tests/CLIs); raises
    [Failure] when exhausted. *)
let scripted answers : oracle = Disambig_common.scripted answers

(** The ideal user: answers according to a target semantics. *)
let intent_driven (desired : Bgp.Route.t -> Config.Semantics.route_result) =
  fun q ->
    let want = desired q.route in
    if Config.Semantics.route_result_equal want q.if_new_first then Prefer_new
    else Prefer_old

(** A user who always wants the new stanza to win on overlaps. *)
let always_new (_ : question) = Prefer_new

(** A user who never wants existing behaviour to change. *)
let always_old (_ : question) = Prefer_old
