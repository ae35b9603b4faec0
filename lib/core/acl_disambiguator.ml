(** Insertion disambiguation for ACL rules — the same algorithm as
    {!Disambiguator}, over packet space. This extends the paper's
    prototype, which handled route-maps only. *)

type question = {
  position : int;
  boundary_seq : int;
  packet : Config.Packet.t;
  if_new_first : Config.Action.t;
  if_old_first : Config.Action.t;
}

type answer = Disambig_common.answer = Prefer_new | Prefer_old
type oracle = question -> answer
type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  acl : Config.Acl.t;
  position : int;
  questions : question list;
  boundaries : int;
}

type error = Inconsistent_intent of question list

let pp_question fmt q =
  Format.fprintf fmt
    "@[<v>Where the new rule is placed changes the treatment of this packet \
     (boundary: existing rule %d):@ %a@ OPTION 1 (new rule first): %a@ \
     OPTION 2 (existing rule first): %a@]"
    q.boundary_seq Config.Packet.pp q.packet Config.Action.pp q.if_new_first
    Config.Action.pp q.if_old_first

(* Observability (see DESIGN.md §Observability for the naming scheme). *)
let family =
  Disambig_common.family ~subsystem:"acl" ~prefix:"acl_disambiguator"

(* The question of boundary [i], from its witness. *)
let question (rules : Config.Acl.rule array) i
    (d : Engine.Compare_acls.difference) =
  {
    position = i;
    boundary_seq = rules.(i).seq;
    packet = d.packet;
    if_new_first = d.action_a;
    if_old_first = d.action_b;
  }

(* One sweep of the engine instead of one two-ACL diff per position. *)
let boundaries ?pool:_ ~(target : Config.Acl.t) rule =
  Disambig_common.sweep family @@ fun () ->
  let rules = Array.of_list target.rules in
  List.map
    (fun (i, d) -> question rules i d)
    (Engine.Compare_acls.adjacent_insertions ~target rule)

let view (q : question) =
  {
    Disambig_common.position = q.position;
    boundary_seq = q.boundary_seq;
    example = Format.asprintf "%a" Config.Packet.pp q.packet;
    if_new_first = Format.asprintf "%a" Config.Action.pp q.if_new_first;
    if_old_first = Format.asprintf "%a" Config.Action.pp q.if_old_first;
  }

let position (q : question) = q.position

let run ?(mode = Binary_search) ?pool:_ ?precomputed ~(target : Config.Acl.t)
    ~rule ~oracle () =
  let rules = Array.of_list target.rules in
  let bounds =
    match precomputed with
    | Some qs -> Disambig_common.decoded ~position qs
    | None ->
        (* The same sweep as [boundaries], each witness decoded only if
           its question is asked. *)
        Disambig_common.find @@ fun () ->
        List.map
          (fun (i, d) -> (i, Lazy.map (question rules i) d))
          (Engine.Compare_acls.lazy_insertions ~target rule)
  in
  let top q = { q with position = 0; boundary_seq = rules.(0).seq } in
  Disambig_common.place family ~mode ~width:(Array.length rules) ~view
    ~position ~top ~oracle bounds
  |> Result.map (fun (position, questions, boundaries) ->
         let acl = Config.Acl.insert_at target position rule in
         { acl; position; questions; boundaries })
  |> Result.map_error (fun qs -> Inconsistent_intent qs)

let scripted answers : oracle = Disambig_common.scripted answers

(** The ideal user: answers according to a target packet policy. *)
let intent_driven (desired : Config.Packet.t -> Config.Action.t) =
  fun q ->
    if Config.Action.equal (desired q.packet) q.if_new_first then Prefer_new
    else Prefer_old
