(* The machinery shared by the three insertion disambiguators
   (route-maps, ACLs, prefix lists). Each instance keeps its own
   domain-specific question type; everything below works through a
   [view] that renders a question to the common telemetry shape, so the
   placement loop, the question/probe event schema and the binary
   search are defined exactly once. *)

type answer = Prefer_new | Prefer_old

let answer_to_string = function Prefer_new -> "new" | Prefer_old -> "old"

type mode = Binary_search | Top_bottom | Linear

let mode_to_string = function
  | Binary_search -> "binary_search"
  | Top_bottom -> "top_bottom"
  | Linear -> "linear"

let mode_of_string = function
  | "binary_search" -> Ok Binary_search
  | "top_bottom" -> Ok Top_bottom
  | "linear" -> Ok Linear
  | m -> Error (Printf.sprintf "unknown disambiguation mode %S" m)

(* One policy family as the flight recorder and the metrics see it: the
   subsystem tag of its events and its three counters, all named
   [<prefix>.*]. *)
type family = {
  subsystem : string;
  questions : Obs.Counter.t;
  boundaries : Obs.Counter.t;
  probes : Obs.Counter.t;
}

let family ~subsystem ~prefix =
  let counter name = Obs.Counter.make (prefix ^ name) in
  {
    subsystem;
    (* differential questions shown to the user *)
    questions = counter ".questions";
    (* differing insertion boundaries (overlaps) found *)
    boundaries = counter ".boundaries";
    (* binary-search iterations (search depth) *)
    probes = counter ".binary_search.probes";
  }

(* What every question looks like to the flight recorder: where the
   boundary is, the differential example, and the two behaviours the
   user chooses between — already rendered, because only the instance
   knows how to print a route / packet / prefix. *)
type view = {
  position : int;
  boundary_seq : int;
  example : string;
  if_new_first : string;
  if_old_first : string;
}

(* A question-asking loop: accumulates questions in order, counts them,
   consults the oracle and emits one "question" event per exchange.
   Returns [(asked, ask)]; [asked ()] yields the questions asked so
   far, oldest first. *)
let asker ~subsystem ~counter ~(view : 'q -> view) ~(oracle : 'q -> answer) =
  let asked = ref [] in
  let ask q =
    asked := q :: !asked;
    Obs.Counter.incr counter;
    let a = oracle q in
    Telemetry.emit ~kind:"question" (fun () ->
        let v = view q in
        [
          ("subsystem", Json.String subsystem);
          ("index", Json.Int (List.length !asked - 1));
          ("position", Json.Int v.position);
          ("boundary_seq", Json.Int v.boundary_seq);
          ("example", Json.String v.example);
          ("if_new_first", Json.String v.if_new_first);
          ("if_old_first", Json.String v.if_old_first);
          ("answer", Json.String (answer_to_string a));
        ]);
    a
  in
  ((fun () -> List.rev !asked), ask)

(* The paper's Section 4 search: find the leftmost boundary answered
   Prefer_new. Under the well-formedness conditions answers are
   monotone (a run of Prefer_old then a run of Prefer_new), so the
   invariant is: boundaries < lo answered Prefer_old, >= hi Prefer_new.
   Returns the first Prefer_new index, or [Array.length arr] when every
   boundary prefers the old behaviour. One "probe" event and one probe
   counter tick per iteration. *)
let binary_search ~subsystem ~probes ~(ask : 'q -> answer) (arr : 'q array) =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Obs.Counter.incr probes;
    Telemetry.emit ~kind:"probe" (fun () ->
        [
          ("subsystem", Json.String subsystem);
          ("lo", Json.Int !lo);
          ("hi", Json.Int !hi);
          ("mid", Json.Int mid);
        ]);
    match ask arr.(mid) with
    | Prefer_new -> hi := mid
    | Prefer_old -> lo := mid + 1
  done;
  !hi

(* Consistency check for Linear mode: once a boundary is answered
   Prefer_new, every later boundary must be too. *)
let monotone answers =
  let rec go seen_new = function
    | [] -> true
    | (_, Prefer_new) :: rest -> go true rest
    | (_, Prefer_old) :: rest -> (not seen_new) && go false rest
  in
  go false answers

(* The placement implied by a monotone answer list: the first boundary
   the user wants the new stanza to win, or [default] (append at the
   bottom) when there is none. *)
let first_new_position ~default ~position answers =
  match List.find_opt (fun (_, a) -> a = Prefer_new) answers with
  | Some (q, _) -> position q
  | None -> default

(* One boundary sweep of a family: the "find_boundaries" span around
   it, and with [sweep] the boundaries counter too. Counting a boundary
   does not decode its witness. *)
let find f = Obs.with_span "find_boundaries" f

let sweep (fam : family) f =
  find @@ fun () ->
  let bs = f () in
  Obs.Counter.incr ~by:(List.length bs) fam.boundaries;
  bs

let decoded ~position qs = List.map (fun q -> (position q, Lazy.from_val q)) qs

(* The paper's Section 4 loop, for every family. Each boundary is a
   position and a question whose witness is decoded when forced, from
   a sweep, or already decoded ([?precomputed]); either way the
   counter ticks, so telemetry matches a sequential run. Only the
   questions asked are forced: the search and the placement read
   positions. No boundary means every placement behaves the same:
   append at the bottom without a question. *)
let place (fam : family) ~mode ~width ~view ~position ~top ~oracle bs =
  Obs.Counter.incr ~by:(List.length bs) fam.boundaries;
  let asked, ask =
    asker ~subsystem:fam.subsystem ~counter:fam.questions ~view ~oracle
  in
  let placed position boundaries = Ok (position, asked (), boundaries) in
  match (mode, bs) with
  | _, [] -> placed width 0
  | Top_bottom, (_, b) :: _ -> (
      (* The paper prototype's restricted mode: one question, top or
         bottom. The two extremes differ exactly when some boundary
         does, and the first boundary's witness is the input the
         two-extremes comparison finds first. *)
      match ask (top (Lazy.force b)) with
      | Prefer_new -> placed 0 1
      | Prefer_old -> placed width 1)
  | Binary_search, _ ->
      let arr = Array.of_list bs in
      let k = Array.length arr in
      let hi =
        binary_search ~subsystem:fam.subsystem ~probes:fam.probes
          ~ask:(fun (_, q) -> ask (Lazy.force q))
          arr
      in
      placed (if hi = k then width else fst arr.(hi)) k
  | Linear, _ ->
      let answers =
        List.map
          (fun (_, q) ->
            let q = Lazy.force q in
            (q, ask q))
          bs
      in
      if monotone answers then
        placed
          (first_new_position ~default:width ~position answers)
          (List.length bs)
      else Error (asked ())

(* Shared answer cache for batch runs: when several intents in a batch
   surface the *same* placement question against the same policy, the
   user's first answer is reused instead of asking again.

   A question matches an earlier one when it has the same coordinates
   (policy name, position, boundary_seq) and the same rendered content:
   two intents can produce byte-identical question text against
   different policies or at different positions, and those are
   different questions — merging them on text alone would silently
   answer one intent's question with another's. The table is keyed on
   the coordinates alone and each stored view is lazy, so a question is
   rendered only when an earlier one shares its coordinates. *)
module Answer_cache = struct
  type coords = { policy : string; position : int; boundary_seq : int }

  type t = {
    tbl : (coords, (view Lazy.t * answer) list) Hashtbl.t;
    mutable hits : int;
  }

  let create () = { tbl = Hashtbl.create 16; hits = 0 }

  let same_content (a : view) (b : view) =
    a.example = b.example
    && a.if_new_first = b.if_new_first
    && a.if_old_first = b.if_old_first

  let find_at t ~policy ~position ~boundary_seq view =
    match Hashtbl.find_opt t.tbl { policy; position; boundary_seq } with
    | None -> None
    | Some stored -> (
        let v = Lazy.force view in
        match
          List.find_opt (fun (v', _) -> same_content (Lazy.force v') v) stored
        with
        | Some (_, a) ->
            t.hits <- t.hits + 1;
            Some a
        | None -> None)

  (* The newest entry comes first, so re-adding a question replaces
     its answer. *)
  let add_at t ~policy ~position ~boundary_seq view a =
    let k = { policy; position; boundary_seq } in
    let stored = Option.value ~default:[] (Hashtbl.find_opt t.tbl k) in
    Hashtbl.replace t.tbl k ((view, a) :: stored)

  let find t ~policy (v : view) =
    find_at t ~policy ~position:v.position ~boundary_seq:v.boundary_seq
      (Lazy.from_val v)

  let add t ~policy (v : view) a =
    add_at t ~policy ~position:v.position ~boundary_seq:v.boundary_seq
      (Lazy.from_val v) a

  let hits t = t.hits

  (* Wrap an oracle so repeated questions (same policy, same
     coordinates, same rendered content) are served from the cache. *)
  let cached t ~policy ~(view : 'q -> view) (oracle : 'q -> answer) q =
    let v = view q in
    match find t ~policy v with
    | Some a -> a
    | None ->
        let a = oracle q in
        add t ~policy v a;
        a
end

(* Answers drawn from a fixed list (scripted tests/CLIs and replay);
   raises [Failure] when exhausted. *)
let scripted answers =
  let remaining = ref answers in
  fun _ ->
    match !remaining with
    | [] -> failwith "scripted oracle exhausted"
    | a :: rest ->
        remaining := rest;
        a
