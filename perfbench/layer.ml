(* Layer spans recorded from outside the program, around each call the
   benchmark makes into a layer's public function. A span's self time is
   its duration minus the part its child spans cover, so nested calls
   (the oracle inside a placement) are charged to the innermost layer.
   One [acc] belongs to one unit of work (a router, a session, a batch)
   and is only touched by the domain running that unit; accumulators are
   merged after the fact. *)

type t =
  | Llm
  | Config
  | Verify
  | Naming
  | Sweep
  | Batch
  | Disambig
  | Oracle
  | Bdd

let all = [ Llm; Config; Verify; Naming; Sweep; Batch; Disambig; Oracle; Bdd ]

let index = function
  | Llm -> 0
  | Config -> 1
  | Verify -> 2
  | Naming -> 3
  | Sweep -> 4
  | Batch -> 5
  | Disambig -> 6
  | Oracle -> 7
  | Bdd -> 8

let name = function
  | Llm -> "llm"
  | Config -> "config"
  | Verify -> "engine.verify"
  | Naming -> "core.naming"
  | Sweep -> "engine.sweep"
  | Batch -> "engine.batch"
  | Disambig -> "core.disambig"
  | Oracle -> "oracle"
  | Bdd -> "bdd"

let now = Unix.gettimeofday

(* One boundary sweep: target width, boundaries found, wall seconds. *)
type sweep = { width : int; boundaries : int; seconds : float }

type acc = {
  self : float array; (* seconds, by [index] *)
  mutable child : float; (* covered time of the innermost open span *)
  mutable sweeps : sweep list;
}

let create () = { self = Array.make (List.length all) 0.; child = 0.; sweeps = [] }

let span acc layer f =
  let saved = acc.child in
  acc.child <- 0.;
  let t0 = now () in
  let close () =
    let dt = now () -. t0 in
    let i = index layer in
    acc.self.(i) <- acc.self.(i) +. dt -. acc.child;
    acc.child <- saved +. dt;
    dt
  in
  match f () with
  | r ->
      ignore (close ());
      r
  | exception e ->
      ignore (close ());
      raise e

(* A sweep span that also records its shape. *)
let sweep acc ~width f =
  let t0 = now () in
  let bs = span acc Sweep f in
  acc.sweeps <-
    { width; boundaries = List.length bs; seconds = now () -. t0 } :: acc.sweeps;
  bs

let self acc layer = acc.self.(index layer)

let merge accs =
  let out = create () in
  List.iter
    (fun a ->
      Array.iteri (fun i v -> out.self.(i) <- out.self.(i) +. v) a.self;
      out.sweeps <- List.rev_append a.sweeps out.sweeps)
    accs;
  out
