(** Behavioural diff of two route-maps — the analogue of Batfish's
    [compareRoutePolicies].

    The two maps may live in different databases (e.g. two candidate
    insertions of a synthesized stanza, each carrying freshly named
    ancillary lists). Differences are reported as concrete input routes
    together with both outcomes. *)

open Symbdd
module Ctx = Symbolic.Route_ctx

type difference = {
  route : Bgp.Route.t;
  result_a : Config.Semantics.route_result;
  result_b : Config.Semantics.route_result;
  stanza_a : int option; (* seq of the handling stanza, None = implicit *)
  stanza_b : int option;
}

let context ~db_a ~db_b rm_a rm_b =
  Ctx.create [ (db_a, [ rm_a ]); (db_b, [ rm_b ]) ]

(* Apply a canonical community pipeline to a concrete community set. *)
let apply_comm_op db op cs =
  match op with
  | Config.Transform.Comm_id -> List.sort_uniq Bgp.Community.compare cs
  | Config.Transform.Comm_const s -> s
  | Config.Transform.Comm_update { delete; add } ->
      let survives c =
        not
          (List.exists
             (fun name ->
               match Config.Database.community_list db name with
               | Some cl -> Config.Community_list.matches cl [ c ]
               | None -> false)
             delete)
      in
      List.sort_uniq Bgp.Community.compare (add @ List.filter survives cs)

(* Community sets (as subsets of the universe) on which the two
   pipelines produce different outputs: candidates are the empty set,
   every singleton, and the full universe. *)
let separating_sets ctx ~db_a ~db_b op_a op_b =
  let universe = Array.to_list ctx.Ctx.comm_universe in
  let candidates =
    ([] :: List.map (fun u -> [ u ]) universe) @ [ universe ]
  in
  List.filter
    (fun s -> apply_comm_op db_a op_a s <> apply_comm_op db_b op_b s)
    candidates

(* Force a route whose community set is exactly [s]. *)
let route_with_comms ctx region s =
  let cube =
    Bdd.conj_list
      (List.mapi
         (fun i u ->
           if List.exists (Bgp.Community.equal u) s then
             Bdd.var (Ctx.atom_base + i)
           else Bdd.nvar (Ctx.atom_base + i))
         (Array.to_list ctx.Ctx.comm_universe))
  in
  Ctx.to_route ctx (Bdd.conj region cube)

(* Pick an example route from a region, preferring one that exposes
   community-transform differences when the two pipelines differ. *)
let sample_route ctx ~db_a ~db_b op_a op_b region =
  let targeted =
    if Config.Transform.comm_op_equal db_a db_b op_a op_b then None
    else
      List.find_map
        (fun s -> route_with_comms ctx region s)
        (separating_sets ctx ~db_a ~db_b op_a op_b)
  in
  match targeted with Some r -> Some r | None -> Ctx.to_route ctx region

(** All behavioural differences, one example per differing pair of
    execution cells, capped at [limit]. Reaching the cap exits the cell
    product immediately, so [first_difference] stops at the first
    differing pair instead of scanning the remaining O(n²) cells. *)
let compare ?(limit = max_int) ~db_a ~db_b (rm_a : Config.Route_map.t)
    (rm_b : Config.Route_map.t) =
  Obs.Counter.incr Metrics.compare_route_policies_calls;
  let ctx = context ~db_a ~db_b rm_a rm_b in
  let cells_a = Ctx.exec ctx db_a rm_a in
  let cells_b = Ctx.exec ctx db_b rm_b in
  let differences = ref [] in
  let count = ref 0 in
  let emit route (ra, rb) sa sb =
    if not (Config.Semantics.route_result_equal ra rb) then begin
      differences :=
        { route; result_a = ra; result_b = rb; stanza_a = sa; stanza_b = sb }
        :: !differences;
      incr count
    end
  in
  (try
     List.iter
       (fun (ca : Ctx.cell) ->
         List.iter
           (fun (cb : Ctx.cell) ->
             if !count >= limit then raise_notrace Exit;
             let region = Bdd.conj ca.guard cb.guard in
             let maybe_differs =
               match (ca.action, cb.action) with
               | Config.Action.Deny, Config.Action.Deny -> false
               | Config.Action.Permit, Config.Action.Permit ->
                   not
                     (Config.Transform.equal ~db1:db_a ~db2:db_b
                        (Config.Transform.of_sets db_a ca.sets)
                        (Config.Transform.of_sets db_b cb.sets))
               | _ -> true
             in
             if maybe_differs then
               let op_a = (Config.Transform.of_sets db_a ca.sets).communities in
               let op_b = (Config.Transform.of_sets db_b cb.sets).communities in
               match sample_route ctx ~db_a ~db_b op_a op_b region with
               | None -> ()
               | Some route ->
                   emit route
                     ( Config.Semantics.eval_route_map db_a rm_a route,
                       Config.Semantics.eval_route_map db_b rm_b route )
                     ca.stanza_seq cb.stanza_seq)
           cells_b)
       cells_a
   with Exit -> ());
  List.rev !differences

(** First behavioural difference, if any. *)
let first_difference ~db_a ~db_b rm_a rm_b =
  match compare ~limit:1 ~db_a ~db_b rm_a rm_b with
  | [] -> None
  | d :: _ -> Some d

let equal_behavior ~db_a ~db_b rm_a rm_b =
  first_difference ~db_a ~db_b rm_a rm_b = None

(* ------------------------------------------------------------------ *)
(* Boundary sweeps: the route-map instance of {!First_match}.

   The partition is projected onto the candidates' match regions
   ([Route_ctx.exec ~candidates]), so stanzas they cannot meet are never
   compiled and their cells are empty; every other region is the same
   canonical BDD. The symbolic scope is the target plus every
   candidate, so the community/as-path universe, and with it every
   witness, is the same however the work is sharded. The pair
   filtering and sampling below mirror [compare] exactly, so witnesses
   are byte-identical to comparing the two placements; the two
   outcomes come from the two stanzas that handle the witness, not
   from evaluating either map. *)

type partition = {
  db : Config.Database.t;
  ctx : Ctx.t;
  cells : Ctx.cell array;
  cands : Config.Route_map.stanza array;
  matches : Bdd.t array; (* each candidate's match region *)
  transforms : Config.Transform.t array; (* each candidate's set clauses *)
  within_valid : bool array;
      (* each candidate's match lies inside [Ctx.valid] *)
}

(* Could a route handled by stanza action/sets [a] be treated
   differently under [b]? Deny/deny never differs; permit/permit only
   when the transforms differ. *)
let may_differ db (a_action, t_a) (b_action, t_b) =
  match (a_action, b_action) with
  | Config.Action.Deny, Config.Action.Deny -> false
  | Config.Action.Permit, Config.Action.Permit ->
      not (Config.Transform.equal ~db1:db ~db2:db t_a t_b)
  | _ -> true

(* Is every route handled by [a] treated differently under [b]? A
   permit against a deny, or two permits that set one scalar attribute
   to different constants. One side setting an attribute the other
   leaves alone is not enough: the route may already carry that
   value. *)
let differ_everywhere (a_action, (t_a : Config.Transform.t))
    (b_action, (t_b : Config.Transform.t)) =
  let both_set f =
    match (f t_a, f t_b) with Some x, Some y -> x <> y | _ -> false
  in
  match (a_action, b_action) with
  | Config.Action.Deny, Config.Action.Deny -> false
  | Config.Action.Permit, Config.Action.Permit ->
      both_set (fun (t : Config.Transform.t) -> t.metric)
      || both_set (fun t -> t.local_pref)
      || both_set (fun t -> t.tag)
      || both_set (fun t -> t.weight)
      || both_set (fun t -> t.next_hop)
      || both_set (fun t -> t.origin)
  | _ -> true

(* Candidate [k]'s region at a cell: the cell's guard under [k]'s
   match, the same canonical BDD as the full partition's guard under
   it. A single candidate's partition starts its fall-through at its
   match, so there the guard already is the region. *)
let region p k (c : Ctx.cell) =
  if Array.length p.cands = 1 then c.guard else Bdd.conj c.guard p.matches.(k)

(* Position [i]'s witness for candidate [k], sampled exactly as
   [compare] would sample the region. It falls through stanzas
   0..i-1 and matches both the candidate and s_i, so the candidate
   handles it when inserted at i and s_i when inserted at i+1:
   applying those two stanzas' actions and sets gives both maps'
   outcomes, at a cost independent of the width. [None] when no route
   of the region tells the two apart. *)
let decode p k i =
  Obs.Counter.incr Metrics.witnesses_decoded;
  let db = p.db and stanza = p.cands.(k) and (c : Ctx.cell) = p.cells.(i) in
  match
    sample_route p.ctx ~db_a:db ~db_b:db p.transforms.(k).communities
      (Config.Transform.of_sets db c.sets).communities (region p k c)
  with
  | None -> None
  | Some route ->
      let result_a =
        Config.Semantics.apply_action db stanza.action stanza.sets route
      in
      let result_b = Config.Semantics.apply_action db c.action c.sets route in
      if Config.Semantics.route_result_equal result_a result_b then None
      else
        (* Both maps resequence, putting S* and s_i at seq (i+1)*10 in
           their respective maps. *)
        let seq = Some ((i + 1) * 10) in
        Some { route; result_a; result_b; stanza_a = seq; stanza_b = seq }

let witness p k i =
  match decode p k i with
  | Some d -> d
  | None -> invalid_arg "Compare_route_policies.witness: not a boundary"

(* Position [i] is a boundary exactly when [decode] finds a witness.
   Without as-path lists in scope every route of [region ∧ valid] is
   realizable, and where the two stanzas treat every route differently
   any of them is a witness: the region's non-emptiness decides it, and
   the witness waits for a question. Elsewhere only a witness can tell
   (say [set metric 5] against a stanza that leaves metric alone, on a
   region that pins metric to 5), so it is decoded now. *)
let cell_boundaries p k (start, len) =
  let db = p.db and stanza = p.cands.(k) in
  let t_new = p.transforms.(k) in
  let atoms_free = Array.length p.ctx.Ctx.as_path_lists = 0 in
  let nonempty c =
    let r = region p k c in
    if p.within_valid.(k) then not (Bdd.is_zero r)
    else Bdd.is_sat (Bdd.conj r (Ctx.valid p.ctx))
  in
  List.filter_map
    (fun i ->
      let (c : Ctx.cell) = p.cells.(i) in
      (* A cell the candidates cannot reach has no witness. *)
      if Bdd.is_zero c.guard then None
      else
        let t_old = Config.Transform.of_sets db c.sets in
        let a = (stanza.action, t_new) and b = (c.action, t_old) in
        if not (may_differ db a b) then None
        else if atoms_free && differ_everywhere a b then
          if nonempty c then Some (i, None) else None
        else Option.map (fun d -> (i, Some d)) (decode p k i))
    (List.init len (fun j -> start + j))

let classify p i j =
  let db = p.db and si = p.cands.(i) and sj = p.cands.(j) in
  let region = Bdd.conj p.matches.(i) p.matches.(j) in
  if not (Ctx.is_sat p.ctx region) then First_match.Disjoint
  else
    let ti = p.transforms.(i) and tj = p.transforms.(j) in
    if not (may_differ db (si.action, ti) (sj.action, tj)) then
      First_match.Overlap
    else
      match
        sample_route p.ctx ~db_a:db ~db_b:db ti.communities tj.communities
          region
      with
      | None -> First_match.Overlap
      | Some route ->
          (* The witness matches both candidates. *)
          let result_of (s : Config.Route_map.stanza) =
            Config.Semantics.apply_action db s.action s.sets route
          in
          let result_a = result_of si and result_b = result_of sj in
          if Config.Semantics.route_result_equal result_a result_b then
            First_match.Overlap
          else
            First_match.Conflict
              {
                route;
                result_a;
                result_b;
                stanza_a = Some si.seq;
                stanza_b = Some sj.seq;
              }

module Sweep = First_match.Sweep (struct
  type target = Config.Database.t * Config.Route_map.t
  type rule = Config.Route_map.stanza
  type nonrec difference = difference
  type nonrec partition = partition

  let width (_, (t : Config.Route_map.t)) = List.length t.stanzas

  let compile (db, (target : Config.Route_map.t)) cands =
    let scope = [ target; { target with stanzas = Array.to_list cands } ] in
    let ctx = Ctx.create [ (db, scope) ] in
    let cells = Ctx.exec ~candidates:(Array.to_list cands) ctx db target in
    let matches = Array.map (Ctx.of_stanza ctx db) cands in
    {
      db;
      ctx;
      cells = Array.of_list cells;
      cands;
      matches;
      transforms =
        Array.map
          (fun (s : Config.Route_map.stanza) -> Config.Transform.of_sets db s.sets)
          cands;
      within_valid = Array.map (fun m -> Bdd.implies m (Ctx.valid ctx)) matches;
    }

  let fork p = { p with ctx = Ctx.fork p.ctx }
  let cell_boundaries = cell_boundaries
  let witness = witness
  let classify = classify
end)

type batch_sweep = Sweep.batch_sweep = {
  per_candidate : (int * difference) list array;
  overlaps : (int * int) list;
  conflicts : (int * int * difference) list;
}

let adjacent_insertions ?pool ~db ~target stanza =
  Sweep.adjacent_insertions ?pool (db, target) stanza

let lazy_insertions ?pool ~db ~target stanza =
  Sweep.lazy_insertions ?pool (db, target) stanza

let batch_insertions ?pool ~db ~target stanzas =
  Sweep.batch_insertions ?pool (db, target) stanzas

let pp_difference fmt d =
  Format.fprintf fmt
    "@[<v>Input route:@ %a@ @ OPTION A:@ %a@ @ OPTION B:@ %a@]" Bgp.Route.pp
    d.route Config.Semantics.pp_route_result d.result_a
    Config.Semantics.pp_route_result d.result_b
