(** Behavioural diff of two ACLs, used to generate differential packet
    examples for ACL insertion disambiguation. *)

open Symbdd
module Ps = Symbolic.Packet_space

type difference = {
  packet : Config.Packet.t;
  action_a : Config.Action.t;
  action_b : Config.Action.t;
  rule_a : int option; (* handling rule seq under A; None = implicit deny *)
  rule_b : int option;
}

(** All behavioural differences, one example packet per differing pair
    of execution cells, capped at [limit]. Reaching the cap exits the
    cell product immediately, so [first_difference] stops at the first
    differing pair instead of scanning the remaining O(n²) cells. *)
let compare ?(limit = max_int) (a : Config.Acl.t) (b : Config.Acl.t) =
  Obs.Counter.incr Metrics.compare_acls_calls;
  let cells_a = Ps.exec a and cells_b = Ps.exec b in
  let out = ref [] in
  let count = ref 0 in
  (try
     List.iter
       (fun (ca : Ps.cell) ->
         List.iter
           (fun (cb : Ps.cell) ->
             if !count >= limit then raise_notrace Exit;
             if not (Config.Action.equal ca.action cb.action) then
               match Ps.to_packet (Bdd.conj ca.guard cb.guard) with
               | None -> ()
               | Some packet ->
                   out :=
                     {
                       packet;
                       action_a = ca.action;
                       action_b = cb.action;
                       rule_a = ca.rule_seq;
                       rule_b = cb.rule_seq;
                     }
                     :: !out;
                   incr count)
           cells_b)
       cells_a
   with Exit -> ());
  List.rev !out

let first_difference a b =
  match compare ~limit:1 a b with [] -> None | d :: _ -> Some d

let equal_behavior a b = first_difference a b = None

(* ------------------------------------------------------------------ *)
(* Boundary sweeps: the ACL instance of {!First_match}; see DESIGN.md
   §11. ACLs carry no transforms, so position [i] is a boundary exactly
   when the new rule's action differs from rule [i]'s and the region
   [cell_i.guard ∧ match(new)] is non-empty, and no witness is needed
   to decide it: [Packet_space.to_packet] finds a packet in every
   non-empty region. The partition is projected onto the candidates'
   match regions ([Packet_space.exec ~candidates]): a rule apart from
   every candidate is never compiled and its cell is empty, and every
   other region is the same canonical BDD as in the full partition.
   The packet space has a fixed variable set, so witnesses are
   trivially independent of how the work is sharded. *)

type partition = {
  cells : Ps.cell array Lazy.t; (* executed at the first read *)
  cands : Config.Acl.rule array;
  matches : Bdd.t array; (* each candidate's match region *)
}

(* Candidate [k]'s region at a cell. A single candidate's partition
   starts its fall-through at its match, so there the guard already is
   the region. *)
let region p k (c : Ps.cell) =
  if Array.length p.cands = 1 then c.guard else Bdd.conj c.guard p.matches.(k)

(* The last cell is the implicit deny, not a position. *)
let cell_boundaries p k =
  let rule = p.cands.(k) and cells = Lazy.force p.cells in
  List.filter_map
    (fun i ->
      let (c : Ps.cell) = cells.(i) in
      if Config.Action.equal rule.Config.Acl.action c.action
         || Bdd.is_zero (region p k c)
      then None
      else Some (i, None))
    (List.init (Array.length cells - 1) Fun.id)

let witness p k i =
  Obs.Counter.incr Metrics.witnesses_decoded;
  let rule = p.cands.(k) and (c : Ps.cell) = (Lazy.force p.cells).(i) in
  match Ps.to_packet (region p k c) with
  | None -> invalid_arg "Compare_acls.witness: not a boundary"
  | Some packet ->
      (* Both ACLs resequence, putting the new rule and rule i at seq
         (i+1)*10 in their respective lists. *)
      let seq = Some ((i + 1) * 10) in
      {
        packet;
        action_a = rule.action;
        action_b = c.action;
        rule_a = seq;
        rule_b = seq;
      }

let classify p i j =
  let ri = p.cands.(i) and rj = p.cands.(j) in
  match Ps.to_packet (Bdd.conj p.matches.(i) p.matches.(j)) with
  | None -> First_match.Disjoint
  | Some packet ->
      if Config.Action.equal ri.Config.Acl.action rj.Config.Acl.action then
        First_match.Overlap
      else
        First_match.Conflict
          {
            packet;
            action_a = ri.action;
            action_b = rj.action;
            rule_a = Some ri.seq;
            rule_b = Some rj.seq;
          }

module Sweep = First_match.Sweep (struct
  type target = Config.Acl.t
  type rule = Config.Acl.rule
  type nonrec difference = difference
  type nonrec partition = partition

  let width (t : Config.Acl.t) = List.length t.rules

  let compile target cands =
    {
      cells =
        lazy (Array.of_list (Ps.exec ~candidates:(Array.to_list cands) target));
      cands;
      matches = Array.map Ps.of_rule cands;
    }

  let cell_boundaries = cell_boundaries
  let witness = witness
  let classify = classify
end)

type batch_sweep = Sweep.batch_sweep = {
  per_candidate : (int * difference) list array;
  overlaps : (int * int) list;
  conflicts : (int * int * difference) list;
}

let adjacent_insertions ~target rule = Sweep.adjacent_insertions target rule
let lazy_insertions ~target rule = Sweep.lazy_insertions target rule
let conflict_graph ~target rules = Sweep.conflict_graph target rules

let batch_insertions ?pool:_ ~target rules = Sweep.batch_insertions target rules

let pp_difference fmt d =
  Format.fprintf fmt
    "@[<v>Input packet: %a@ OPTION A: %a (rule %s)@ OPTION B: %a (rule %s)@]"
    Config.Packet.pp d.packet Config.Action.pp d.action_a
    (match d.rule_a with Some s -> string_of_int s | None -> "implicit deny")
    Config.Action.pp d.action_b
    (match d.rule_b with Some s -> string_of_int s | None -> "implicit deny")
