(** Stanza-overlap analysis for route-maps.

    Per the paper, two stanzas overlap when at least one route
    advertisement matches both; actions are ignored in the headline
    count (a stanza may chain into other policies), making it an upper
    bound. Conflicting pairs (differing actions) are still reported for
    the campus-network breakdown. *)

open Symbdd
module Ctx = Symbolic.Route_ctx

type pair = {
  stanza_a : Config.Route_map.stanza;
  stanza_b : Config.Route_map.stanza;
  conflicting : bool;
}

type stats = {
  name : string;
  stanzas : int;
  overlap_pairs : int;
  conflict_pairs : int;
}

let pairs db (rm : Config.Route_map.t) =
  let ctx = Ctx.create [ (db, [ rm ]) ] in
  let feas = Ctx.valid ctx in
  let stanzas =
    List.map
      (fun s -> (s, Bdd.conj feas (Ctx.of_stanza ctx db s)))
      rm.Config.Route_map.stanzas
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (s1, b1) :: rest ->
        let acc =
          List.fold_left
            (fun acc (s2, b2) ->
              (* Intersection must contain a real route, so as-path atom
                 feasibility is honoured via the context. *)
              if Ctx.is_sat ctx (Bdd.conj b1 b2) then
                {
                  stanza_a = s1;
                  stanza_b = s2;
                  conflicting = not (Config.Action.equal s1.action s2.action);
                }
                :: acc
              else acc)
            acc rest
        in
        go acc rest
  in
  go [] stanzas

let analyze db (rm : Config.Route_map.t) =
  let ps = pairs db rm in
  {
    name = rm.Config.Route_map.name;
    stanzas = List.length rm.Config.Route_map.stanzas;
    overlap_pairs = List.length ps;
    conflict_pairs = List.length (List.filter (fun p -> p.conflicting) ps);
  }

(** A route witnessing the overlap of two stanzas. *)
let witness db rm (s1 : Config.Route_map.stanza) (s2 : Config.Route_map.stanza)
    =
  let ctx = Ctx.create [ (db, [ rm ]) ] in
  Ctx.to_route ctx
    (Bdd.conj (Ctx.of_stanza ctx db s1) (Ctx.of_stanza ctx db s2))
