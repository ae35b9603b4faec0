(** ACL search — the analogue of Batfish's [searchFilters]: find a
    packet within a header-space constraint for which the ACL takes a
    given action, or prove there is none. *)

open Symbdd

type query = {
  within : Bdd.t; (* header-space constraint; [Bdd.one] = everything *)
  action : Config.Action.t; (* final ACL action sought *)
}

let any_query action = { within = Bdd.one; action }

(** Header space on which the ACL's final action is [action]. *)
let action_space (acl : Config.Acl.t) action =
  Bdd.disj_list
    (List.filter_map
       (fun (c : Symbolic.Packet_space.cell) ->
         if Config.Action.equal c.action action then Some c.guard else None)
       (Symbolic.Packet_space.exec acl))

(** A packet satisfying the query, if any. *)
let search (acl : Config.Acl.t) (q : query) =
  Obs.Counter.incr Metrics.search_filters_calls;
  Symbolic.Packet_space.to_packet (Bdd.conj q.within (action_space acl q.action))

(** Are the two ACLs behaviourally identical? Returns a differing packet
    otherwise. *)
let differ (a : Config.Acl.t) (b : Config.Acl.t) =
  Obs.Counter.incr Metrics.search_filters_calls;
  let pa = action_space a Config.Action.Permit in
  let pb = action_space b Config.Action.Permit in
  Symbolic.Packet_space.to_packet (Bdd.xor pa pb)

type verdict =
  | Verified
  | Wrong_action of { expected : Config.Action.t }
  | Match_too_broad of Config.Packet.t (* rule matches, spec does not *)
  | Match_too_narrow of Config.Packet.t (* spec matches, rule does not *)

(** Verify a single synthesized ACL rule against a header-space spec
    given as (match-space BDD, expected action): the rule's match
    condition must equal the spec space and the action must agree. *)
let verify_rule (rule : Config.Acl.rule) ~spec_space ~action =
  Obs.Counter.incr Metrics.search_filters_calls;
  if not (Config.Action.equal rule.action action) then
    Wrong_action { expected = action }
  else
    let m = Symbolic.Packet_space.of_rule rule in
    match Symbolic.Packet_space.to_packet (Bdd.diff m spec_space) with
    | Some p -> Match_too_broad p
    | None -> (
        match Symbolic.Packet_space.to_packet (Bdd.diff spec_space m) with
        | Some p -> Match_too_narrow p
        | None -> Verified)
