(** Concrete first-match semantics of route-maps and ACLs.

    These evaluators define the reference behaviour that the symbolic
    engine must agree with; the agreement is checked by property tests. *)

type route_result =
  | Accept of Bgp.Route.t (* possibly transformed by set clauses *)
  | Reject

(* A match clause referring to an undefined list never matches — the
   Cisco behaviour for standard lists is vendor-dependent; we pick the
   conservative reading and surface undefined references separately via
   {!Database.undefined_references}. *)
let match_clause db (r : Bgp.Route.t) = function
  | Route_map.Match_prefix_list names ->
      List.exists
        (fun n ->
          match Database.prefix_list db n with
          | Some pl -> Prefix_list.permits pl r.prefix
          | None -> false)
        names
  | Route_map.Match_community names ->
      List.exists
        (fun n ->
          match Database.community_list db n with
          | Some cl -> Community_list.matches cl r.communities
          | None -> false)
        names
  | Route_map.Match_as_path names ->
      List.exists
        (fun n ->
          match Database.as_path_list db n with
          | Some al -> As_path_list.matches al r.as_path
          | None -> false)
        names
  | Route_map.Match_local_pref n -> r.local_pref = n
  | Route_map.Match_metric n -> r.metric = n
  | Route_map.Match_tag tags -> List.mem r.tag tags

let stanza_matches db (s : Route_map.stanza) r =
  List.for_all (match_clause db r) s.matches

let apply_set db (r : Bgp.Route.t) = function
  | Route_map.Set_metric n -> { r with metric = n }
  | Route_map.Set_local_pref n -> { r with local_pref = n }
  | Route_map.Set_community { communities; additive } ->
      if additive then Bgp.Route.add_communities r communities
      else Bgp.Route.with_communities r communities
  | Route_map.Set_comm_list_delete name ->
      Bgp.Route.delete_communities r (fun c ->
          match Database.community_list db name with
          | Some cl -> Community_list.matches cl [ c ]
          | None -> false)
  | Route_map.Set_as_path_prepend asns -> Bgp.Route.prepend_as_path r asns
  | Route_map.Set_next_hop ip -> { r with next_hop = ip }
  | Route_map.Set_tag n -> { r with tag = n }
  | Route_map.Set_weight n -> { r with weight = n }
  | Route_map.Set_origin o -> { r with origin = o }

let apply_sets db r sets = List.fold_left (apply_set db) r sets

(** What a stanza with this action and these set clauses does to a
    route it handles. *)
let apply_action db action sets r =
  match action with
  | Action.Permit -> Accept (apply_sets db r sets)
  | Action.Deny -> Reject

(** The stanza handling the route (the paper's function [M]), if any. *)
let matching_stanza db (rm : Route_map.t) r =
  List.find_opt (fun s -> stanza_matches db s r) rm.Route_map.stanzas

(** First-match evaluation with Cisco's implicit trailing deny. *)
let eval_route_map db (rm : Route_map.t) r =
  match matching_stanza db rm r with
  | Some s -> apply_action db s.action s.sets r
  | None -> Reject

(** Evaluate a chain of route-maps applied in order; a route must be
    accepted by each to survive, and transformations accumulate. *)
let eval_chain db rms r =
  List.fold_left
    (fun acc rm ->
      match acc with
      | Reject -> Reject
      | Accept r -> eval_route_map db rm r)
    (Accept r) rms

let eval_acl (acl : Acl.t) p =
  match Acl.eval acl p with
  | Some a -> a
  | None -> Action.Deny (* implicit deny *)

let route_result_equal a b =
  match (a, b) with
  | Reject, Reject -> true
  | Accept r1, Accept r2 -> Bgp.Route.equal r1 r2
  | _ -> false

let pp_route_result fmt = function
  | Reject -> Format.fprintf fmt "ACTION: deny"
  | Accept r -> Format.fprintf fmt "@[<v>ACTION: permit@ %a@]" Bgp.Route.pp r
