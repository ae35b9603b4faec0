(** Route-policy search and stanza verification — the analogue of
    Batfish's [searchRoutePolicies]. *)

open Symbdd
module Ctx = Symbolic.Route_ctx

(* Treat a spec's as-path regex as an anonymous single-entry list so it
   can become a context atom. *)
let spec_as_path_list regex =
  Config.As_path_list.make "<spec>"
    [ (Config.Action.Permit, Sre.As_path_regex.source regex) ]

(** Compile a spec's match condition into the route space. *)
let spec_space ctx (spec : Spec.t) =
  Bdd.conj_list
    [
      (match spec.prefixes with
      | [] -> Bdd.one
      | ps -> Bdd.disj_list (List.map Ctx.of_prefix_range ps));
      (match spec.community with
      | None -> Bdd.one
      | Some regex -> Ctx.of_comm_regex ctx regex);
      Bdd.conj_list
        (List.map
           (fun c ->
             match Ctx.comm_var ctx c with
             | Some v -> Bdd.var v
             | None -> Bdd.zero (* outside the universe: unmatchable *))
           spec.communities_all);
      (match spec.as_path with
      | None -> Bdd.one
      | Some regex ->
          (* Treat the spec regex as an anonymous single-entry list; the
             context must have been built with it in scope. *)
          (* The context must have been built with this regex in scope. *)
          Ctx.of_as_path_list ctx (spec_as_path_list regex));
      (match spec.local_pref with
      | None -> Bdd.one
      | Some n -> Bvec.eq_const Ctx.local_pref n);
      (match spec.metric with
      | None -> Bdd.one
      | Some n -> Bvec.eq_const Ctx.metric n);
      (match spec.tag with
      | None -> Bdd.one
      | Some n -> Bvec.eq_const Ctx.tag n);
    ]

(** Context covering a route-map plus a spec's regexes. *)
let context_for db rm (spec : Spec.t) =
  Ctx.create
    ~extra_communities:spec.communities_all
    ~extra_comm_regexes:(Option.to_list spec.community)
    ~extra_as_path_lists:
      (match spec.as_path with
      | None -> []
      | Some r -> [ spec_as_path_list r ])
    [ (db, [ rm ]) ]

(** Find a route the policy treats with the given action inside a
    spec-shaped constraint (Batfish's searchRoutePolicies). *)
let search db rm ~(constraint_spec : Spec.t) ~(action : Config.Action.t) =
  Obs.Counter.incr Metrics.search_route_policies_calls;
  let ctx = context_for db rm constraint_spec in
  let space = spec_space ctx constraint_spec in
  let target =
    Bdd.disj_list
      (List.filter_map
         (fun (c : Ctx.cell) ->
           if Config.Action.equal c.action action then Some c.guard else None)
         (Ctx.exec ctx db rm))
  in
  Ctx.to_route ctx (Bdd.conj space target)

type verdict =
  | Verified
  | Wrong_action of { expected : Config.Action.t; got : Config.Action.t }
  | Match_too_broad of Bgp.Route.t (* stanza matches, spec does not *)
  | Match_too_narrow of Bgp.Route.t (* spec matches, stanza does not *)
  | Wrong_sets of { expected : Config.Transform.t; got : Config.Transform.t }
  | Undefined_references of (string list)

let pp_verdict fmt = function
  | Verified -> Format.pp_print_string fmt "verified"
  | Wrong_action { expected; got } ->
      Format.fprintf fmt "wrong action: expected %a, got %a" Config.Action.pp
        expected Config.Action.pp got
  | Match_too_broad r ->
      Format.fprintf fmt
        "@[<v>stanza matches a route outside the specification:@ %a@]"
        Bgp.Route.pp r
  | Match_too_narrow r ->
      Format.fprintf fmt
        "@[<v>stanza fails to match a route the specification covers:@ %a@]"
        Bgp.Route.pp r
  | Wrong_sets { expected; got } ->
      Format.fprintf fmt "wrong set clauses: expected %a, got %a"
        Config.Transform.pp expected Config.Transform.pp got
  | Undefined_references names ->
      Format.fprintf fmt "undefined list references: %s"
        (String.concat ", " names)

(** Verify that a single-stanza route-map implements a spec exactly:
    same match set, same action, same transform. Counterexamples are
    concrete routes. *)
let verify_stanza db (rm : Config.Route_map.t) (spec : Spec.t) =
  Obs.Counter.incr Metrics.search_route_policies_calls;
  match Config.Database.undefined_references db rm with
  | _ :: _ as undef -> Undefined_references (List.map snd undef)
  | [] -> (
      match rm.Config.Route_map.stanzas with
      | [ stanza ] -> (
          if not (Config.Action.equal stanza.action spec.action) then
            Wrong_action { expected = spec.action; got = stanza.action }
          else
            let ctx = context_for db rm spec in
            let sm = spec_space ctx spec in
            let st = Ctx.of_stanza ctx db stanza in
            match Ctx.to_route ctx (Bdd.diff st sm) with
            | Some r -> Match_too_broad r
            | None -> (
                match Ctx.to_route ctx (Bdd.diff sm st) with
                | Some r -> Match_too_narrow r
                | None ->
                    let expected = Config.Transform.of_sets db spec.sets in
                    let got = Config.Transform.of_sets db stanza.sets in
                    if Config.Transform.equal ~db1:db ~db2:db expected got then
                      Verified
                    else Wrong_sets { expected; got }))
      | stanzas ->
          invalid_arg
            (Printf.sprintf
               "verify_stanza: expected exactly one stanza, found %d"
               (List.length stanzas)))
