(** Route-policy search and stanza verification — the analogue of
    Batfish's [searchRoutePolicies]. *)

val spec_space : Symbolic.Route_ctx.t -> Spec.t -> Symbdd.Bdd.t
(** Compile a spec's match condition into the route space. The context
    must have been created with the spec's regexes in scope. *)

val search :
  Config.Database.t ->
  Config.Route_map.t ->
  constraint_spec:Spec.t ->
  action:Config.Action.t ->
  Bgp.Route.t option
(** A route the policy treats with the given action inside the
    spec-shaped constraint, if any. *)

type verdict =
  | Verified
  | Wrong_action of { expected : Config.Action.t; got : Config.Action.t }
  | Match_too_broad of Bgp.Route.t (* stanza matches, spec does not *)
  | Match_too_narrow of Bgp.Route.t (* spec matches, stanza does not *)
  | Wrong_sets of { expected : Config.Transform.t; got : Config.Transform.t }
  | Undefined_references of string list

val pp_verdict : Format.formatter -> verdict -> unit

val verify_stanza :
  Config.Database.t -> Config.Route_map.t -> Spec.t -> verdict
(** Verify that a single-stanza route-map implements a spec exactly:
    same match set, same action, same transform. Counterexamples are
    concrete routes. @raise Invalid_argument when the map does not have
    exactly one stanza. *)
