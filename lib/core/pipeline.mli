(** Clarify's end-to-end workflow (the paper's Figure 1):

    classify the query → retrieve system prompt and few-shot examples →
    the LLM synthesizes one stanza in isolation → a second LLM call
    extracts a JSON behavioural spec → the stanza is verified against
    the spec (searchRoutePolicies / searchFilters) with counterexample
    feedback looping back to the LLM → the verified stanza is imported
    under fresh list names → the disambiguator binary-searches the
    insertion point with differential-example questions to the user. *)

type error =
  | Wrong_query_type of { expected : string; got : string }
  | Llm_error of string
  | Parse_error of string
  | Snippet_shape of string
  | Verification_exhausted of string list (* verdicts per attempt *)
  | Spec_error of string
  | Target_not_found of string
  | Disambiguation_failed of string

val error_to_string : error -> string

type route_map_report = {
  db : Config.Database.t; (* updated configuration *)
  map : Config.Route_map.t; (* updated target map *)
  spec : Engine.Spec.t;
  stanza : Config.Route_map.stanza; (* as inserted, post renaming *)
  renaming : (string * string) list;
  synthesis_attempts : int;
  verification_history : string list; (* one line per failed attempt *)
  llm_calls : int; (* calls consumed by this update *)
  questions : Disambiguator.question list;
  position : int;
  boundaries : int;
}

val default_max_attempts : int

val run_route_map_update :
  ?max_attempts:int ->
  ?mode:Disambiguator.mode ->
  llm:Llm.Mock_llm.t ->
  oracle:Disambiguator.oracle ->
  db:Config.Database.t ->
  target:string ->
  prompt:string ->
  unit ->
  (route_map_report, error) result
(** Run one incremental route-map update end to end. *)

type acl_report = {
  db : Config.Database.t;
  acl : Config.Acl.t;
  rule : Config.Acl.rule;
  synthesis_attempts : int;
  verification_history : string list;
  llm_calls : int;
  questions : Acl_disambiguator.question list;
  position : int;
  boundaries : int;
}

val run_acl_update :
  ?max_attempts:int ->
  ?mode:Acl_disambiguator.mode ->
  llm:Llm.Mock_llm.t ->
  oracle:Acl_disambiguator.oracle ->
  db:Config.Database.t ->
  target:string ->
  prompt:string ->
  unit ->
  (acl_report, error) result
(** Run one incremental ACL update end to end. For ACLs the parsed
    intent itself serves as the spec. *)

(** {2 Building blocks shared with the batch pipeline ({!Batch})}

    Each update is a front half — target lookup, classification,
    prompt retrieval, spec extraction, the synthesize-verify-repair
    loop and (for route-maps) import — and a back half that places the
    result and reports, exposed so batch runs reuse the exact same LLM
    call sequence, placement, spans, repair behaviour and event schema
    as sequential runs. *)

type route_map_draft = {
  target_map : Config.Route_map.t; (* the target, before insertion *)
  imported : Config.Database.t; (* [db] plus the snippet's lists *)
  stanza : Config.Route_map.stanza; (* post renaming *)
  spec : Engine.Spec.t;
  renaming : (string * string) list;
  attempts : int;
  history : string list; (* one line per failed attempt *)
}

val route_map_front :
  llm:Llm.Mock_llm.t ->
  max_attempts:int ->
  db:Config.Database.t ->
  target:string ->
  prompt:string ->
  (route_map_draft, error) result
(** A verified stanza for [target], imported into [db] under fresh list
    names, ready to place. *)

val place_route_map :
  mode:Disambiguator.mode ->
  oracle:Disambiguator.oracle ->
  db:Config.Database.t ->
  target:Config.Route_map.t ->
  llm_calls:int ->
  route_map_draft ->
  (route_map_report, error) result
(** The back half of a route-map update: disambiguate the draft's
    stanza into [target] with {!Disambiguator.run} against [db], which
    must hold the draft's lists, emit the [placement] event and report
    [db] with the updated map. [llm_calls] is reported as is. An
    inconsistent Linear run is {!inconsistent}. *)

type acl_draft = {
  target_acl : Config.Acl.t;
  rule : Config.Acl.rule;
  attempts : int;
  history : string list;
}

val acl_front :
  llm:Llm.Mock_llm.t ->
  max_attempts:int ->
  db:Config.Database.t ->
  target:string ->
  prompt:string ->
  (acl_draft, error) result
(** A verified rule for the ACL [target], ready to place; the parsed
    intent serves as spec. *)

val place_acl :
  mode:Acl_disambiguator.mode ->
  oracle:Acl_disambiguator.oracle ->
  db:Config.Database.t ->
  target:Config.Acl.t ->
  llm_calls:int ->
  acl_draft ->
  (acl_report, error) result
(** The back half of an ACL update, as {!place_route_map}: place the
    draft's rule into [target] and report [db] with the updated ACL. *)

val inconsistent : error
(** [Disambiguation_failed] for a Linear run whose answers no single
    insertion point satisfies. *)

val runs_counter : Obs.Counter.t
val errors_counter : Obs.Counter.t
val llm_calls_counter : Obs.Counter.t
