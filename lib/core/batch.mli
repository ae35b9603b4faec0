(** Conflict-aware batch intent synthesis (DESIGN.md §12).

    [run] takes N natural-language intents at once and produces exactly
    the configuration and the questions of N sequential {!Pipeline}
    runs — each intent is synthesized with the pipeline's front half
    and placed with its back half ({!Pipeline.place_route_map},
    {!Pipeline.place_acl}) against the evolving configuration — while
    deduplicating repeated questions across intents with a shared
    {!Disambig_common.Answer_cache}. Genuine inter-intent conflicts are
    reported as edges of the pairwise conflict graph, classified per
    target from the candidates' matches
    ({!Engine.Compare_route_policies.conflict_graph},
    {!Engine.Compare_acls.conflict_graph},
    {!Prefix_list_disambiguator.conflict_graph}), each carrying a
    differential witness, and are resolved through the ordinary
    disambiguation questions of the later intent. *)

type item =
  | Route_map_update of { target : string; prompt : string }
  | Acl_update of { target : string; prompt : string }

type question =
  | Route_map_q of Disambiguator.question
  | Acl_q of Acl_disambiguator.question

type oracle = intent:int -> target:string -> question -> Disambig_common.answer
(** The batch user: answers one placement question for intent [intent]
    against policy [target]. *)

type witness =
  | Route_witness of Engine.Compare_route_policies.difference
  | Acl_witness of Engine.Compare_acls.difference
  | Prefix_witness of Netaddr.Prefix.t

type conflict = {
  intent_a : int; (* input indices, [intent_a < intent_b] *)
  intent_b : int;
  target : string;
  witness : witness;
}

type item_result =
  | Route_map_result of Pipeline.route_map_report
  | Acl_result of Pipeline.acl_report

type report = {
  db : Config.Database.t; (* final configuration, all intents applied *)
  items : item_result list; (* in input order *)
  conflicts : conflict list; (* genuine inter-intent conflict edges *)
  overlap_pairs : int; (* intent pairs whose match regions intersect *)
  questions_saved : int; (* answer-cache hits *)
}

type error = { intent : int; reason : Pipeline.error }

val error_to_string : error -> string
val default_max_attempts : int

val run :
  ?max_attempts:int ->
  ?rm_mode:Disambiguator.mode ->
  ?acl_mode:Acl_disambiguator.mode ->
  ?pool:Parallel.Pool.t ->
  llm:Llm.Mock_llm.t ->
  oracle:oracle ->
  db:Config.Database.t ->
  item list ->
  (report, error) result
(** Run a whole batch end to end: synthesize and verify every intent
    (same LLM call order as N sequential runs), classify each target
    policy's inter-intent overlap/conflict graph from the candidates'
    matches, then place every stanza in input order as [clarify update]
    would, against the evolving target: one live sweep per intent,
    decoding only the witnesses it asks about. Every sweep runs
    serially in the current BDD manager. [?pool] is accepted and
    ignored. Increments {!Engine.Metrics.batch_intents},
    {!Engine.Metrics.batch_conflict_pairs} and
    {!Engine.Metrics.batch_questions_saved}, and observes
    {!Engine.Metrics.batch_ns}. *)

(** {2 Prefix-list batches}

    Prefix-list entries are not LLM-synthesized; their batch is the
    sequential disambiguation loop plus the shared answer cache and each
    target's conflict graph ({!Prefix_list_disambiguator.conflict_graph},
    one context per target). *)

type prefix_item = { target : string; entry : Config.Prefix_list.entry }

type prefix_report = {
  db : Config.Database.t;
  outcomes : Prefix_list_disambiguator.outcome list; (* in input order *)
  conflicts : conflict list;
  questions_saved : int;
}

val insert_prefix_list_entries :
  oracle:
    (intent:int ->
    target:string ->
    Prefix_list_disambiguator.question ->
    Disambig_common.answer) ->
  db:Config.Database.t ->
  prefix_item list ->
  (prefix_report, error) result
