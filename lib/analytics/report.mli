(** The Figure-4 aggregator: per-router statistics recomputed from
    recorded session logs.

    The Markdown and CSV renderings contain only deterministic data
    (event counts and chars/4 token estimates), so they can be
    committed as goldens and diffed in CI; wall-clock phase timings
    appear only in the JSON rendering. *)

type phase = { phase : string; total_ns : float; count : int }

type fleet_info = {
  role : string; (* netgen role recorded by the E5 fleet_router event *)
  steps_planned : int;
  completed : bool; (* a fleet_router_done event was seen *)
  wall_ns : float; (* from fleet_router_done; 0 until completed *)
}

type router_stats = {
  router : string;
  sessions : int; (* session_start events *)
  route_maps : int;
      (* distinct targets: of session_start, or of batch_item in a batch *)
  stanzas : int; (* placement events *)
  questions : int;
  probes : int;
  boundaries : int; (* differing insertion boundaries, summed over
                       placement events *)
  retries : int; (* verify events with a non-"verified" verdict *)
  classify_calls : int;
  synthesize_calls : int;
  spec_calls : int;
  prompt_tokens : int;
  completion_tokens : int;
  cost_usd : float; (* {!Llm.Tokens.cost} over the token totals *)
  phases : phase list;
      (* wall time per depth-1 pipeline span, plus "total" for the
         root span; JSON rendering only *)
  boundary_ns : float;
      (* wall time summed over find_boundaries spans; the JSON
         rendering also derives boundary_ns_per_question from it *)
  batch_sessions : int; (* session_start events with pipeline="batch" *)
  batch_intents : int; (* intents summed over batch_plan events *)
  batch_conflict_pairs : int;
      (* genuine inter-intent conflict edges reported by batch plans *)
  batch_fast_path : int;
      (* batch items whose intent overlaps no other intent of its
         batch (the batch_item event's fast_path field; both names
         kept so old logs and reports still load) *)
  batch_questions_saved : int;
      (* questions served from the shared batch answer cache
         (batch_cache_hit events) *)
  gauges : (string * float) list;
      (* the last "gauges" event of the router's sessions: point-in-time
         runtime state (GC pressure, BDD manager sizes, pool occupancy)
         sampled when the session closed; JSON rendering only *)
  fleet : fleet_info option;
      (* per-router progress from an E5 fleet run (fleet_router /
         fleet_router_done events); JSON rendering only *)
}

type t = { routers : router_stats list }

(** The incremental per-router accumulator behind every report.

    [add] folds one event in constant space; [merge a b] combines two
    accumulators whose event ranges are ordered a-before-b and is
    associative, so a pooled fold over file shards finishes
    byte-identically to a serial fold. {!of_sessions} and the streaming
    reader ({!Stream}) both go through this fold, which is what makes
    batch and streaming reports byte-for-byte interchangeable. *)
module Acc : sig
  type t

  val empty : t
  val add : t -> Telemetry.Event.t -> t
  val merge : t -> t -> t
  val of_events : Telemetry.Event.t list -> t

  val finish : router:string -> t -> router_stats

  val router_label : t -> string option
  (** First ctx ["router"] label seen, as in {!Session.router}. *)

  val events : t -> int
  val last_ts_ns : t -> float (* 0. before any event *)
  val last_kind : t -> string option
  val questions : t -> int
  val stanzas : t -> int
end

val llm_calls : router_stats -> int
(** classify + synthesize + spec. *)

val of_accs : (string * Acc.t) list -> t
(** [(fallback_name, acc)] per log, in log order; accumulators resolve
    to {!Acc.router_label}[ | fallback] and merge per router in input
    order. Rows are sorted by router name. *)

val of_sessions : Session.t list -> t
(** Sessions with the same {!Session.router} merge into one row; rows
    are sorted by router name. *)

val figure4_markdown : t -> string
(** Just the paper's Figure-4 table (route-maps, stanzas, synthesis
    calls, questions, boundaries, retries per router). *)

val to_markdown : t -> string
(** Figure-4 table plus the LLM usage/cost table. Deterministic. *)

val to_csv : t -> string
val to_json : t -> Json.t
