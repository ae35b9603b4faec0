(** Deterministic token and cost accounting for the simulated LLM.

    Estimates use the chars/4 heuristic so that a given prompt costs
    the same number of tokens on every run — recordings, replays and
    committed goldens must agree. Costs use flat per-token USD prices
    in the range of frontier-API pricing; only their ratio and
    stability matter. *)

val estimate : string -> int
(** [ceil (length / 4)]; 0 for the empty string. *)

val estimate_request :
  system:string ->
  few_shot:(string * string) list ->
  user:string ->
  int
(** Sum of {!estimate} over every part of a chat request. *)

val cost : prompt_tokens:int -> completion_tokens:int -> float
(** Estimated USD for one call (or one aggregated total): $3 per
    million prompt tokens and $15 per million completion tokens. *)

val account :
  endpoint:string -> prompt_tokens:int -> completion_tokens:int -> unit
(** Add to the labeled counters [llm.tokens.prompt{endpoint="..."}] and
    [llm.tokens.completion{endpoint="..."}]. Endpoints in use:
    [classify], [synthesize], [spec], [placement]. *)
