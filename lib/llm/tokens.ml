(* Deterministic token and cost accounting for the simulated LLM.

   The estimator is the standard chars/4 heuristic: real tokenizers
   average ~4 characters per token on English-plus-config text, and a
   deterministic estimate is what matters here — the same prompt must
   cost the same tokens on every run so recorded sessions, replays and
   goldens agree. *)

let estimate s = if s = "" then 0 else (String.length s + 3) / 4

let estimate_request ~system ~few_shot ~user =
  estimate system
  + List.fold_left
      (fun acc (q, a) -> acc + estimate q + estimate a)
      0 few_shot
  + estimate user

(* Flat per-token prices in USD, in the range of 2024-era frontier
   API pricing ($3 / $15 per million prompt / completion tokens). The
   absolute numbers are a modeling choice; only their ratio and
   stability matter for comparing experiments. *)
let prompt_token_cost = 3e-6
let completion_token_cost = 15e-6

let cost ~prompt_tokens ~completion_tokens =
  (float_of_int prompt_tokens *. prompt_token_cost)
  +. (float_of_int completion_tokens *. completion_token_cost)

(* Labeled counters of estimated tokens, one series per call site so
   `clarify report` can break cost down by endpoint. Resolving one takes
   the registry mutex, so it is done only while Obs is enabled. *)
let prompt_counter endpoint =
  Obs.Counter.labeled "llm.tokens.prompt" [ ("endpoint", endpoint) ]

let completion_counter endpoint =
  Obs.Counter.labeled "llm.tokens.completion" [ ("endpoint", endpoint) ]

let account ~endpoint ~prompt_tokens ~completion_tokens =
  if Obs.enabled () then begin
    Obs.Counter.incr (prompt_counter endpoint) ~by:prompt_tokens;
    Obs.Counter.incr (completion_counter endpoint) ~by:completion_tokens
  end
