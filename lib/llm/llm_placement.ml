(** A baseline for the paper's closing question: could the LLM itself
    play the role of the disambiguator?

    This module guesses an insertion position from the kind of surface
    heuristics a language model applies to configuration text — without
    symbolic reasoning and, crucially, without asking the user anything.
    The evaluation harness measures how often the guess is behaviourally
    what the user wanted; the symbolic disambiguator is correct by
    construction, which is the paper's argument for symbolic tools at
    this stage of the pipeline. *)

(* Is the stanza an unconditional catch-all? *)
let is_catch_all (s : Config.Route_map.stanza) = s.Config.Route_map.matches = []

(* Call accounting: the baseline counts as one LLM round trip whose
   prompt is the rendered target plus the candidate stanza and whose
   answer is a single position token. *)
let calls_counter = Obs.Counter.make "llm.calls.placement"

let account ~target ~stanza =
  if Obs.enabled () then begin
    Obs.Counter.incr calls_counter;
    let prompt =
      Format.asprintf "%a@.%a" Config.Route_map.pp target
        (fun fmt s ->
          Config.Route_map.pp_stanza fmt target.Config.Route_map.name s)
        stanza
    in
    Tokens.account ~endpoint:"placement"
      ~prompt_tokens:(Tokens.estimate prompt) ~completion_tokens:1
  end

(** Guess where to insert [stanza] in [target]. Heuristics, in order:
    1. a deny stanza goes above a trailing catch-all permit, if any —
       "specific denies belong before the default";
    2. otherwise a deny stanza goes to the top — "filters first";
    3. otherwise (permit) it goes to the bottom — "additions last". *)
let guess ~(target : Config.Route_map.t) ~(stanza : Config.Route_map.stanza) =
  account ~target ~stanza;
  let n = List.length target.Config.Route_map.stanzas in
  match stanza.Config.Route_map.action with
  | Config.Action.Deny -> (
      match List.rev target.Config.Route_map.stanzas with
      | last :: _
        when is_catch_all last
             && Config.Action.equal last.Config.Route_map.action
                  Config.Action.Permit ->
          n - 1
      | _ -> 0)
  | Config.Action.Permit -> n

(** Apply the guess. *)
let place ~target ~stanza =
  Config.Route_map.insert_at target (guess ~target ~stanza) stanza
