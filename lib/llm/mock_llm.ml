(** The simulated LLM: a [prompt -> completion] endpoint with call
    accounting and scheduled fault injection.

    The completion function is the composition of the natural-language
    parser and the template synthesizer, optionally corrupted by the
    next scheduled fault. Because faults are consumed one per synthesis
    attempt, the verify-and-repair loop of the pipeline converges once
    the schedule is exhausted — mirroring an LLM that fixes its output
    when shown a counterexample. *)

type request = {
  system : string;
  few_shot : (string * string) list;
  user : string;
}

type stats = {
  mutable classify_calls : int;
  mutable synthesis_calls : int;
  mutable spec_calls : int;
  mutable prompt_tokens : int;
  mutable completion_tokens : int;
  mutable faults_injected : Fault_injector.fault list; (* newest first *)
}

type t = {
  mutable pending_faults : Fault_injector.fault list;
  (* Replay transcript: when set, synthesis answers come verbatim from
     here (a recorded session's responses, faults already baked in)
     instead of the parser+synthesizer. *)
  mutable replay : (string, string) result list option;
  stats : stats;
}

(* Observability: one counter per endpoint, shared by every instance. *)
let classify_counter = Obs.Counter.make "llm.calls.classify"
let synthesize_counter = Obs.Counter.make "llm.calls.synthesize"
let spec_counter = Obs.Counter.make "llm.calls.spec" (* spec extraction *)

(* Token accounting: per-call estimates go to the stats record (always)
   and the labeled per-endpoint counters (while Obs is enabled), and are
   returned so the emitters below can tag their telemetry events. *)
let account t ~endpoint ~prompt_tokens ~completion_tokens =
  t.stats.prompt_tokens <- t.stats.prompt_tokens + prompt_tokens;
  t.stats.completion_tokens <- t.stats.completion_tokens + completion_tokens;
  Tokens.account ~endpoint ~prompt_tokens ~completion_tokens

let token_fields ~prompt_tokens ~completion_tokens =
  [
    ("prompt_tokens", Json.Int prompt_tokens);
    ("completion_tokens", Json.Int completion_tokens);
  ]

let create ?(faults = []) ?replay () =
  {
    pending_faults = faults;
    replay;
    stats =
      {
        classify_calls = 0;
        synthesis_calls = 0;
        spec_calls = 0;
        prompt_tokens = 0;
        completion_tokens = 0;
        faults_injected = [];
      };
  }

let stats t = t.stats

let total_calls t =
  t.stats.classify_calls + t.stats.synthesis_calls + t.stats.spec_calls

(** The classification call (paper step 1). *)
let classify t prompt =
  t.stats.classify_calls <- t.stats.classify_calls + 1;
  Obs.Counter.incr classify_counter;
  let verdict = Classifier.classify prompt in
  let prompt_tokens = Tokens.estimate prompt in
  (* The classifier answers with a single label. *)
  let completion_tokens = 1 in
  account t ~endpoint:"classify" ~prompt_tokens ~completion_tokens;
  Telemetry.emit ~kind:"llm_classify" (fun () ->
      [
        ("prompt", Json.String prompt);
        ( "verdict",
          Json.String (match verdict with `Acl -> "acl" | `Route_map -> "route_map")
        );
      ]
      @ token_fields ~prompt_tokens ~completion_tokens);
  verdict

(** The synthesis call (paper step 3): returns Cisco IOS text. [Error]
    models a refusal/unparseable intent. *)
let synthesize t (req : request) =
  t.stats.synthesis_calls <- t.stats.synthesis_calls + 1;
  Obs.Counter.incr synthesize_counter;
  let result, fault =
    match t.replay with
    | Some transcript -> (
        (* Replaying a recorded session: answers come from the log. *)
        match transcript with
        | [] -> (Error "replay transcript exhausted", None)
        | r :: rest ->
            t.replay <- Some rest;
            (r, None))
    | None -> (
        (* Counterexample feedback appended by the repair loop guides a
           real LLM; the simulated one simply re-reads the original
           intent. *)
        let user =
          match String.index_opt req.user '\n' with
          | Some i -> String.sub req.user 0 i
          | None -> req.user
        in
        let kind = Classifier.classify user in
        match Nl_parser.parse kind user with
        | Error e -> (Error (Nl_parser.error_message e), None)
        | Ok intent -> (
            let clean = Synthesizer.render intent in
            match t.pending_faults with
            | [] -> (Ok clean, None)
            | fault :: rest -> (
                t.pending_faults <- rest;
                match Fault_injector.apply fault clean with
                | Some corrupted ->
                    t.stats.faults_injected <- fault :: t.stats.faults_injected;
                    (Ok corrupted, Some fault)
                | None -> (Ok clean, None)
                (* fault not applicable to this snippet *))))
  in
  let prompt_tokens =
    Tokens.estimate_request ~system:req.system ~few_shot:req.few_shot
      ~user:req.user
  in
  let completion_tokens =
    Tokens.estimate (match result with Ok s | Error s -> s)
  in
  account t ~endpoint:"synthesize" ~prompt_tokens ~completion_tokens;
  Telemetry.emit ~kind:"llm_synthesize" (fun () ->
      [
        ("prompt", Json.String req.user);
        ("ok", Json.Bool (Result.is_ok result));
        ( (match result with Ok _ -> "text" | Error _ -> "error"),
          Json.String (match result with Ok s | Error s -> s) );
        ( "fault",
          match fault with
          | None -> Json.Null
          | Some f -> Json.String (Fault_injector.fault_to_string f) );
      ]
      @ token_fields ~prompt_tokens ~completion_tokens);
  result

(** The spec-extraction call (paper step 3'): the JSON behavioural spec
    of the user's intent. Always faithful — the paper has the user
    manually vet this output, so an unfaithful spec would be caught
    before verification. *)
let generate_spec t prompt =
  t.stats.spec_calls <- t.stats.spec_calls + 1;
  Obs.Counter.incr spec_counter;
  let result =
    match Nl_parser.parse_route_map prompt with
    | Error e -> Error (Nl_parser.error_message e)
    | Ok intent -> Ok (Intent.spec_of_route_map intent)
  in
  let prompt_tokens = Tokens.estimate prompt in
  let completion_tokens =
    Tokens.estimate
      (match result with
      | Ok spec -> Json.to_string ~indent:0 (Engine.Spec.to_json spec)
      | Error m -> m)
  in
  account t ~endpoint:"spec" ~prompt_tokens ~completion_tokens;
  Telemetry.emit ~kind:"llm_spec" (fun () ->
      [
        ("prompt", Json.String prompt);
        ("ok", Json.Bool (Result.is_ok result));
        ( match result with
        | Ok spec -> ("spec", Engine.Spec.to_json spec)
        | Error m -> ("error", Json.String m) );
      ]
      @ token_fields ~prompt_tokens ~completion_tokens);
  result
