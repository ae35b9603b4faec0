(** Clarify's end-to-end workflow (the paper's Figure 1):

    classify the query → retrieve system prompt and few-shot examples →
    LLM synthesizes one stanza in isolation → a second LLM call extracts
    a JSON behavioural spec → the stanza is verified against the spec
    (searchRoutePolicies / searchFilters) with counterexample feedback
    looping back to the LLM → the verified stanza is imported under
    fresh list names → the disambiguator binary-searches the insertion
    point with differential-example questions to the user. *)

type error =
  | Wrong_query_type of { expected : string; got : string }
  | Llm_error of string
  | Parse_error of string
  | Snippet_shape of string
  | Verification_exhausted of string list (* verdicts per attempt *)
  | Spec_error of string
  | Target_not_found of string
  | Disambiguation_failed of string

let error_to_string = function
  | Wrong_query_type { expected; got } ->
      Printf.sprintf "classifier says this is a %s query, expected %s" got
        expected
  | Llm_error m -> "LLM failure: " ^ m
  | Parse_error m -> "generated config does not parse: " ^ m
  | Snippet_shape m -> "unexpected snippet shape: " ^ m
  | Verification_exhausted history ->
      "verification failed on every attempt:\n  "
      ^ String.concat "\n  " history
  | Spec_error m -> "spec extraction failed: " ^ m
  | Target_not_found name -> "no route-map or ACL named " ^ name
  | Disambiguation_failed m -> "disambiguation failed: " ^ m

type route_map_report = {
  db : Config.Database.t; (* updated configuration *)
  map : Config.Route_map.t; (* updated target map *)
  spec : Engine.Spec.t;
  stanza : Config.Route_map.stanza; (* as inserted, post renaming *)
  renaming : (string * string) list;
  synthesis_attempts : int;
  verification_history : string list;
  llm_calls : int; (* calls consumed by this update *)
  questions : Disambiguator.question list;
  position : int;
  boundaries : int;
}

let default_max_attempts = 5

(* A Linear run whose answers no single insertion point satisfies. *)
let inconsistent =
  Disambiguation_failed
    "answers are inconsistent: no single insertion point implements this \
     intent"

(* Flight recorder (see DESIGN.md §Observability for the event schema).
   [Telemetry.emit] payload thunks are only forced while recording. *)
let emit_session_start ~pipeline ~target ~prompt ~mode ~max_attempts ~db =
  Telemetry.emit ~kind:"session_start" (fun () ->
      [
        ("pipeline", Json.String pipeline);
        ("target", Json.String target);
        ("prompt", Json.String prompt);
        ("mode", Json.String mode);
        ("max_attempts", Json.Int max_attempts);
        ("config", Json.String (Config.Parser.to_string db));
      ])

let emit_verify ~attempt verdict =
  Telemetry.emit ~kind:"verify" (fun () ->
      [ ("attempt", Json.Int attempt); ("verdict", Json.String verdict) ])

let emit_placement ~position ~boundaries ~questions =
  Telemetry.emit ~kind:"placement" (fun () ->
      [
        ("position", Json.Int position);
        ("boundaries", Json.Int boundaries);
        ("questions", Json.Int questions);
      ])

let emit_session_end ~final_config result =
  Telemetry.emit ~kind:"session_end" (fun () ->
      match result with
      | Ok r ->
          [ ("ok", Json.Bool true); ("config", Json.String (final_config r)) ]
      | Error e ->
          [ ("ok", Json.Bool false); ("error", Json.String (error_to_string e)) ])

(* Observability (see DESIGN.md §Observability for the naming scheme).
   Stage latencies are recorded automatically by the spans below. *)
let runs_counter =
  Obs.Counter.make "pipeline.runs" ~help:"end-to-end pipeline invocations"

let errors_counter =
  Obs.Counter.make "pipeline.errors" ~help:"pipeline runs ending in an error"

let llm_calls_counter =
  Obs.Counter.make "pipeline.llm_calls"
    ~help:"LLM calls consumed by pipeline runs (all endpoints)"

let attempts_counter =
  Obs.Counter.make "pipeline.synthesis_attempts"
    ~help:"synthesis attempts (>=1 per run)"

let verification_counter =
  Obs.Counter.make "pipeline.verification_attempts"
    ~help:"verifier invocations on parsed candidate snippets"

let cex_loops_counter =
  Obs.Counter.make "pipeline.counterexample_loops"
    ~help:"failed attempts fed back to the LLM as counterexamples"

(* What a family's check makes of one parsed snippet: accept it, ask
   the LLM again with [feedback] (recording [line] in the history), or
   end the run. *)
type 'a verdict =
  | Accept of 'a
  | Retry of { feedback : string; line : string }
  | Fail of error

let retry msg = Retry { feedback = msg; line = msg }

(* One counted verifier invocation. *)
let verify f =
  Obs.with_span "verify" (fun () ->
      Obs.Counter.incr verification_counter;
      f ())

(* The verify-repair loop: ask the LLM for a snippet until it parses and
   [check] accepts it, feeding failures back into the prompt. *)
let repair_loop llm ~max_attempts ~entry ~prompt ~check =
  Obs.with_span "synthesize" @@ fun () ->
  let rec attempt n ~feedback history =
    if n > max_attempts then Error (Verification_exhausted (List.rev history))
    else begin
      Obs.Counter.incr attempts_counter;
      let user =
        match feedback with
        | None -> prompt
        | Some f -> prompt ^ "\nYour previous answer was wrong: " ^ f
      in
      let req =
        {
          Llm.Mock_llm.system = entry.Llm.Prompt_db.system;
          few_shot = entry.Llm.Prompt_db.few_shot;
          user;
        }
      in
      match Obs.with_span "llm" (fun () -> Llm.Mock_llm.synthesize llm req) with
      | Error m -> Error (Llm_error m)
      | Ok text -> (
          let verdict =
            match Config.Parser.parse text with
            | Error m -> retry ("syntax error: " ^ m)
            | Ok snippet -> check snippet
          in
          match verdict with
          | Accept v ->
              emit_verify ~attempt:n "verified";
              Ok (v, n, List.rev history)
          | Retry { feedback = msg; line } ->
              Obs.Counter.incr cex_loops_counter;
              emit_verify ~attempt:n msg;
              attempt (n + 1) ~feedback:(Some msg)
                (("attempt " ^ string_of_int n ^ ": " ^ line) :: history)
          | Fail e -> Error e)
    end
  in
  attempt 1 ~feedback:None []

let synthesis_loop llm ~max_attempts ~entry ~prompt ~spec =
  let check snippet =
    match Config.Database.route_maps snippet with
    | [ rm ] -> (
        match
          verify (fun () ->
              Engine.Search_route_policies.verify_stanza snippet rm spec)
        with
        | Engine.Search_route_policies.Verified -> Accept (snippet, rm)
        | verdict ->
            retry
              (Format.asprintf "%a" Engine.Search_route_policies.pp_verdict
                 verdict))
    | rms ->
        Fail
          (Snippet_shape
             (Printf.sprintf "expected one route-map, found %d"
                (List.length rms)))
  in
  repair_loop llm ~max_attempts ~entry ~prompt ~check

(* One update session: counters and the session_start/session_end
   events around [body], which receives the LLM calls consumed so far. *)
let session ~pipeline ~mode ~max_attempts ~llm ~db ~target ~prompt
    ~final_config body =
  Obs.Counter.incr runs_counter;
  emit_session_start ~pipeline ~target ~prompt ~mode ~max_attempts ~db;
  let calls_before = Llm.Mock_llm.total_calls llm in
  let calls () = Llm.Mock_llm.total_calls llm - calls_before in
  let result = body calls in
  Obs.Counter.incr llm_calls_counter ~by:(calls ());
  (match result with
  | Error _ -> Obs.Counter.incr errors_counter
  | Ok _ -> ());
  emit_session_end ~final_config result;
  result

let ( let* ) = Result.bind

type route_map_draft = {
  target_map : Config.Route_map.t; (* the target, before insertion *)
  imported : Config.Database.t; (* [db] plus the snippet's lists *)
  stanza : Config.Route_map.stanza; (* post renaming *)
  spec : Engine.Spec.t;
  renaming : (string * string) list;
  attempts : int;
  history : string list; (* one line per failed attempt *)
}

let route_map_front ~llm ~max_attempts ~db ~target ~prompt =
  let* target_map =
    Option.to_result ~none:(Target_not_found target)
      (Config.Database.route_map db target)
  in
  let* () =
    match
      Obs.with_span "classify" (fun () -> Llm.Mock_llm.classify llm prompt)
    with
    | `Route_map -> Ok ()
    | `Acl -> Error (Wrong_query_type { expected = "route-map"; got = "acl" })
  in
  let entry = Llm.Prompt_db.retrieve `Route_map in
  let* spec =
    Obs.with_span "spec_extract" (fun () ->
        Llm.Mock_llm.generate_spec llm prompt)
    |> Result.map_error (fun m -> Spec_error m)
  in
  (* The paper has the user vet the spec here; our simulated spec
     generator is faithful by construction. *)
  let* (snippet, rm), attempts, history =
    synthesis_loop llm ~max_attempts ~entry ~prompt ~spec
  in
  let* { Naming.db = imported; stanza; renaming } =
    Obs.with_span "import" (fun () ->
        Naming.import_route_map_snippet ~db ~snippet rm)
    |> Result.map_error (fun m -> Snippet_shape m)
  in
  Ok { target_map; imported; stanza; spec; renaming; attempts; history }

(* The back half of a route-map update: place the draft's stanza into
   [target] against [db], which holds the draft's lists, and report. *)
let place_route_map ~mode ~oracle ~db ~target ~llm_calls
    (d : route_map_draft) =
  match
    Obs.with_span "disambiguate" (fun () ->
        Disambiguator.run ~mode ~db ~target ~stanza:d.stanza ~oracle ())
  with
  | Error (Disambiguator.Inconsistent_intent _) -> Error inconsistent
  | Ok outcome ->
      emit_placement ~position:outcome.position ~boundaries:outcome.boundaries
        ~questions:(List.length outcome.questions);
      Ok
        {
          db = Config.Database.add_route_map db outcome.map;
          map = outcome.map;
          spec = d.spec;
          stanza = d.stanza;
          renaming = d.renaming;
          synthesis_attempts = d.attempts;
          verification_history = d.history;
          llm_calls;
          questions = outcome.questions;
          position = outcome.position;
          boundaries = outcome.boundaries;
        }

(** Run one incremental route-map update end to end. *)
let run_route_map_update ?(max_attempts = default_max_attempts)
    ?(mode = Disambiguator.Binary_search) ~llm ~oracle ~db ~target ~prompt () =
  Obs.with_span "pipeline.route_map_update" @@ fun () ->
  session ~pipeline:"route_map" ~mode:(Disambig_common.mode_to_string mode)
    ~max_attempts ~llm ~db ~target ~prompt
    ~final_config:(fun (r : route_map_report) -> Config.Parser.to_string r.db)
  @@ fun calls ->
  let* d = route_map_front ~llm ~max_attempts ~db ~target ~prompt in
  place_route_map ~mode ~oracle ~db:d.imported ~target:d.target_map
    ~llm_calls:(calls ()) d

(* ------------------------------------------------------------------ *)
(* ACL updates                                                        *)
(* ------------------------------------------------------------------ *)

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

(* For ACLs the intent itself is the spec: expected rule derived from
   the parsed intent; verification compares header spaces and actions. *)
let acl_synthesis_loop llm ~max_attempts ~entry ~prompt =
  match
    Obs.with_span "spec_extract" (fun () -> Llm.Nl_parser.parse `Acl prompt)
  with
  | Error e -> Error (Spec_error (Llm.Nl_parser.error_message e))
  | Ok (Llm.Intent.Route_map _) -> assert false
  | Ok (Llm.Intent.Acl intent) ->
      let expected =
        Config.Acl.rule ~seq:10 ~protocol:intent.Llm.Intent.protocol
          ~src:intent.src ~src_port:intent.src_port ~dst:intent.dst
          ~dst_port:intent.dst_port ~established:intent.established
          intent.acl_action
      in
      let spec_space = Symbolic.Packet_space.of_rule expected in
      let check snippet =
        match Config.Database.acls snippet with
        | [ { Config.Acl.rules = [ rule ]; _ } ] -> (
            match
              verify (fun () ->
                  Engine.Search_filters.verify_rule rule ~spec_space
                    ~action:intent.acl_action)
            with
            | Engine.Search_filters.Verified -> Accept rule
            | Engine.Search_filters.Wrong_action _ -> retry "wrong action"
            | Engine.Search_filters.Match_too_broad p ->
                retry
                  (Format.asprintf
                     "rule matches a packet outside the intent: %a"
                     Config.Packet.pp p)
            | Engine.Search_filters.Match_too_narrow p ->
                retry
                  (Format.asprintf "rule misses a packet the intent covers: %a"
                     Config.Packet.pp p))
        | _ ->
            Retry
              {
                feedback = "produce exactly one ACL rule";
                line = "wrong snippet shape";
              }
      in
      repair_loop llm ~max_attempts ~entry ~prompt ~check

type acl_draft = {
  target_acl : Config.Acl.t;
  rule : Config.Acl.rule;
  attempts : int;
  history : string list;
}

let acl_front ~llm ~max_attempts ~db ~target ~prompt =
  let* target_acl =
    Option.to_result ~none:(Target_not_found target)
      (Config.Database.acl db target)
  in
  let* () =
    match
      Obs.with_span "classify" (fun () -> Llm.Mock_llm.classify llm prompt)
    with
    | `Acl -> Ok ()
    | `Route_map ->
        Error (Wrong_query_type { expected = "acl"; got = "route-map" })
  in
  let entry = Llm.Prompt_db.retrieve `Acl in
  let* rule, attempts, history =
    acl_synthesis_loop llm ~max_attempts ~entry ~prompt
  in
  Ok { target_acl; rule; attempts; history }

(* The back half of an ACL update: place the draft's rule into
   [target] and report against [db]. *)
let place_acl ~mode ~oracle ~db ~target ~llm_calls (d : acl_draft) =
  match
    Obs.with_span "disambiguate" (fun () ->
        Acl_disambiguator.run ~mode ~target ~rule:d.rule ~oracle ())
  with
  | Error (Acl_disambiguator.Inconsistent_intent _) -> Error inconsistent
  | Ok outcome ->
      emit_placement ~position:outcome.position ~boundaries:outcome.boundaries
        ~questions:(List.length outcome.questions);
      Ok
        {
          db = Config.Database.add_acl db outcome.acl;
          acl = outcome.acl;
          rule = d.rule;
          synthesis_attempts = d.attempts;
          verification_history = d.history;
          llm_calls;
          questions = outcome.questions;
          position = outcome.position;
          boundaries = outcome.boundaries;
        }

(** Run one incremental ACL update end to end. *)
let run_acl_update ?(max_attempts = default_max_attempts)
    ?(mode = Acl_disambiguator.Binary_search) ~llm ~oracle ~db ~target ~prompt
    () =
  Obs.with_span "pipeline.acl_update" @@ fun () ->
  session ~pipeline:"acl" ~mode:(Disambig_common.mode_to_string mode)
    ~max_attempts ~llm ~db ~target ~prompt
    ~final_config:(fun (r : acl_report) -> Config.Parser.to_string r.db)
  @@ fun calls ->
  let* d = acl_front ~llm ~max_attempts ~db ~target ~prompt in
  place_acl ~mode ~oracle ~db ~target:d.target_acl ~llm_calls:(calls ()) d
