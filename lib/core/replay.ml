(** Deterministic replay of a recorded session (see DESIGN.md
    §Observability).

    A recorded log fully determines a session: the initial
    configuration, target and prompt come from [session_start], the LLM
    synthesis responses (faults already baked in) are fed verbatim to a
    replay {!Llm.Mock_llm}, and the user's disambiguation answers are
    fed to a scripted oracle. The pipeline is then re-run under an
    in-memory recorder and the two event streams are compared pairwise
    ({!Telemetry.Event.matches}); any mismatch — a tampered response, a
    changed verifier verdict, a different placement — surfaces as a
    {!divergence} at the first differing event. *)

module E = Telemetry.Event

type divergence = {
  index : int; (* 0-based position in the event stream *)
  recorded : E.t option; (* [None]: replay produced extra events *)
  replayed : E.t option; (* [None]: replay stopped short *)
}

type outcome = Identical | Diverged of divergence

type report = {
  pipeline : string; (* "route_map" or "acl" *)
  recorded_events : int;
  replayed_events : int;
  outcome : outcome;
}

exception Oracle_exhausted

let scripted_answers answers =
  let remaining = ref answers in
  fun () ->
    match !remaining with
    | [] -> raise Oracle_exhausted
    | a :: rest ->
        remaining := rest;
        a

let required e name =
  match E.str_field name e with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "session_start: missing field %S" name)

let run_events recorded =
  let ( let* ) r f = Result.bind r f in
  (* Span mirror events (Telemetry.span_sink) carry wall-clock timings
     that never reproduce, gauge samples are point-in-time runtime
     state, and E5's fleet_router events frame a router's session from
     outside it; drop them from the streams before comparing. The
     replay side never emits them, but --record-dir recordings hold
     them. *)
  let outside = [ "span"; "gauges"; "fleet_router"; "fleet_router_done" ] in
  let recorded = List.filter (fun e -> not (List.mem e.E.kind outside)) recorded in
  let* start =
    match recorded with
    | e :: _ when e.E.kind = "session_start" -> Ok e
    | _ :: _ -> Error "log does not begin with a session_start event"
    | [] -> Error "empty event log"
  in
  let* pipeline = required start "pipeline" in
  let* target = required start "target" in
  let* prompt = required start "prompt" in
  let* mode_name = required start "mode" in
  let* config = required start "config" in
  let max_attempts =
    Option.value ~default:Pipeline.default_max_attempts
      (E.int_field "max_attempts" start)
  in
  let* db =
    Result.map_error
      (fun m -> "recorded config does not parse: " ^ m)
      (Config.Parser.parse config)
  in
  (* LLM responses and user answers, in recorded order. *)
  let responses =
    List.filter_map
      (fun e ->
        if e.E.kind <> "llm_synthesize" then None
        else
          match (E.field "ok" e, E.str_field "text" e, E.str_field "error" e) with
          | Some (Json.Bool true), Some text, _ -> Some (Ok text)
          | _, _, Some err -> Some (Error err)
          | _ -> Some (Error "malformed llm_synthesize event"))
      recorded
  in
  (* A question event immediately preceded by a "batch_cache_hit"
     marker was answered from the batch answer cache, not by the user;
     the replayed run will serve it from its own cache, so its answer
     must not consume from the scripted oracle. *)
  let* answers =
    List.fold_left
      (fun acc e ->
        let* acc, cached = acc in
        if e.E.kind = "batch_cache_hit" then Ok (acc, true)
        else if e.E.kind <> "question" then Ok (acc, cached)
        else if cached then Ok (acc, false)
        else
          match E.str_field "answer" e with
          | Some "new" -> Ok (`New :: acc, false)
          | Some "old" -> Ok (`Old :: acc, false)
          | _ -> Error "question event without a new/old answer")
      (Ok ([], false))
      recorded
    |> Result.map (fun (acc, _) -> List.rev acc)
  in
  let llm = Llm.Mock_llm.create ~replay:responses () in
  let next = scripted_answers answers in
  let oracle _ =
    match next () with
    | `New -> Disambig_common.Prefer_new
    | `Old -> Disambig_common.Prefer_old
  in
  let mode = Disambig_common.mode_of_string mode_name in
  let* run =
    match pipeline with
    | "route_map" ->
        let* mode = mode in
        Ok
          (fun () ->
            ignore
              (Pipeline.run_route_map_update ~max_attempts ~mode ~llm ~oracle
                 ~db ~target ~prompt ()))
    | "acl" ->
        let* mode = mode in
        Ok
          (fun () ->
            ignore
              (Pipeline.run_acl_update ~max_attempts ~mode ~llm ~oracle ~db
                 ~target ~prompt ()))
    | "batch" ->
        let* mode = mode in
        let* acl_mode =
          Disambig_common.mode_of_string
            (Option.value ~default:"binary_search"
               (E.str_field "acl_mode" start))
        in
        let* items =
          match E.field "items" start with
          | Some (Json.List items) ->
              List.fold_left
                (fun acc j ->
                  let* acc = acc in
                  let str name =
                    match Json.member name j with
                    | Some (Json.String s) -> Ok s
                    | _ ->
                        Error
                          (Printf.sprintf
                             "batch session_start: item missing field %S" name)
                  in
                  let* kind = str "kind" in
                  let* target = str "target" in
                  let* prompt = str "prompt" in
                  match kind with
                  | "route_map" ->
                      Ok (Batch.Route_map_update { target; prompt } :: acc)
                  | "acl" -> Ok (Batch.Acl_update { target; prompt } :: acc)
                  | k ->
                      Error
                        (Printf.sprintf "batch session_start: unknown kind %S" k))
                (Ok []) items
              |> Result.map List.rev
          | _ -> Error "batch session_start: missing items list"
        in
        (* Re-create the empty targets the recorded config could not
           print. *)
        let empty =
          Option.fold ~none:[] ~some:(List.filter_map Json.to_str)
            (Option.bind (E.field "empty_targets" start) Json.to_list)
        in
        let db =
          List.fold_left
            (fun db -> function
              | Batch.Route_map_update { target = t; _ } when List.mem t empty ->
                  Config.Database.add_route_map db (Config.Route_map.make t [])
              | Batch.Acl_update { target = t; _ } when List.mem t empty ->
                  Config.Database.add_acl db (Config.Acl.make t [])
              | _ -> db)
            db items
        in
        Ok
          (fun () ->
            ignore
              (Batch.run ~max_attempts ~rm_mode:mode ~acl_mode ~llm
                 ~oracle:(fun ~intent:_ ~target:_ q -> oracle q)
                 ~db items))
    | p -> Error (Printf.sprintf "unknown pipeline kind %S" p)
  in
  (* Re-run under a fresh in-memory recorder. An exhausted oracle means
     the replay asked a question the recording never answered — itself a
     divergence, reported at whatever event the replay had reached. *)
  let (), replayed = Telemetry.with_memory_recorder (fun () ->
      try run () with Oracle_exhausted -> ())
  in
  let rec compare i = function
    | [], [] -> Identical
    | r :: rs, p :: ps when E.matches r p -> compare (i + 1) (rs, ps)
    | rs, ps ->
        Diverged
          {
            index = i;
            recorded = (match rs with r :: _ -> Some r | [] -> None);
            replayed = (match ps with p :: _ -> Some p | [] -> None);
          }
  in
  Ok
    {
      pipeline;
      recorded_events = List.length recorded;
      replayed_events = List.length replayed;
      outcome = compare 0 (recorded, replayed);
    }

let run_file path = Result.bind (Telemetry.load_file path) run_events

let identical r = r.outcome = Identical

let pp_event fmt = function
  | None -> Format.fprintf fmt "(no event)"
  | Some e -> Format.fprintf fmt "%s" (Json.to_string ~indent:2 (E.to_json e))

let pp_report fmt r =
  match r.outcome with
  | Identical ->
      Format.fprintf fmt
        "replay ok: %s session, %d/%d events matched bit-for-bit@." r.pipeline
        r.replayed_events r.recorded_events
  | Diverged d ->
      Format.fprintf fmt
        "@[<v>replay DIVERGED at event %d (%s session, %d recorded / %d \
         replayed events)@,recorded:@,%a@,replayed:@,%a@]@."
        d.index r.pipeline r.recorded_events r.replayed_events pp_event
        d.recorded pp_event d.replayed
