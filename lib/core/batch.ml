(** Conflict-aware batch intent synthesis (DESIGN.md §12).

    A batch run takes N natural-language intents at once and produces
    exactly what N sequential pipeline runs would — same final
    configuration, same questions — while consulting the user less
    often, and reports which intents interfere with each other:

    - every intent is synthesized and verified up front with the
      pipeline's own front half, in input order;
    - per target policy, the pairwise overlap/conflict graph is
      classified from the candidates' matches, without executing the
      target ({!Engine.Compare_route_policies.conflict_graph},
      {!Engine.Compare_acls.conflict_graph});
    - every intent is placed with the pipeline's own back half
      ({!Pipeline.place_route_map}, {!Pipeline.place_acl}) against the
      evolving database, as [clarify update] places it, every answer
      going through a shared {!Disambig_common.Answer_cache} keyed on
      policy and position, not just text.

    Input order is a topological order of the conflict graph with
    edges oriented from earlier to later intents: a later intent's
    questions are asked against a configuration that already holds
    every earlier stanza, so each conflict is resolved once, by the
    later party. *)

type item =
  | Route_map_update of { target : string; prompt : string }
  | Acl_update of { target : string; prompt : string }

type question =
  | Route_map_q of Disambiguator.question
  | Acl_q of Acl_disambiguator.question

type oracle = intent:int -> target:string -> question -> Disambig_common.answer

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

let error_to_string { intent; reason } =
  Printf.sprintf "intent %d: %s" intent (Pipeline.error_to_string reason)

let item_target = function
  | Route_map_update { target; _ } | Acl_update { target; _ } -> target

let item_kind = function
  | Route_map_update _ -> "route_map"
  | Acl_update _ -> "acl"

let item_prompt = function
  | Route_map_update { prompt; _ } | Acl_update { prompt; _ } -> prompt

let view = function
  | Route_map_q q -> Disambiguator.view q
  | Acl_q q -> Acl_disambiguator.view q

let coords = function
  | Route_map_q q -> (q.Disambiguator.position, q.boundary_seq)
  | Acl_q q -> (q.Acl_disambiguator.position, q.boundary_seq)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

(* The item targets [db] holds with no stanzas or rules. The printer
   writes no empty route-map, so [config] can drop them; replay
   re-creates every target on this list. *)
let empty_targets ~db items =
  List.filter_map
    (function
      | Route_map_update { target; _ } -> (
          match Config.Database.route_map db target with
          | Some { stanzas = []; _ } -> Some target
          | _ -> None)
      | Acl_update { target; _ } -> (
          match Config.Database.acl db target with
          | Some { rules = []; _ } -> Some target
          | _ -> None))
    items
  |> List.sort_uniq String.compare

let emit_session_start ~items ~rm_mode ~acl_mode ~max_attempts ~db =
  Telemetry.emit ~kind:"session_start" (fun () ->
      [
        ("pipeline", Json.String "batch");
        ("target", Json.String "*");
        ("prompt", Json.String (String.concat "\n" (List.map item_prompt items)));
        ("mode", Json.String (Disambig_common.mode_to_string rm_mode));
        ("acl_mode", Json.String (Disambig_common.mode_to_string acl_mode));
        ("max_attempts", Json.Int max_attempts);
        ("config", Json.String (Config.Parser.to_string db));
        ( "items",
          Json.List
            (List.map
               (fun it ->
                 Json.Obj
                   [
                     ("kind", Json.String (item_kind it));
                     ("target", Json.String (item_target it));
                     ("prompt", Json.String (item_prompt it));
                   ])
               items) );
      ]
      @
      match empty_targets ~db items with
      | [] -> []
      | ts ->
          [
            ( "empty_targets",
              Json.List (List.map (fun t -> Json.String t) ts) );
          ])

let emit_plan ~intents ~groups ~overlaps ~conflicts =
  Telemetry.emit ~kind:"batch_plan" (fun () ->
      [
        ("intents", Json.Int intents);
        ("groups", Json.Int groups);
        ("overlap_pairs", Json.Int overlaps);
        ("conflict_pairs", Json.Int (List.length conflicts));
        ( "conflicts",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("a", Json.Int c.intent_a);
                     ("b", Json.Int c.intent_b);
                     ("target", Json.String c.target);
                   ])
               conflicts) );
      ])

(* [fast_path] keeps its name so old logs still load: the intent
   overlaps no other intent of its batch. *)
let emit_item ~intent ~disjoint it =
  Telemetry.emit ~kind:"batch_item" (fun () ->
      [
        ("intent", Json.Int intent);
        ("kind", Json.String (item_kind it));
        ("target", Json.String (item_target it));
        ("fast_path", Json.Bool disjoint);
      ])

let emit_session_end result =
  Telemetry.emit ~kind:"session_end" (fun () ->
      match result with
      | Ok r ->
          [
            ("ok", Json.Bool true);
            ("config", Json.String (Config.Parser.to_string r.db));
          ]
      | Error e ->
          [ ("ok", Json.Bool false); ("error", Json.String (error_to_string e)) ])

(* ------------------------------------------------------------------ *)
(* Shared answer cache                                                *)
(* ------------------------------------------------------------------ *)

(* Wrap a per-question oracle consultation with the batch cache. The
   cache sits between the disambiguator's asker and the user: the
   question event is still emitted (telemetry parity with a sequential
   run), but a repeated question — same policy, same coordinates, same
   rendered content — is answered from the cache. The question is
   rendered only when an earlier one shares its coordinates. A
   "batch_cache_hit" marker is emitted BEFORE the asker's own question
   event so replay can tell which recorded answers never reached the
   user. *)
let cached_answer cache ~intent ~target ~coords view_of consult q =
  let position, boundary_seq = coords q in
  let v = lazy (view_of q) in
  match
    Disambig_common.Answer_cache.find_at cache ~policy:target ~position
      ~boundary_seq v
  with
  | Some a ->
      Obs.Counter.incr Engine.Metrics.batch_questions_saved;
      Telemetry.emit ~kind:"batch_cache_hit" (fun () ->
          [ ("intent", Json.Int intent); ("target", Json.String target) ]);
      a
  | None ->
      let a = consult q in
      Disambig_common.Answer_cache.add_at cache ~policy:target ~position
        ~boundary_seq v a;
      a

(* ------------------------------------------------------------------ *)
(* Phase 1: synthesize every intent                                   *)
(* ------------------------------------------------------------------ *)

type synth =
  | S_route_map of {
      target : string;
      draft : Pipeline.route_map_draft;
      llm_calls : int;
    }
  | S_acl of { target : string; draft : Pipeline.acl_draft; llm_calls : int }

exception Abort of error

let fail intent reason = raise (Abort { intent; reason })

(* Synthesize one intent against the accumulating database with the
   sequential pipeline's own front half — same target lookup,
   classification, spec extraction and verify-repair loop, in the same
   order — so the LLM call sequence (and any scheduled fault
   injections) lines up one-to-one with N sequential runs. Importing a
   route-map snippet only adds ancillary lists under fresh [D<k>]
   names; stanza insertions never mint list names, so the renamings
   are the ones a sequential run would produce too. *)
let synthesize_item ~llm ~max_attempts ~db k it =
  let calls_before = Llm.Mock_llm.total_calls llm in
  let llm_calls () = Llm.Mock_llm.total_calls llm - calls_before in
  match it with
  | Route_map_update { target; prompt } -> (
      match Pipeline.route_map_front ~llm ~max_attempts ~db ~target ~prompt with
      | Error e -> fail k e
      | Ok draft ->
          ( draft.imported,
            S_route_map { target; draft; llm_calls = llm_calls () } ))
  | Acl_update { target; prompt } -> (
      match Pipeline.acl_front ~llm ~max_attempts ~db ~target ~prompt with
      | Error e -> fail k e
      | Ok draft -> (db, S_acl { target; draft; llm_calls = llm_calls () }))

(* ------------------------------------------------------------------ *)
(* Phase 2: the conflict graph of each target policy                  *)
(* ------------------------------------------------------------------ *)

(* Group the indices of [xs] by [key], preserving first-seen order. *)
let group_by key xs =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun k x ->
      let key = key x in
      match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key [ k ]
      | Some ks -> Hashtbl.replace tbl key (k :: ks))
    xs;
  List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !order

(* One group's conflict edges, moved to the group's input indices. *)
let edges ks target witness conflicts =
  List.map
    (fun (i, j, d) ->
      { intent_a = ks.(i); intent_b = ks.(j); target; witness = witness d })
    conflicts

let in_input_order =
  List.sort (fun a b ->
      compare (a.intent_a, a.intent_b) (b.intent_a, b.intent_b))

(* Classify every group's graph. Returns the per-intent overlap flags,
   the conflict edges in input order, the overlapping pairs and the
   number of groups. *)
let classify_groups ~db synths =
  let overlapping = Array.make (Array.length synths) false in
  let conflicts = ref [] in
  let overlap_pairs = ref 0 in
  (* One group's graph, moved from group-local to input indices. *)
  let record ks target witness (overlaps, group_conflicts) =
    let ks = Array.of_list ks in
    List.iter
      (fun (i, j) ->
        incr overlap_pairs;
        overlapping.(ks.(i)) <- true;
        overlapping.(ks.(j)) <- true)
      overlaps;
    conflicts := edges ks target witness group_conflicts @ !conflicts
  in
  let groups =
    group_by
      (function
        | S_route_map { target; _ } -> ("route_map", target)
        | S_acl { target; _ } -> ("acl", target))
      synths
  in
  List.iter
    (fun ((_, target), ks) ->
      (* Targets were checked during synthesis. *)
      match synths.(List.hd ks) with
      | S_route_map _ ->
          record ks target
            (fun d -> Route_witness d)
            (Engine.Compare_route_policies.conflict_graph ~db
               ~target:(Option.get (Config.Database.route_map db target))
               (List.map
                  (fun k ->
                    match synths.(k) with
                    | S_route_map { draft; _ } -> draft.stanza
                    | S_acl _ -> assert false)
                  ks))
      | S_acl _ ->
          record ks target
            (fun d -> Acl_witness d)
            (Engine.Compare_acls.conflict_graph
               ~target:(Option.get (Config.Database.acl db target))
               (List.map
                  (fun k ->
                    match synths.(k) with
                    | S_acl { draft; _ } -> draft.rule
                    | S_route_map _ -> assert false)
                  ks)))
    groups;
  (overlapping, in_input_order !conflicts, !overlap_pairs, List.length groups)

(* ------------------------------------------------------------------ *)
(* The batch run                                                      *)
(* ------------------------------------------------------------------ *)

let default_max_attempts = Pipeline.default_max_attempts

let run ?(max_attempts = default_max_attempts)
    ?(rm_mode = Disambiguator.Binary_search)
    ?(acl_mode = Acl_disambiguator.Binary_search) ?pool:_ ~llm
    ~(oracle : oracle) ~db items =
  Obs.with_span "pipeline.batch" @@ fun () ->
  Obs.Counter.incr Pipeline.runs_counter;
  let nitems = List.length items in
  Obs.Counter.incr ~by:nitems Engine.Metrics.batch_intents;
  let t0 = Obs.now () in
  emit_session_start ~items ~rm_mode ~acl_mode ~max_attempts ~db;
  let calls_before = Llm.Mock_llm.total_calls llm in
  let cache = Disambig_common.Answer_cache.create () in
  let result =
    try
      (* Phase 1: synthesize everything, accumulating imported lists. *)
      let db_all, synths_rev =
        List.fold_left
          (fun (db, acc) (k, it) ->
            let db', s = synthesize_item ~llm ~max_attempts ~db k it in
            (db', s :: acc))
          (db, [])
          (List.mapi (fun k it -> (k, it)) items)
      in
      let synths = Array.of_list (List.rev synths_rev) in
      (* Phase 2: the conflict graph of each target policy. *)
      let overlapping, conflicts, overlap_pairs, groups =
        Obs.with_span "conflict_graph" (fun () ->
            classify_groups ~db:db_all synths)
      in
      emit_plan ~intents:nitems ~groups ~overlaps:overlap_pairs ~conflicts;
      (* Phase 3: place each intent in input order with the pipeline's
         back half, against the evolving database, every answer through
         the shared cache. *)
      let db_cur = ref db_all in
      let results =
        List.mapi
          (fun k it ->
            emit_item ~intent:k ~disjoint:(not overlapping.(k)) it;
            let db = !db_cur in
            let ask target =
              cached_answer cache ~intent:k ~target ~coords view
                (oracle ~intent:k ~target)
            in
            match synths.(k) with
            | S_route_map { target = name; draft; llm_calls } -> (
                let target = Option.get (Config.Database.route_map db name) in
                match
                  Pipeline.place_route_map ~mode:rm_mode ~db ~target ~llm_calls
                    ~oracle:(fun q -> ask name (Route_map_q q))
                    draft
                with
                | Error e -> fail k e
                | Ok r ->
                    db_cur := r.db;
                    Route_map_result r)
            | S_acl { target = name; draft; llm_calls } -> (
                let target = Option.get (Config.Database.acl db name) in
                match
                  Pipeline.place_acl ~mode:acl_mode ~db ~target ~llm_calls
                    ~oracle:(fun q -> ask name (Acl_q q))
                    draft
                with
                | Error e -> fail k e
                | Ok r ->
                    db_cur := r.db;
                    Acl_result r))
          items
      in
      Ok
        {
          db = !db_cur;
          items = results;
          conflicts;
          overlap_pairs;
          questions_saved = Disambig_common.Answer_cache.hits cache;
        }
    with Abort e -> Error e
  in
  Obs.Counter.incr Pipeline.llm_calls_counter
    ~by:(Llm.Mock_llm.total_calls llm - calls_before);
  (match result with
  | Error _ -> Obs.Counter.incr Pipeline.errors_counter
  | Ok _ -> ());
  Obs.Histogram.observe_ns Engine.Metrics.batch_ns ((Obs.now () -. t0) *. 1e9);
  emit_session_end result;
  result

(* ------------------------------------------------------------------ *)
(* Prefix-list batches                                                *)
(* ------------------------------------------------------------------ *)

type prefix_item = { target : string; entry : Config.Prefix_list.entry }

type prefix_report = {
  db : Config.Database.t;
  outcomes : Prefix_list_disambiguator.outcome list; (* in input order *)
  conflicts : conflict list;
  questions_saved : int;
}

(* Prefix-list entries are not LLM-synthesized, so the batch here is
   the live sequential loop plus the shared answer cache and each
   target's conflict graph, classified from the entries alone. *)
let insert_prefix_list_entries
    ~(oracle :
       intent:int ->
       target:string ->
       Prefix_list_disambiguator.question ->
       Disambig_common.answer) ~db items =
  Obs.with_span "pipeline.batch_prefix" @@ fun () ->
  let nitems = List.length items in
  Obs.Counter.incr ~by:nitems Engine.Metrics.batch_intents;
  let t0 = Obs.now () in
  let cache = Disambig_common.Answer_cache.create () in
  let items_arr = Array.of_list items in
  let conflicts =
    group_by (fun (it : prefix_item) -> it.target) items_arr
    |> List.concat_map (fun (target, ks) ->
           Prefix_list_disambiguator.conflict_graph
             (List.map (fun k -> items_arr.(k).entry) ks)
           |> snd
           |> edges (Array.of_list ks) target (fun p -> Prefix_witness p))
    |> in_input_order
  in
  let result =
    try
      let db_cur = ref db in
      let outcomes =
        List.mapi
          (fun k { target; entry } ->
            let cur =
              match Config.Database.prefix_list !db_cur target with
              | Some pl -> pl
              | None -> fail k (Pipeline.Target_not_found target)
            in
            let ask =
              cached_answer cache ~intent:k ~target
                ~coords:(fun (q : Prefix_list_disambiguator.question) ->
                  (q.position, q.boundary_seq))
                Prefix_list_disambiguator.view (fun q ->
                  oracle ~intent:k ~target q)
            in
            match
              Prefix_list_disambiguator.run ~target:cur ~entry
                ~oracle:ask ()
            with
            | Error (Prefix_list_disambiguator.Inconsistent_intent _) ->
                fail k Pipeline.inconsistent
            | Ok outcome ->
                db_cur :=
                  Config.Database.add_prefix_list !db_cur outcome.prefix_list;
                outcome)
          items
      in
      Ok
        {
          db = !db_cur;
          outcomes;
          conflicts;
          questions_saved = Disambig_common.Answer_cache.hits cache;
        }
    with Abort e -> Error e
  in
  Obs.Histogram.observe_ns Engine.Metrics.batch_ns ((Obs.now () -. t0) *. 1e9);
  result
