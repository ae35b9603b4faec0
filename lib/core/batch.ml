(** Conflict-aware batch intent synthesis (DESIGN.md §12).

    A batch run takes N natural-language intents at once and reproduces
    exactly what N sequential pipeline runs would do — same final
    configuration, same questions — while doing strictly less symbolic
    work and consulting the user strictly less often:

    - every intent is synthesized and verified up front with the same
      LLM loops as {!Pipeline} (same call order, same repair behaviour);
    - per target policy, ONE multi-stanza engine sweep
      ({!Engine.Compare_route_policies.batch_insertions} /
      {!Engine.Compare_acls.batch_insertions}) computes every intent's
      boundary set plus the pairwise inter-intent overlap/conflict
      graph against a single compiled first-match partition;
    - intents with no overlap edge to any other intent take a fast
      path: their precomputed boundaries are translated into the
      coordinates of the evolving target (match-disjointness makes the
      translation exact — see DESIGN.md §12) and fed to the
      disambiguator as [?precomputed], so no further compilation
      happens;
    - intents that do overlap go through a live disambiguation against
      the current target — that is where genuine inter-intent conflicts
      surface as boundary questions carrying differential witnesses;
    - a shared {!Disambig_common.Answer_cache} (keyed on policy AND
      position, not just text) answers repeated questions across
      intents without consulting the user again.

    Intents are processed in input order, which is a topological order
    of the conflict graph when edges are oriented from earlier to later
    intents: a later intent's questions are always asked against a
    configuration that already contains every earlier stanza, so each
    conflict is resolved exactly once, by the later party. *)

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

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

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

let emit_item ~intent ~fast it =
  Telemetry.emit ~kind:"batch_item" (fun () ->
      [
        ("intent", Json.Int intent);
        ("kind", Json.String (item_kind it));
        ("target", Json.String (item_target it));
        ("fast_path", Json.Bool fast);
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
   rendered content — is answered from the cache. A "batch_cache_hit"
   marker is emitted BEFORE the asker's own question event so replay
   can tell which recorded answers never reached the user. *)
let cached_answer cache ~intent ~target view_of consult q =
  let v = view_of q in
  match Disambig_common.Answer_cache.find cache ~policy:target v with
  | Some a ->
      Obs.Counter.incr Engine.Metrics.batch_questions_saved;
      Telemetry.emit ~kind:"batch_cache_hit" (fun () ->
          [ ("intent", Json.Int intent); ("target", Json.String target) ]);
      a
  | None ->
      let a = consult q in
      Disambig_common.Answer_cache.add cache ~policy:target v a;
      a

(* ------------------------------------------------------------------ *)
(* Phase 1: synthesize every intent                                   *)
(* ------------------------------------------------------------------ *)

type synth =
  | S_route_map of {
      target : string;
      stanza : Config.Route_map.stanza;
      spec : Engine.Spec.t;
      renaming : (string * string) list;
      attempts : int;
      history : string list;
      llm_calls : int;
    }
  | S_acl of {
      target : string;
      rule : Config.Acl.rule;
      attempts : int;
      history : string list;
      llm_calls : int;
    }

exception Abort of error

let fail intent reason = raise (Abort { intent; reason })

(* Synthesize one intent against the accumulating database, exactly as
   the sequential pipeline would: same target lookup, classification,
   spec extraction and verify-repair loop, in the same order — so the
   LLM call sequence (and any scheduled fault injections) lines up
   one-to-one with N sequential runs. Importing a route-map snippet
   only adds ancillary lists under fresh [D<k>] names; stanza
   insertions never mint list names, so the renamings are the ones a
   sequential run would produce too. *)
let synthesize_item ~llm ~max_attempts ~db k it =
  let calls_before = Llm.Mock_llm.total_calls llm in
  match it with
  | Route_map_update { target; prompt } -> (
      (match Config.Database.route_map db target with
      | None -> fail k (Pipeline.Target_not_found target)
      | Some _ -> ());
      match
        Obs.with_span "classify" (fun () -> Llm.Mock_llm.classify llm prompt)
      with
      | `Acl ->
          fail k
            (Pipeline.Wrong_query_type { expected = "route-map"; got = "acl" })
      | `Route_map -> (
          let entry = Llm.Prompt_db.retrieve `Route_map in
          match
            Obs.with_span "spec_extract" (fun () ->
                Llm.Mock_llm.generate_spec llm prompt)
          with
          | Error m -> fail k (Pipeline.Spec_error m)
          | Ok spec -> (
              match
                Pipeline.synthesis_loop llm ~max_attempts ~entry ~prompt ~spec
              with
              | Error e -> fail k e
              | Ok (snippet, rm, attempts, history) -> (
                  match
                    Obs.with_span "import" (fun () ->
                        Naming.import_route_map_snippet ~db ~snippet rm)
                  with
                  | Error m -> fail k (Pipeline.Snippet_shape m)
                  | Ok { Naming.db = db'; stanza; renaming } ->
                      ( db',
                        S_route_map
                          {
                            target;
                            stanza;
                            spec;
                            renaming;
                            attempts;
                            history;
                            llm_calls =
                              Llm.Mock_llm.total_calls llm - calls_before;
                          } )))))
  | Acl_update { target; prompt } -> (
      (match Config.Database.acl db target with
      | None -> fail k (Pipeline.Target_not_found target)
      | Some _ -> ());
      match
        Obs.with_span "classify" (fun () -> Llm.Mock_llm.classify llm prompt)
      with
      | `Route_map ->
          fail k
            (Pipeline.Wrong_query_type { expected = "acl"; got = "route-map" })
      | `Acl -> (
          let entry = Llm.Prompt_db.retrieve `Acl in
          match Pipeline.acl_synthesis_loop llm ~max_attempts ~entry ~prompt with
          | Error e -> fail k e
          | Ok (rule, attempts, history) ->
              ( db,
                S_acl
                  {
                    target;
                    rule;
                    attempts;
                    history;
                    llm_calls = Llm.Mock_llm.total_calls llm - calls_before;
                  } )))

(* ------------------------------------------------------------------ *)
(* Phase 2: one engine sweep per target policy                        *)
(* ------------------------------------------------------------------ *)

(* Group intent indices by (kind, target), preserving first-seen order. *)
let group_targets synths =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun k s ->
      let key =
        match s with
        | S_route_map { target; _ } -> ("route_map", target)
        | S_acl { target; _ } -> ("acl", target)
      in
      match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key [ k ]
      | Some ks -> Hashtbl.replace tbl key (k :: ks))
    synths;
  List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !order

(* Run the multi-stanza engine sweep for every group. Returns the
   per-intent boundary sets (original-target coordinates), the
   per-intent overlap flags, and the conflict edges in input order. *)
let sweep_groups ?pool ~db synths =
  let n = Array.length synths in
  let rm_bounds = Array.make n [] in
  let acl_bounds = Array.make n [] in
  let overlapping = Array.make n false in
  let conflicts = ref [] in
  let overlap_pairs = ref 0 in
  (* One group's sweep, moved from group-local to input indices. *)
  let record ks target bounds witness per_candidate overlaps group_conflicts =
    let ks = Array.of_list ks in
    Array.iteri (fun local k -> bounds.(k) <- per_candidate.(local)) ks;
    List.iter
      (fun (i, j) ->
        incr overlap_pairs;
        overlapping.(ks.(i)) <- true;
        overlapping.(ks.(j)) <- true)
      overlaps;
    List.iter
      (fun (i, j, d) ->
        conflicts :=
          { intent_a = ks.(i); intent_b = ks.(j); target; witness = witness d }
          :: !conflicts)
      group_conflicts
  in
  let groups = group_targets synths in
  List.iter
    (fun ((kind, target), ks) ->
      (* Targets were checked during synthesis. *)
      if kind = "route_map" then
        let stanzas =
          List.map
            (fun k ->
              match synths.(k) with
              | S_route_map { stanza; _ } -> stanza
              | S_acl _ -> assert false)
            ks
        in
        let sw =
          Engine.Compare_route_policies.batch_insertions ?pool ~db
            ~target:(Option.get (Config.Database.route_map db target))
            stanzas
        in
        record ks target rm_bounds
          (fun d -> Route_witness d)
          sw.per_candidate sw.overlaps sw.conflicts
      else
        let rules =
          List.map
            (fun k ->
              match synths.(k) with
              | S_acl { rule; _ } -> rule
              | S_route_map _ -> assert false)
            ks
        in
        let sw =
          Engine.Compare_acls.batch_insertions ?pool
            ~target:(Option.get (Config.Database.acl db target))
            rules
        in
        record ks target acl_bounds
          (fun d -> Acl_witness d)
          sw.per_candidate sw.overlaps sw.conflicts)
    groups;
  let conflicts =
    List.sort
      (fun a b ->
        match compare a.intent_a b.intent_a with
        | 0 -> compare a.intent_b b.intent_b
        | c -> c)
      !conflicts
  in
  (rm_bounds, acl_bounds, overlapping, conflicts, !overlap_pairs, List.length groups)

(* ------------------------------------------------------------------ *)
(* Phase 3: place every stanza, in input order                        *)
(* ------------------------------------------------------------------ *)

(* The evolving shape of one target policy: which current slot holds
   which original rule. [New] slots are earlier batch insertions;
   original positions shift past them when precomputed boundaries are
   translated to current coordinates. *)
type slot = Orig of int | New

let rec insert_slot slots p =
  if p = 0 then New :: slots
  else
    match slots with
    | [] -> [ New ]
    | s :: rest -> s :: insert_slot rest (p - 1)

(* Current index of each original position, for boundary translation.
   Only valid for match-disjoint (fast-path) intents: their boundary
   regions are untouched by the [New] rules they skip over. *)
let orig_index slots =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun idx -> function Orig i -> Hashtbl.add tbl i idx | New -> ())
    slots;
  fun i -> Hashtbl.find tbl i

(* Place one verified stanza or rule as the sequential pipeline would,
   against the current policy ([width] rules) of the target [key]. A
   fast-path intent hands in its [bounds] from the shared sweep: they
   are translated through the target's slot list to current positions
   and rebuilt by [question]. Every answer goes through the shared
   cache. [run precomputed ask] runs the family's disambiguator and
   [placed] reads (position, boundaries, questions) off its outcome. *)
let place_item ~cache ~slots ~intent ~key ~width ~bounds ~question ~view
    ~consult ~placed run =
  let st =
    match Hashtbl.find_opt slots key with
    | Some st -> st
    | None -> List.init width (fun i -> Orig i)
  in
  let precomputed =
    Option.map
      (fun bs ->
        let idx = orig_index st in
        List.map (fun (i, d) -> question (idx i) d) bs)
      bounds
  in
  let ask = cached_answer cache ~intent ~target:(snd key) view consult in
  match run precomputed ask with
  | Error _ -> fail intent Pipeline.inconsistent
  | Ok outcome ->
      let position, boundaries, questions = placed outcome in
      Pipeline.emit_placement ~position ~boundaries ~questions;
      Hashtbl.replace slots key (insert_slot st position);
      outcome

(* ------------------------------------------------------------------ *)
(* The batch run                                                      *)
(* ------------------------------------------------------------------ *)

let default_max_attempts = Pipeline.default_max_attempts

let run ?(max_attempts = default_max_attempts)
    ?(rm_mode = Disambiguator.Binary_search)
    ?(acl_mode = Acl_disambiguator.Binary_search) ?pool ~llm ~(oracle : oracle)
    ~db items =
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
      (* Phase 2: one engine sweep per target policy. *)
      let rm_bounds, acl_bounds, overlapping, conflicts, overlap_pairs, groups
          =
        Obs.with_span "batch_sweep" (fun () ->
            sweep_groups ?pool ~db:db_all synths)
      in
      emit_plan ~intents:nitems ~groups ~overlaps:overlap_pairs ~conflicts;
      (* Phase 3: place stanzas in input order, reading each target's
         current policy from the evolving database. *)
      let slots = Hashtbl.create 4 in
      let db_cur = ref db_all in
      let results =
        List.mapi
          (fun k it ->
            let fast = not overlapping.(k) in
            emit_item ~intent:k ~fast it;
            let bounds all = if fast then Some all.(k) else None in
            match synths.(k) with
            | S_route_map
                { target; stanza; spec; renaming; attempts; history; llm_calls }
              ->
                let cur =
                  Option.get (Config.Database.route_map !db_cur target)
                in
                let stanzas = Array.of_list cur.Config.Route_map.stanzas in
                let o =
                  place_item ~cache ~slots ~intent:k ~key:("route_map", target)
                    ~width:(Array.length stanzas) ~bounds:(bounds rm_bounds)
                    ~question:(Disambiguator.question stanzas)
                    ~view:Disambiguator.view
                    ~consult:(fun q -> oracle ~intent:k ~target (Route_map_q q))
                    ~placed:(fun (o : Disambiguator.outcome) ->
                      (o.position, o.boundaries, List.length o.questions))
                    (fun precomputed ask ->
                      Disambiguator.run ~mode:rm_mode ?pool ?precomputed
                        ~db:!db_cur ~target:cur ~stanza ~oracle:ask ())
                in
                db_cur := Config.Database.add_route_map !db_cur o.map;
                Route_map_result
                  {
                    Pipeline.db = !db_cur;
                    map = o.map;
                    spec;
                    stanza;
                    renaming;
                    synthesis_attempts = attempts;
                    verification_history = history;
                    llm_calls;
                    questions = o.questions;
                    position = o.position;
                    boundaries = o.boundaries;
                  }
            | S_acl { target; rule; attempts; history; llm_calls } ->
                let cur = Option.get (Config.Database.acl !db_cur target) in
                let rules = Array.of_list cur.Config.Acl.rules in
                let o =
                  place_item ~cache ~slots ~intent:k ~key:("acl", target)
                    ~width:(Array.length rules) ~bounds:(bounds acl_bounds)
                    ~question:(Acl_disambiguator.question rules)
                    ~view:Acl_disambiguator.view
                    ~consult:(fun q -> oracle ~intent:k ~target (Acl_q q))
                    ~placed:(fun (o : Acl_disambiguator.outcome) ->
                      (o.position, o.boundaries, List.length o.questions))
                    (fun precomputed ask ->
                      Acl_disambiguator.run ~mode:acl_mode ?pool ?precomputed
                        ~target:cur ~rule ~oracle:ask ())
                in
                db_cur := Config.Database.add_acl !db_cur o.acl;
                Acl_result
                  {
                    Pipeline.db = !db_cur;
                    acl = o.acl;
                    rule;
                    synthesis_attempts = attempts;
                    verification_history = history;
                    llm_calls;
                    questions = o.questions;
                    position = o.position;
                    boundaries = o.boundaries;
                  })
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

(* Prefix-list entries are not LLM-synthesized, and the prefix
   disambiguator's boundary scan is interval arithmetic (no symbolic
   compilation), so the batch here is the live sequential loop plus the
   shared answer cache and the pairwise conflict graph: entry pairs
   whose ranges share a matched prefix and whose actions differ, with
   the overlap witness prefix. *)
let insert_prefix_list_entries ?(mode = Prefix_list_disambiguator.Binary_search)
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
  (* Pairwise inter-intent conflicts, per target. *)
  let conflicts = ref [] in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if
            i < j && a.target = b.target
            && not
                 (Config.Action.equal a.entry.Config.Prefix_list.action
                    b.entry.Config.Prefix_list.action)
          then
            match
              Netaddr.Prefix_range.witness_overlap
                a.entry.Config.Prefix_list.range
                b.entry.Config.Prefix_list.range
            with
            | None -> ()
            | Some p ->
                conflicts :=
                  {
                    intent_a = i;
                    intent_b = j;
                    target = a.target;
                    witness = Prefix_witness p;
                  }
                  :: !conflicts)
        items_arr)
    items_arr;
  let conflicts = List.rev !conflicts in
  Obs.Counter.incr ~by:(List.length conflicts) Engine.Metrics.batch_conflict_pairs;
  let result =
    try
      let db_cur = ref db in
      let states : (string, Config.Prefix_list.t) Hashtbl.t =
        Hashtbl.create 4
      in
      let outcomes =
        List.mapi
          (fun k { target; entry } ->
            let cur =
              match Hashtbl.find_opt states target with
              | Some pl -> pl
              | None -> (
                  match Config.Database.prefix_list !db_cur target with
                  | Some pl -> pl
                  | None -> fail k (Pipeline.Target_not_found target))
            in
            let ask =
              cached_answer cache ~intent:k ~target
                Prefix_list_disambiguator.view (fun q ->
                  oracle ~intent:k ~target q)
            in
            match
              Prefix_list_disambiguator.run ~mode ~target:cur ~entry
                ~oracle:ask ()
            with
            | Error (Prefix_list_disambiguator.Inconsistent_intent _) ->
                fail k Pipeline.inconsistent
            | Ok outcome ->
                Hashtbl.replace states target
                  outcome.Prefix_list_disambiguator.prefix_list;
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
