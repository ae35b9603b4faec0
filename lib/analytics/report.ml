(* The Figure-4 aggregator: per-router statistics recomputed from
   recorded session logs instead of ad hoc counters inside the
   evaluation harness. Everything in the Markdown and CSV renderings is
   deterministic (event counts and chars/4 token estimates), so reports
   can be committed as goldens and diffed in CI; wall-clock phase
   timings are confined to the JSON rendering. *)

module E = Telemetry.Event

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
  boundaries : int; (* summed over placement events *)
  retries : int; (* verify events with a non-"verified" verdict *)
  classify_calls : int;
  synthesize_calls : int;
  spec_calls : int;
  prompt_tokens : int;
  completion_tokens : int;
  cost_usd : float;
  phases : phase list; (* wall time per pipeline phase; JSON only *)
  boundary_ns : float; (* find_boundaries span time; JSON only *)
  batch_sessions : int; (* session_start with pipeline="batch" *)
  batch_intents : int; (* intents over all batch_plan events *)
  batch_conflict_pairs : int; (* genuine inter-intent conflict edges *)
  batch_fast_path : int; (* batch items overlapping no other intent *)
  batch_questions_saved : int; (* batch_cache_hit events *)
  gauges : (string * float) list; (* last "gauges" event; JSON only *)
  fleet : fleet_info option; (* E5 fleet runs only; JSON only *)
}

type t = { routers : router_stats list }

let llm_calls s = s.classify_calls + s.synthesize_calls + s.spec_calls

(* Phase attribution from span mirror events: the root span (depth 0)
   is the whole pipeline run, depth-1 spans are its phases (classify,
   spec_extract, synthesize, import, disambiguate), named by the last
   path segment. Deeper spans are details of a phase and would double
   count. *)
let phase_of_span e =
  match (E.int_field "depth" e, E.str_field "path" e) with
  | Some 0, Some _ -> Some "total"
  | Some 1, Some path ->
      let segs = String.split_on_char '.' path in
      Some (List.nth segs (List.length segs - 1))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The incremental accumulator: everything in router_stats, folded one
   event at a time in constant space. [add] consumes events in log
   order; [merge] combines two accumulators whose event ranges are
   ordered left-before-right, and is associative, so a pooled fold over
   file shards finishes byte-identically to a serial fold. Every report,
   streaming (Stream) or whole-file, goes through this fold, which is
   what makes them byte-for-byte interchangeable.                      *)
(* ------------------------------------------------------------------ *)

module Acc = struct
  type t = {
    events : int;
    sessions : int;
    targets : string list; (* sorted, deduplicated *)
    stanzas : int;
    questions : int;
    probes : int;
    boundaries : int;
    retries : int;
    classify : int;
    synthesize : int;
    spec : int;
    prompt_tokens : int;
    completion_tokens : int;
    phases : (string * phase) list; (* keyed assoc, order irrelevant *)
    boundary_ns : float;
    batch_sessions : int;
    batch_intents : int;
    batch_conflict_pairs : int;
    batch_fast_path : int;
    batch_questions_saved : int;
    gauges : (string * float) list;
    gauges_seen : bool; (* so merge can make the LAST gauges event win *)
    ctx_router : string option; (* first ctx "router" label *)
    fleet_role : string option; (* E5 fleet_router event *)
    fleet_steps : int;
    fleet_done : bool;
    fleet_wall_ns : float;
    last_ts_ns : float;
  }

  let empty =
    {
      events = 0;
      sessions = 0;
      targets = [];
      stanzas = 0;
      questions = 0;
      probes = 0;
      boundaries = 0;
      retries = 0;
      classify = 0;
      synthesize = 0;
      spec = 0;
      prompt_tokens = 0;
      completion_tokens = 0;
      phases = [];
      boundary_ns = 0.;
      batch_sessions = 0;
      batch_intents = 0;
      batch_conflict_pairs = 0;
      batch_fast_path = 0;
      batch_questions_saved = 0;
      gauges = [];
      gauges_seen = false;
      ctx_router = None;
      fleet_role = None;
      fleet_steps = 0;
      fleet_done = false;
      fleet_wall_ns = 0.;
      last_ts_ns = 0.;
    }

  let duration_ns e =
    match E.field "duration_ns" e with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None

  let insert_target targets t =
    (* Sorted insertion keeps the set small (distinct route-maps per
       router) and the representation canonical for merge. *)
    let rec go = function
      | [] -> [ t ]
      | x :: rest as l ->
          let c = String.compare t x in
          if c < 0 then t :: l else if c = 0 then l else x :: go rest
    in
    go targets

  let int_field f e = Option.value ~default:0 (E.int_field f e)

  let add_target acc e =
    match E.str_field "target" e with
    | Some t -> { acc with targets = insert_target acc.targets t }
    | None -> acc

  let add acc e =
    let acc =
      {
        acc with
        events = acc.events + 1;
        last_ts_ns = Float.max acc.last_ts_ns e.E.ts_ns;
        ctx_router =
          (match acc.ctx_router with
          | Some _ as r -> r
          | None -> List.assoc_opt "router" e.E.ctx);
      }
    in
    match e.E.kind with
    | "session_start" ->
        (* A batch session's policies are its items' targets, counted
           at its batch_item events, not its "*" target. *)
        let batch = E.str_field "pipeline" e = Some "batch" in
        let acc = if batch then acc else add_target acc e in
        {
          acc with
          sessions = acc.sessions + 1;
          batch_sessions = acc.batch_sessions + Bool.to_int batch;
        }
    | "placement" ->
        {
          acc with
          stanzas = acc.stanzas + 1;
          boundaries = acc.boundaries + int_field "boundaries" e;
        }
    | "question" -> { acc with questions = acc.questions + 1 }
    | "probe" -> { acc with probes = acc.probes + 1 }
    | "verify" ->
        if E.str_field "verdict" e <> Some "verified" then
          { acc with retries = acc.retries + 1 }
        else acc
    | "llm_classify" ->
        {
          acc with
          classify = acc.classify + 1;
          prompt_tokens = acc.prompt_tokens + int_field "prompt_tokens" e;
          completion_tokens =
            acc.completion_tokens + int_field "completion_tokens" e;
        }
    | "llm_synthesize" ->
        {
          acc with
          synthesize = acc.synthesize + 1;
          prompt_tokens = acc.prompt_tokens + int_field "prompt_tokens" e;
          completion_tokens =
            acc.completion_tokens + int_field "completion_tokens" e;
        }
    | "llm_spec" ->
        {
          acc with
          spec = acc.spec + 1;
          prompt_tokens = acc.prompt_tokens + int_field "prompt_tokens" e;
          completion_tokens =
            acc.completion_tokens + int_field "completion_tokens" e;
        }
    | "span" ->
        let acc =
          match (E.str_field "path" e, duration_ns e) with
          | Some path, Some d
            when String.ends_with ~suffix:"find_boundaries" path ->
              { acc with boundary_ns = acc.boundary_ns +. d }
          | _ -> acc
        in
        (match (phase_of_span e, duration_ns e) with
        | Some name, Some d ->
            let cur =
              Option.value
                ~default:{ phase = name; total_ns = 0.; count = 0 }
                (List.assoc_opt name acc.phases)
            in
            {
              acc with
              phases =
                ( name,
                  {
                    cur with
                    total_ns = cur.total_ns +. d;
                    count = cur.count + 1;
                  } )
                :: List.remove_assoc name acc.phases;
            }
        | _ -> acc)
    | "batch_plan" ->
        {
          acc with
          batch_intents = acc.batch_intents + int_field "intents" e;
          batch_conflict_pairs =
            acc.batch_conflict_pairs + int_field "conflict_pairs" e;
        }
    | "batch_item" ->
        let acc = add_target acc e in
        if E.field "fast_path" e = Some (Json.Bool true) then
          { acc with batch_fast_path = acc.batch_fast_path + 1 }
        else acc
    | "batch_cache_hit" ->
        { acc with batch_questions_saved = acc.batch_questions_saved + 1 }
    | "gauges" ->
        (* Runtime state sampled when the session closed; the last
           gauges event wins when several sessions merge into one
           router row. JSON-only, like the phase timings. *)
        {
          acc with
          gauges_seen = true;
          gauges =
            List.filter_map
              (fun (n, v) ->
                match v with
                | Json.Float f -> Some (n, f)
                | Json.Int i -> Some (n, float_of_int i)
                | _ -> None)
              e.E.fields;
        }
    | "fleet_router" ->
        {
          acc with
          fleet_role = Some (Option.value ~default:"" (E.str_field "role" e));
          fleet_steps = int_field "steps" e;
        }
    | "fleet_router_done" ->
        let wall =
          match E.field "wall_ns" e with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> 0.
        in
        { acc with fleet_done = true; fleet_wall_ns = wall }
    | _ -> acc

  (* [merge a b] where a's events precede b's. *)
  let merge a b =
    let merge_phases pa pb =
      List.fold_left
        (fun acc (name, (p : phase)) ->
          let cur =
            Option.value ~default:{ phase = name; total_ns = 0.; count = 0 }
              (List.assoc_opt name acc)
          in
          ( name,
            {
              cur with
              total_ns = cur.total_ns +. p.total_ns;
              count = cur.count + p.count;
            } )
          :: List.remove_assoc name acc)
        pa pb
    in
    let merge_targets ta tb = List.fold_left insert_target ta tb in
    {
      events = a.events + b.events;
      sessions = a.sessions + b.sessions;
      targets = merge_targets a.targets b.targets;
      stanzas = a.stanzas + b.stanzas;
      questions = a.questions + b.questions;
      probes = a.probes + b.probes;
      boundaries = a.boundaries + b.boundaries;
      retries = a.retries + b.retries;
      classify = a.classify + b.classify;
      synthesize = a.synthesize + b.synthesize;
      spec = a.spec + b.spec;
      prompt_tokens = a.prompt_tokens + b.prompt_tokens;
      completion_tokens = a.completion_tokens + b.completion_tokens;
      phases = merge_phases a.phases b.phases;
      boundary_ns = a.boundary_ns +. b.boundary_ns;
      batch_sessions = a.batch_sessions + b.batch_sessions;
      batch_intents = a.batch_intents + b.batch_intents;
      batch_conflict_pairs = a.batch_conflict_pairs + b.batch_conflict_pairs;
      batch_fast_path = a.batch_fast_path + b.batch_fast_path;
      batch_questions_saved =
        a.batch_questions_saved + b.batch_questions_saved;
      gauges = (if b.gauges_seen then b.gauges else a.gauges);
      gauges_seen = a.gauges_seen || b.gauges_seen;
      ctx_router = (match a.ctx_router with Some _ -> a.ctx_router | None -> b.ctx_router);
      fleet_role = (match a.fleet_role with Some _ -> a.fleet_role | None -> b.fleet_role);
      fleet_steps = max a.fleet_steps b.fleet_steps;
      fleet_done = a.fleet_done || b.fleet_done;
      fleet_wall_ns = Float.max a.fleet_wall_ns b.fleet_wall_ns;
      last_ts_ns = Float.max a.last_ts_ns b.last_ts_ns;
    }

  let events acc = acc.events
  let last_ts_ns acc = acc.last_ts_ns
  let questions acc = acc.questions
  let stanzas acc = acc.stanzas

  let finish ~router acc =
    {
      router;
      sessions = acc.sessions;
      route_maps = List.length acc.targets;
      stanzas = acc.stanzas;
      questions = acc.questions;
      probes = acc.probes;
      boundaries = acc.boundaries;
      retries = acc.retries;
      classify_calls = acc.classify;
      synthesize_calls = acc.synthesize;
      spec_calls = acc.spec;
      prompt_tokens = acc.prompt_tokens;
      completion_tokens = acc.completion_tokens;
      cost_usd =
        Llm.Tokens.cost ~prompt_tokens:acc.prompt_tokens
          ~completion_tokens:acc.completion_tokens;
      phases =
        List.map snd acc.phases
        |> List.sort (fun a b -> String.compare a.phase b.phase);
      boundary_ns = acc.boundary_ns;
      batch_sessions = acc.batch_sessions;
      batch_intents = acc.batch_intents;
      batch_conflict_pairs = acc.batch_conflict_pairs;
      batch_fast_path = acc.batch_fast_path;
      batch_questions_saved = acc.batch_questions_saved;
      gauges = acc.gauges;
      fleet =
        (match acc.fleet_role with
        | None -> None
        | Some role ->
            Some
              {
                role;
                steps_planned = acc.fleet_steps;
                completed = acc.fleet_done;
                wall_ns = acc.fleet_wall_ns;
              });
    }
end

(* Accumulators for the same router (one log per policy step, say)
   merge into one row in input order; rows sort by router name so
   output order never depends on argument or readdir order. *)
let of_accs named =
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (fallback, acc) ->
      let r = Option.value ~default:fallback acc.Acc.ctx_router in
      (match Hashtbl.find_opt groups r with
      | None ->
          order := r :: !order;
          Hashtbl.replace groups r acc
      | Some prev -> Hashtbl.replace groups r (Acc.merge prev acc)))
    named;
  let routers =
    List.rev_map
      (fun router -> Acc.finish ~router (Hashtbl.find groups router))
      !order
    |> List.sort (fun a b -> String.compare a.router b.router)
  in
  { routers }

(* ------------------------------------------------------------------ *)
(* Renderings                                                         *)
(* ------------------------------------------------------------------ *)

let figure4_markdown t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "| Router | Route-maps | Stanzas | Synthesis calls | Questions | \
     Boundaries | Retries |\n";
  Buffer.add_string b "|---|---:|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %d | %d | %d | %d |\n" s.router
           s.route_maps s.stanzas s.synthesize_calls s.questions s.boundaries
           s.retries))
    t.routers;
  Buffer.contents b

let cost_markdown t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "| Router | LLM calls | Classify | Synthesize | Spec | Prompt tokens | \
     Completion tokens | Est. cost (USD) |\n";
  Buffer.add_string b "|---|---:|---:|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %d | %d | %d | %d | %.6f |\n"
           s.router (llm_calls s) s.classify_calls s.synthesize_calls
           s.spec_calls s.prompt_tokens s.completion_tokens s.cost_usd))
    t.routers;
  Buffer.contents b

(* Only rendered when batch sessions are present: E4's and E5's logs
   and [clarify batch] recordings, not single-intent [update] logs. *)
let batch_markdown t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "| Router | Batch sessions | Intents | Conflict pairs | Disjoint \
     intents | Questions saved |\n";
  Buffer.add_string b "|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %d | %d | %d |\n" s.router
           s.batch_sessions s.batch_intents s.batch_conflict_pairs
           s.batch_fast_path s.batch_questions_saved))
    t.routers;
  Buffer.contents b

let to_markdown t =
  "# Session report\n\n## Figure 4: per-router interaction counts\n\n"
  ^ figure4_markdown t ^ "\n## LLM usage and estimated cost\n\n"
  ^ cost_markdown t
  ^
  if List.exists (fun s -> s.batch_sessions > 0) t.routers then
    "\n## Batch intents\n\n" ^ batch_markdown t
  else ""

let to_csv t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "router,sessions,route_maps,stanzas,questions,probes,boundaries,retries,\
     classify_calls,synthesize_calls,spec_calls,prompt_tokens,\
     completion_tokens,cost_usd,batch_sessions,batch_intents,\
     batch_conflict_pairs,batch_fast_path,batch_questions_saved\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%d\n"
           s.router s.sessions s.route_maps s.stanzas s.questions s.probes
           s.boundaries s.retries s.classify_calls s.synthesize_calls
           s.spec_calls s.prompt_tokens s.completion_tokens s.cost_usd
           s.batch_sessions s.batch_intents s.batch_conflict_pairs
           s.batch_fast_path s.batch_questions_saved))
    t.routers;
  Buffer.contents b

let to_json t =
  Json.Obj
    [
      ( "routers",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("router", Json.String s.router);
                   ("sessions", Json.Int s.sessions);
                   ("route_maps", Json.Int s.route_maps);
                   ("stanzas", Json.Int s.stanzas);
                   ("questions", Json.Int s.questions);
                   ("probes", Json.Int s.probes);
                   ("boundaries", Json.Int s.boundaries);
                   ("retries", Json.Int s.retries);
                   ("classify_calls", Json.Int s.classify_calls);
                   ("synthesize_calls", Json.Int s.synthesize_calls);
                   ("spec_calls", Json.Int s.spec_calls);
                   ("llm_calls", Json.Int (llm_calls s));
                   ("prompt_tokens", Json.Int s.prompt_tokens);
                   ("completion_tokens", Json.Int s.completion_tokens);
                   ("cost_usd", Json.Float s.cost_usd);
                   ("batch_sessions", Json.Int s.batch_sessions);
                   ("batch_intents", Json.Int s.batch_intents);
                   ("batch_conflict_pairs", Json.Int s.batch_conflict_pairs);
                   ("batch_fast_path", Json.Int s.batch_fast_path);
                   ( "batch_questions_saved",
                     Json.Int s.batch_questions_saved );
                   ("boundary_ns", Json.Float s.boundary_ns);
                   ( "boundary_ns_per_question",
                     Json.Float
                       (s.boundary_ns /. float_of_int (max 1 s.questions)) );
                   ( "gauges",
                     Json.Obj
                       (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges) );
                   ( "fleet",
                     match s.fleet with
                     | None -> Json.Null
                     | Some f ->
                         Json.Obj
                           [
                             ("role", Json.String f.role);
                             ("steps_planned", Json.Int f.steps_planned);
                             ("completed", Json.Bool f.completed);
                             ("wall_ns", Json.Float f.wall_ns);
                           ] );
                   ( "phases",
                     Json.List
                       (List.map
                          (fun p ->
                            Json.Obj
                              [
                                ("phase", Json.String p.phase);
                                ("total_ns", Json.Float p.total_ns);
                                ("count", Json.Int p.count);
                              ])
                          s.phases) );
                 ])
             t.routers) );
    ]
