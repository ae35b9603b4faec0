(* Closed-loop driving of one intent, from outside the program.

   Untimed paths call the public pipelines ({!Clarify.Pipeline},
   {!Clarify.Batch}, {!Evaluation.E5_fleet}); the only hook the
   benchmark has is the oracle it hands them, which is where the
   user-felt clock below reads question waits. The traced paths drive
   the same intent through each layer's public function in pipeline
   order (classify, spec, synthesize/parse/verify repair loop, import,
   sweep, placement) inside {!Layer} spans. *)

let now = Layer.now

(* ------------------------------------------------------------------ *)
(* The user-felt clock of one submission                               *)
(* ------------------------------------------------------------------ *)

type clock = {
  submit : float;
  mutable last : float; (* submission or the previous answer *)
  mutable oracle_s : float; (* time spent inside the simulated user *)
  mutable first_q : float option; (* first question's wait, user time excluded *)
  mutable waits : float list;
}

let start () =
  let t = now () in
  { submit = t; last = t; oracle_s = 0.; first_q = None; waits = [] }

(* Wrap an oracle: every question records its wait since submission or
   since the previous answer, and the user's own time is set aside. *)
let ask clk oracle q =
  let t = now () in
  if clk.first_q = None then clk.first_q <- Some (t -. clk.submit -. clk.oracle_s);
  clk.waits <- (t -. clk.last) :: clk.waits;
  let a = oracle q in
  let t' = now () in
  clk.oracle_s <- clk.oracle_s +. (t' -. t);
  clk.last <- t';
  a

(* Samples of one or many units of work, in seconds. *)
type samples = {
  mutable intents : int;
  mutable failed : int;
  mutable questions : int; (* questions the user answered *)
  mutable llm_calls : int;
  intent_s : Stats.Series.t; (* submission to placed config, user time excluded *)
  first_q_s : Stats.Series.t;
  wait_s : Stats.Series.t;
  unit_s : Stats.Series.t; (* router / session wall *)
}

let samples () =
  {
    intents = 0;
    failed = 0;
    questions = 0;
    llm_calls = 0;
    intent_s = Stats.Series.create ();
    first_q_s = Stats.Series.create ();
    wait_s = Stats.Series.create ();
    unit_s = Stats.Series.create ();
  }

(* Close a submission that placed [intents] intents. A batch's intents
   all wait for the batch, so a submission is one latency sample. *)
let finish s clk ~intents =
  s.intents <- s.intents + intents;
  s.questions <- s.questions + List.length clk.waits;
  Stats.Series.add s.intent_s (now () -. clk.submit -. clk.oracle_s);
  Option.iter (Stats.Series.add s.first_q_s) clk.first_q;
  List.iter (Stats.Series.add s.wait_s) (List.rev clk.waits)

(* Multiply every time in [s] by [k]. *)
let scale s k =
  List.iter (fun x -> Stats.Series.scale x k) [ s.intent_s; s.first_q_s; s.wait_s; s.unit_s ]

(* Add the samples of [ss] to [out]. *)
let merge_into out ss =
  List.iter
    (fun s ->
      out.intents <- out.intents + s.intents;
      out.failed <- out.failed + s.failed;
      out.questions <- out.questions + s.questions;
      out.llm_calls <- out.llm_calls + s.llm_calls;
      Stats.Series.append out.intent_s s.intent_s;
      Stats.Series.append out.first_q_s s.first_q_s;
      Stats.Series.append out.wait_s s.wait_s;
      Stats.Series.append out.unit_s s.unit_s)
    ss

let merge ss =
  let out = samples () in
  merge_into out ss;
  out

(* ------------------------------------------------------------------ *)
(* Traced units                                                        *)
(* ------------------------------------------------------------------ *)

type tr = {
  acc : Layer.acc;
  mutable attempts : int; (* synthesis attempts *)
  mutable verified : int; (* attempts that verified *)
  mutable lookups : int; (* questions put to the answer cache *)
  mutable hits : int; (* of which answered from it *)
  mutable conflicts : int; (* inter-intent conflict pairs *)
  mutable batch_sweep_s : float list;
  mutable bdd : Symbdd.Bdd.Manager.stats list; (* one per manager, after minus before *)
  mutable minor_words : float;
  mutable system_s : float; (* unit wall minus user time *)
}

let tr () =
  {
    acc = Layer.create ();
    attempts = 0;
    verified = 0;
    lookups = 0;
    hits = 0;
    conflicts = 0;
    batch_sweep_s = [];
    bdd = [];
    minor_words = 0.;
    system_s = 0.;
  }

let bdd_delta (a : Symbdd.Bdd.Manager.stats) (b : Symbdd.Bdd.Manager.stats) =
  {
    b with
    nodes = b.nodes - a.nodes;
    cache_hits = b.cache_hits - a.cache_hits;
    cache_misses = b.cache_misses - a.cache_misses;
    uniq_lookups = b.uniq_lookups - a.uniq_lookups;
    uniq_probes = b.uniq_probes - a.uniq_probes;
    memo_evictions = b.memo_evictions - a.memo_evictions;
  }

(* Run one traced unit under a manager made by [manager] (inside the
   [bdd] layer): its BDD counters, allocation and system time (wall
   minus user time) are charged to [t]. *)
let traced_unit t ~manager f =
  let t0 = now () in
  let user0 = Layer.self t.acc Layer.Oracle in
  let m = Layer.span t.acc Layer.Bdd manager in
  let before = Symbdd.Bdd.Manager.stats m in
  let w0 = Gc.minor_words () in
  let r = Symbdd.Bdd.with_manager m f in
  t.minor_words <- t.minor_words +. (Gc.minor_words () -. w0);
  t.bdd <- bdd_delta before (Symbdd.Bdd.Manager.stats m) :: t.bdd;
  t.system_s <-
    t.system_s +. (now () -. t0) -. (Layer.self t.acc Layer.Oracle -. user0);
  r

(* ------------------------------------------------------------------ *)
(* The scheduler, timed from outside                                   *)
(* ------------------------------------------------------------------ *)

type task = { domain : int; submitted : float; started : float; stopped : float }

type pool_run = { tasks : task list; batch_s : float (* wall of the map call *) }

(* [Parallel.Pool.map] with the closure wrapped: start and end of each
   task, the domain that ran it and its delay from submission. *)
let timed_map pool ~f items =
  let submitted = now () in
  let rs =
    Parallel.Pool.map pool
      ~f:(fun x ->
        let started = now () in
        let r = f x in
        (r, { domain = (Domain.self () :> int); submitted; started; stopped = now () }))
      items
  in
  (List.map fst rs, { tasks = List.map snd rs; batch_s = now () -. submitted })

(* busy ratio, task wait tail (s), imbalance (max over mean busy per
   domain) over several map calls on [domains] domains. *)
let pool_stats ~domains runs =
  let tasks = List.concat_map (fun r -> r.tasks) runs in
  let busy = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let b = try Hashtbl.find busy t.domain with Not_found -> 0. in
      Hashtbl.replace busy t.domain (b +. t.stopped -. t.started))
    tasks;
  let total = Hashtbl.fold (fun _ b acc -> acc +. b) busy 0. in
  let wall = Stats.sum (List.map (fun r -> r.batch_s) runs) in
  let max_busy = Hashtbl.fold (fun _ b acc -> Float.max b acc) busy 0. in
  let waits = List.map (fun t -> t.started -. t.submitted) tasks in
  let wait_tail, _, _ = Stats.tail waits in
  ( Stats.ratio total (float_of_int domains *. wall),
    wait_tail,
    Stats.ratio max_busy (total /. float_of_int domains) )

(* ------------------------------------------------------------------ *)
(* What a workload run hands back                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  setup_s : float; (* median over the run's set-ups *)
  peak_rss_mb : float; (* VmHWM when the timed loop ends, before the checks *)
  rates : float list; (* intents per second of each window of the run *)
  samples : samples; (* the timed loop's, untraced *)
  tails : float * float * float; (* tail percentiles: intent, first question, wait *)
  failed : int; (* intents that errored or disagree with the reference *)
  notes : string list; (* extra lines for the human-readable report *)
  layers : (string * float * string) list; (* per-layer metrics, traced runs *)
}

let merge_tr ts =
  let out = { (tr ()) with acc = Layer.merge (List.map (fun t -> t.acc) ts) } in
  List.iter
    (fun t ->
      out.attempts <- out.attempts + t.attempts;
      out.verified <- out.verified + t.verified;
      out.lookups <- out.lookups + t.lookups;
      out.hits <- out.hits + t.hits;
      out.conflicts <- out.conflicts + t.conflicts;
      out.batch_sweep_s <- List.rev_append t.batch_sweep_s out.batch_sweep_s;
      out.bdd <- List.rev_append t.bdd out.bdd;
      out.minor_words <- out.minor_words +. t.minor_words;
      out.system_s <- out.system_s +. t.system_s)
    ts;
  out

(* The user, timed as the [oracle] layer, behind the user-felt clock and
   (in batches) the shared answer cache. *)
let traced_ask t clk ?cache ~policy ~view oracle =
  let user q = Layer.span t.acc Layer.Oracle (fun () -> ask clk oracle q) in
  match cache with
  | None -> user
  | Some c ->
      fun q ->
        t.lookups <- t.lookups + 1;
        let hits = Clarify.Disambig_common.Answer_cache.hits c in
        let a = Clarify.Disambig_common.Answer_cache.cached c ~policy ~view user q in
        if Clarify.Disambig_common.Answer_cache.hits c > hits then
          t.hits <- t.hits + 1;
        a

exception Intent_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Intent_failed m)) fmt

let feedback prompt = function
  | None -> prompt
  | Some f -> prompt ^ "\nYour previous answer was wrong: " ^ f

(* The verify-repair loop, as {!Clarify.Pipeline} runs it: [check]
   parses a completion's snippet into [Ok x] or a feedback message. *)
let repair_loop t llm ~kind ~prompt check =
  let entry = Llm.Prompt_db.retrieve kind in
  let rec attempt n fb =
    if n > Clarify.Pipeline.default_max_attempts then fail "verification exhausted";
    t.attempts <- t.attempts + 1;
    let req =
      {
        Llm.Mock_llm.system = entry.Llm.Prompt_db.system;
        few_shot = entry.Llm.Prompt_db.few_shot;
        user = feedback prompt fb;
      }
    in
    match Layer.span t.acc Layer.Llm (fun () -> Llm.Mock_llm.synthesize llm req) with
    | Error m -> fail "LLM failure: %s" m
    | Ok text -> (
        match Layer.span t.acc Layer.Config (fun () -> Config.Parser.parse text) with
        | Error m -> attempt (n + 1) (Some ("syntax error: " ^ m))
        | Ok snippet -> (
            match check snippet with
            | Ok x ->
                t.verified <- t.verified + 1;
                x
            | Error msg -> attempt (n + 1) (Some msg)))
  in
  attempt 1 None

let classify t llm prompt expected =
  let got = Layer.span t.acc Layer.Llm (fun () -> Llm.Mock_llm.classify llm prompt) in
  if got <> expected then fail "classified as the wrong query type"

(* A route-map intent up to placement: classify, spec, repair loop and
   import. Returns the config with the snippet's lists imported and the
   stanza to place. *)
let traced_synth_route_map t ~llm ~db ~prompt =
  let span l f = Layer.span t.acc l f in
  classify t llm prompt `Route_map;
  let spec =
    match span Layer.Llm (fun () -> Llm.Mock_llm.generate_spec llm prompt) with
    | Ok s -> s
    | Error m -> fail "spec extraction failed: %s" m
  in
  let snippet, rm =
    repair_loop t llm ~kind:`Route_map ~prompt (fun snippet ->
        match Config.Database.route_maps snippet with
        | [ rm ] -> (
            match
              span Layer.Verify (fun () ->
                  Engine.Search_route_policies.verify_stanza snippet rm spec)
            with
            | Engine.Search_route_policies.Verified -> Ok (snippet, rm)
            | v -> Error (Format.asprintf "%a" Engine.Search_route_policies.pp_verdict v))
        | _ -> fail "unexpected snippet shape")
  in
  let imported =
    match
      span Layer.Naming (fun () ->
          Clarify.Naming.import_route_map_snippet ~db ~snippet rm)
    with
    | Ok i -> i
    | Error m -> fail "import: %s" m
  in
  (imported.Clarify.Naming.db, imported.Clarify.Naming.stanza)

(* Place a stanza: the boundaries handed in, or a live sweep, then the
   questions. Returns the placement. *)
let traced_place_route_map t ?pool ?precomputed ~ask ~db ~target stanza =
  let bs =
    match precomputed with
    | Some bs -> bs
    | None ->
        Layer.sweep t.acc ~width:(List.length target.Config.Route_map.stanzas) (fun () ->
            Clarify.Disambiguator.boundaries ?pool ~db ~target stanza)
  in
  match
    Layer.span t.acc Layer.Disambig (fun () ->
        Clarify.Disambiguator.run ?pool ~precomputed:bs ~db ~target ~stanza ~oracle:ask ())
  with
  | Ok o -> o
  | Error _ -> fail "answers are inconsistent"

let route_map db name =
  match Config.Database.route_map db name with
  | Some m -> m
  | None -> fail "no route-map %s" name

(* One route-map intent through the layers, as
   [Pipeline.run_route_map_update] runs it; returns the updated config. *)
let traced_route_map t ~llm ~ask ~db ~target ~prompt =
  let target = route_map db target in
  let db, stanza = traced_synth_route_map t ~llm ~db ~prompt in
  let o = traced_place_route_map t ~ask ~db ~target stanza in
  Config.Database.add_route_map db o.Clarify.Disambiguator.map

(* An ACL intent up to placement, the parsed intent serving as the spec:
   the verified rule. *)
let traced_synth_acl t ~llm ~prompt =
  let span l f = Layer.span t.acc l f in
  classify t llm prompt `Acl;
  let intent =
    match span Layer.Llm (fun () -> Llm.Nl_parser.parse `Acl prompt) with
    | Ok (Llm.Intent.Acl i) -> i
    | Ok (Llm.Intent.Route_map _) -> fail "parsed as a route-map intent"
    | Error e -> fail "spec extraction failed: %s" (Llm.Nl_parser.error_message e)
  in
  let expected =
    Config.Acl.rule ~seq:10 ~protocol:intent.Llm.Intent.protocol ~src:intent.src
      ~src_port:intent.src_port ~dst:intent.dst ~dst_port:intent.dst_port
      ~established:intent.established intent.acl_action
  in
  let spec_space = span Layer.Verify (fun () -> Symbolic.Packet_space.of_rule expected) in
  let rule =
    repair_loop t llm ~kind:`Acl ~prompt (fun snippet ->
        match Config.Database.acls snippet with
        | [ { Config.Acl.rules = [ rule ]; _ } ] -> (
            match
              span Layer.Verify (fun () ->
                  Engine.Search_filters.verify_rule rule ~spec_space
                    ~action:intent.acl_action)
            with
            | Engine.Search_filters.Verified -> Ok rule
            | Engine.Search_filters.Wrong_action _ -> Error "wrong action"
            | Engine.Search_filters.Match_too_broad p ->
                Error
                  (Format.asprintf "rule matches a packet outside the intent: %a"
                     Config.Packet.pp p)
            | Engine.Search_filters.Match_too_narrow p ->
                Error
                  (Format.asprintf "rule misses a packet the intent covers: %a"
                     Config.Packet.pp p))
        | _ -> Error "produce exactly one ACL rule")
  in
  rule

(* Place an ACL rule, as {!traced_place_route_map} does a stanza. *)
let traced_place_acl t ?pool ?precomputed ~ask ~target rule =
  let bs =
    match precomputed with
    | Some bs -> bs
    | None ->
        Layer.sweep t.acc ~width:(List.length target.Config.Acl.rules) (fun () ->
            Clarify.Acl_disambiguator.boundaries ?pool ~target rule)
  in
  match
    Layer.span t.acc Layer.Disambig (fun () ->
        Clarify.Acl_disambiguator.run ?pool ~precomputed:bs ~target ~rule ~oracle:ask ())
  with
  | Ok o -> o
  | Error _ -> fail "answers are inconsistent"

(* The real path of each unit twice, once with telemetry recorded to
   memory and once without, alternating which goes first so neither
   always runs on the warmer heap, until [deadline] (two units at
   least). [f i] runs unit [i] and returns its system time (user time
   excluded) and intents placed. Returns the events recorded per intent
   and the recorded over the unrecorded system time, minus one. *)
let recording ~deadline f =
  let events = ref 0 and intents = ref 0 and on = ref 0. and off = ref 0. in
  let recorded i =
    let got = Telemetry.record_to_memory () in
    let s, n = Fun.protect ~finally:Telemetry.stop (fun () -> f i) in
    events := !events + List.length (got ());
    intents := !intents + n;
    on := !on +. s
  in
  let plain i = off := !off +. fst (f i) in
  let i = ref 0 in
  while !i < 2 || now () < deadline do
    if !i mod 2 = 0 then (plain !i; recorded !i) else (recorded !i; plain !i);
    incr i
  done;
  (float_of_int !events /. float_of_int (max 1 !intents), (!on /. !off) -. 1.)

(* Set up [n] times from scratch, each between two readings of the
   host's speed on one domain (set-up is serial); the median time, at
   the reference speed, and the last result. *)
let repeat_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    Gc.compact ();
    let before = Calib.measure Parallel.Pool.serial in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let after = Calib.measure Parallel.Pool.serial in
    times := (dt *. Calib.scale ~before ~after) :: !times;
    last := Some r
  done;
  (Stats.median !times, Option.get !last)

(* Run windows of work until [deadline], reading the host's speed on
   [pool]'s domains before the first window and after each. [f i] runs
   window [i] and returns its samples and its measured wall; both are
   scaled to the reference speed by the readings either side. Returns
   the samples of all windows together and, in order, each window's
   intents and scaled wall. *)
let windows ?per_domain ~pool ~deadline f =
  let all = samples () and walls = ref [] and i = ref 0 in
  let before = ref (Calib.measure ?per_domain pool) in
  while now () < deadline do
    let s, wall = f !i in
    let after = Calib.measure ?per_domain pool in
    let k = Calib.scale ~before:!before ~after in
    scale s k;
    merge_into all [ s ];
    walls := (s.intents, wall *. k) :: !walls;
    before := after;
    incr i
  done;
  (all, List.rev !walls)

(* Intents per second of each window. *)
let rates walls = List.map (fun (intents, wall) -> float_of_int intents /. wall) walls

(* [f ()], the major collections it took and the top heap size after
   it, in words. *)
let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  (r, b.Gc.major_collections - a.Gc.major_collections, b.Gc.top_heap_words)
