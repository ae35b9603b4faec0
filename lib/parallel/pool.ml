(* A persistent scheduler over OCaml domains.

   Worker domains are spawned once per process (lazily, up to the
   largest pool ever used) and reused across batches: between batches
   they park on a condition variable and wake when the next batch is
   published, so a steady stream of small maps — the clarify-as-a-
   service shape — pays the ~tens-of-microseconds domain-spawn cost
   exactly once. [shutdown] (also registered [at_exit]) wakes and joins
   them.

   Work distribution is per *item*, not per contiguous worker-sized
   chunk: every participant claims the next unclaimed item from the
   batch's one atomic cursor until the cursor passes the end. A
   straggling item therefore delays only itself — the idle
   participants keep claiming its neighbours — which is what flattens
   the E5 fleet p99/p50 tail. A batch is a flat list of independent
   items (no item adds work, a nested map runs inline), so one shared
   counter is all the distribution it needs. A caller whose items are
   too cheap for per-item bookkeeping maps over lists of them.

   Determinism is unchanged from the fork-join pool this replaces:
   results and failures land in per-item slots indexed by input
   position and are reassembled in input order, and the first failure
   in *input* order wins exception priority, so a parallel map is
   observationally [List.map] whatever the claim order.

   BDD layering: tasks must return plain data, never BDD values. With
   [?bdd_base] (a frozen root manager) every participant runs under a
   long-lived private delta manager layered on that base — cached in
   domain-local storage and *reset* (rewound to the base boundary, not
   reallocated) at the start of each batch, so the arena allocation is
   also paid once per base. Without a base, persistent workers run
   under a long-lived scratch root manager, likewise reset per batch,
   which preserves the old fresh-domain property that one batch's
   nodes can never leak into the next. *)

type t = { domains : int }

let env_var = "CLARIFY_JOBS"

let default_domains () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

let create ?domains () =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  { domains }

let domains t = t.domains
let serial = { domains = 1 }

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-domain labeled series, looked up at batch start (in the
   submitting domain) rather than cached at pool creation: Obs.reset
   drops labeled series, so handles must be re-acquired per batch.
   Counters and histograms shard their cells per writing domain, so
   handing one handle to one worker never races. *)
type worker_metrics = {
  tasks : Obs.Counter.t; (* parallel.tasks{domain=N} *)
  task_ns : Obs.Histogram.t; (* parallel.task_ns{domain=N} *)
  queue_wait_ns : Obs.Histogram.t; (* parallel.queue_wait_ns{domain=N} *)
  bdd_nodes : Obs.Counter.t; (* bdd.nodes_allocated{domain=N} *)
  cache_hits : Obs.Counter.t; (* bdd.compile_cache.hits{domain=N} *)
  cache_misses : Obs.Counter.t;
}

let worker_metrics i =
  let l = [ ("domain", string_of_int i) ] in
  {
    tasks = Obs.Counter.labeled "parallel.tasks" l;
    task_ns = Obs.Histogram.labeled "parallel.task_ns" l;
    queue_wait_ns = Obs.Histogram.labeled "parallel.queue_wait_ns" l;
    bdd_nodes = Obs.Counter.labeled "bdd.nodes_allocated" l;
    cache_hits = Obs.Counter.labeled "bdd.compile_cache.hits" l;
    cache_misses = Obs.Counter.labeled "bdd.compile_cache.misses" l;
  }

let batches = lazy (Obs.Counter.make "parallel.batches")

(* Worker domains spawned since process start: flat means reuse works. *)
let spawned = lazy (Obs.Counter.make "parallel.domains_spawned")

(* Worker parked-idle intervals between batches. *)
let park_ns = lazy (Obs.Histogram.make "parallel.park_ns")

(* Count BDD work into this worker's own labeled series. The hooks go
   on the worker's installed manager (its batch delta or scratch);
   worker 0 is the submitting domain, whose pre-existing hooks (the
   engine's process-wide counters) are saved and restored around the
   batch. *)
let with_worker_hooks m f =
  if not (Obs.enabled ()) then f ()
  else begin
    let saved_alloc = Symbdd.Bdd.get_alloc_hook () in
    let saved_cache = Symbdd.Bdd.get_cache_hook () in
    Symbdd.Bdd.set_alloc_hook (Some (fun () -> Obs.Counter.incr m.bdd_nodes));
    Symbdd.Bdd.set_cache_hook
      (Some
         (fun hit ->
           Obs.Counter.incr (if hit then m.cache_hits else m.cache_misses)));
    Fun.protect
      ~finally:(fun () ->
        Symbdd.Bdd.set_alloc_hook saved_alloc;
        Symbdd.Bdd.set_cache_hook saved_cache)
      f
  end

(* ------------------------------------------------------------------ *)
(* Scheduler state                                                    *)
(* ------------------------------------------------------------------ *)

type batch = {
  parts : int; (* participants; slot 0 = submitter *)
  next : int Atomic.t; (* next unclaimed item *)
  metrics : worker_metrics array; (* empty when observability was off *)
  run : worker_metrics option -> int -> unit; (* run one item *)
  nitems : int;
  completed : int Atomic.t; (* items fully run (or failed) *)
  active : int Atomic.t; (* persistent workers inside [participate] *)
  bdd_base : Symbdd.Bdd.Manager.t option;
  submitted : float; (* Obs.now () at publish; 0. when obs off *)
}

(* [mu] guards [generation]/[shutting_down] and orders the publish /
   park handshake, and [current] is read and written only under it;
   [batch_lock] serializes submitters end-to-end, so at most one batch
   is ever in flight. *)
let mu = Mutex.create ()
let cv_work = Condition.create () (* new batch published, or shutdown *)
let cv_done = Condition.create () (* item count or active count dropped *)
let generation = ref 0 (* bumped per batch, under mu *)
let shutting_down = ref false
let current : batch option ref = ref None
let batch_lock = Mutex.create ()
let worker_handles : unit Domain.t list ref = ref [] (* under batch_lock *)
let workers_spawned = ref 0

let spawned_workers () = !workers_spawned

(* ------------------------------------------------------------------ *)
(* Per-domain BDD managers                                            *)
(* ------------------------------------------------------------------ *)

let in_task_key = Domain.DLS.new_key (fun () -> ref false)
let in_worker () = !(Domain.DLS.get in_task_key)

(* Long-lived delta manager per domain, keyed by its frozen base. A
   delta captures the base's store, unique table and boundary, which a
   base never changes once frozen (freezing is one-way). Same base next
   batch -> Manager.reset rewinds the delta to the base boundary and
   keeps its arena; different base -> a fresh delta replaces the
   cached one. *)
let delta_key :
    (Symbdd.Bdd.Manager.t * Symbdd.Bdd.Manager.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let delta_for base =
  let cell = Domain.DLS.get delta_key in
  match !cell with
  | Some (b0, d) when b0 == base ->
      Symbdd.Bdd.Manager.reset d;
      d
  | _ ->
      let d = Symbdd.Bdd.Manager.create_delta base in
      cell := Some (base, d);
      d

(* Long-lived scratch root manager for base-less batches on persistent
   workers; reset per batch, so nodes from one batch never survive into
   the next — the same isolation fresh domains used to give. *)
let scratch_key : Symbdd.Bdd.Manager.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_manager () =
  let cell = Domain.DLS.get scratch_key in
  match !cell with
  | Some m ->
      Symbdd.Bdd.Manager.reset m;
      m
  | None ->
      let m = Symbdd.Bdd.Manager.create () in
      cell := Some m;
      m

(* Serial path (pool of 1, single item, or nested submission): same
   manager layering, fresh delta per call as before. *)
let with_base_delta bdd_base f =
  match bdd_base with
  | None -> f ()
  | Some base ->
      Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create_delta base) f

(* ------------------------------------------------------------------ *)
(* The work loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Claim items from the shared cursor until it passes the end. A claim
   cannot fail and never waits, so a participant leaves as soon as no
   unclaimed item remains. *)
let work_loop b m =
  (match m with
  | Some mm ->
      Obs.Histogram.observe_ns mm.queue_wait_ns
        ((Obs.now () -. b.submitted) *. 1e9)
  | None -> ());
  let rec loop () =
    let g = Atomic.fetch_and_add b.next 1 in
    if g < b.nitems then begin
      b.run m g;
      if 1 + Atomic.fetch_and_add b.completed 1 >= b.nitems then begin
        Mutex.lock mu;
        Condition.broadcast cv_done;
        Mutex.unlock mu
      end;
      loop ()
    end
  in
  loop ()

let participate b slot =
  let flag = Domain.DLS.get in_task_key in
  flag := true;
  Fun.protect
    ~finally:(fun () -> flag := false)
    (fun () ->
      let m =
        if slot < Array.length b.metrics then Some b.metrics.(slot) else None
      in
      let body () = work_loop b m in
      let instrumented () =
        match m with
        | Some mm ->
            with_worker_hooks mm (fun () ->
                (* Root span per worker: a separate thread lane in the
                   Chrome-trace export of any recording session. *)
                Obs.with_span (Printf.sprintf "domain%d" slot) body)
        | None -> body ()
      in
      (* Install the participant's manager before the hooks, so the
         hooks land on the delta/scratch manager. Slot 0 without a base
         keeps its ambient default manager, like the old worker 0. *)
      match b.bdd_base with
      | Some base -> Symbdd.Bdd.with_manager (delta_for base) instrumented
      | None ->
          if slot > 0 then
            Symbdd.Bdd.with_manager (scratch_manager ()) instrumented
          else instrumented ())

(* ------------------------------------------------------------------ *)
(* Worker lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let worker_main slot gen0 () =
  let last_gen = ref gen0 in
  let running = ref true in
  while !running do
    Mutex.lock mu;
    let t_park = if Obs.enabled () then Obs.now () else -1. in
    while (not !shutting_down) && !generation = !last_gen do
      Condition.wait cv_work mu
    done;
    if !shutting_down then begin
      running := false;
      Mutex.unlock mu
    end
    else begin
      last_gen := !generation;
      (* Join the batch while holding [mu]: the submitter closes the
         join window (current := None) and reads [active] under the
         same lock, so it can never miss us. Slots beyond the batch's
         participant count sit this one out. *)
      let joined =
        match !current with
        | Some b when slot < b.parts ->
            Atomic.incr b.active;
            Some b
        | _ -> None
      in
      Mutex.unlock mu;
      match joined with
      | None -> ()
      | Some b ->
          (* Only instrumented batches, whose submitter forced
             [park_ns] before publishing: two domains forcing one lazy
             at once raise [Lazy.Undefined], which would kill this
             worker after it joined and hang the submitter. *)
          if t_park >= 0. && Array.length b.metrics > 0 then
            Obs.Histogram.observe_ns (Lazy.force park_ns)
              ((Obs.now () -. t_park) *. 1e9);
          (try participate b slot
           with _ ->
             (* Item exceptions are captured per item inside [b.run];
                anything reaching here is a scheduler-infrastructure
                failure. Swallow it so [active] still drops — a hung
                submitter would be strictly worse. *)
             ());
          Atomic.decr b.active;
          Mutex.lock mu;
          Condition.broadcast cv_done;
          Mutex.unlock mu
    end
  done

(* Called with [batch_lock] held. Spawns up to [extra] persistent
   workers (slots 1..extra) that this process is missing; existing ones
   are reused, so parallel.domains_spawned stays flat across batches. *)
let ensure_workers extra =
  while !workers_spawned < extra do
    incr workers_spawned;
    let slot = !workers_spawned in
    Mutex.lock mu;
    let gen0 = !generation in
    Mutex.unlock mu;
    let d = Domain.spawn (worker_main slot gen0) in
    worker_handles := d :: !worker_handles;
    Obs.Counter.incr (Lazy.force spawned)
  done

let shutdown () =
  Mutex.lock batch_lock;
  Mutex.lock mu;
  shutting_down := true;
  Condition.broadcast cv_work;
  Mutex.unlock mu;
  List.iter Domain.join !worker_handles;
  worker_handles := [];
  workers_spawned := 0;
  Mutex.lock mu;
  shutting_down := false;
  Mutex.unlock mu;
  Mutex.unlock batch_lock

let () = at_exit shutdown

(* ------------------------------------------------------------------ *)
(* map                                                                *)
(* ------------------------------------------------------------------ *)

let map ?bdd_base pool ~f items =
  let n = List.length items in
  if n = 0 then []
  else if pool.domains <= 1 || n = 1 || in_worker () then
    (* Serial path: pool of 1, a single item, or a nested submission
       from inside a worker task (running it inline avoids deadlock on
       the one-batch-at-a-time lock and keeps determinism trivially).
       Same manager layering as the parallel path. *)
    with_base_delta bdd_base (fun () -> List.map f items)
  else begin
    (match bdd_base with
    | Some base when not (Symbdd.Bdd.Manager.frozen base) ->
        invalid_arg "Parallel.Pool.map: ~bdd_base must be frozen"
    | _ -> ());
    Mutex.lock batch_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock batch_lock) @@ fun () ->
    let parts = min pool.domains n in
    ensure_workers (parts - 1);
    let enabled = Obs.enabled () in
    let input = Array.of_list items in
    let results = Array.make n None in
    let fails : exn option array = Array.make n None in
    let run m i =
      let t0 = match m with Some _ -> Obs.now () | None -> 0. in
      match f input.(i) with
      | r -> (
          results.(i) <- Some r;
          match m with
          | Some mm ->
              Obs.Counter.incr mm.tasks;
              Obs.Histogram.observe_ns mm.task_ns ((Obs.now () -. t0) *. 1e9)
          | None -> ())
      | exception e -> fails.(i) <- Some e
    in
    let metrics = if enabled then Array.init parts worker_metrics else [||] in
    let b =
      {
        parts;
        next = Atomic.make 0;
        metrics;
        run;
        nitems = n;
        completed = Atomic.make 0;
        active = Atomic.make 0;
        bdd_base;
        submitted = (if enabled then Obs.now () else 0.);
      }
    in
    if enabled then begin
      Obs.Counter.incr (Lazy.force batches);
      ignore (Lazy.force park_ns)
    end;
    Mutex.lock mu;
    incr generation;
    current := Some b;
    Condition.broadcast cv_work;
    Mutex.unlock mu;
    (* The submitting domain participates as slot 0. *)
    let submitter_exn = ref None in
    (try participate b 0 with e -> submitter_exn := Some e);
    (* Wait for all items, close the join window, then wait for every
       joined worker to leave the batch, so that no worker still
       touches this batch's series, hooks or managers once [map]
       returns. *)
    Mutex.lock mu;
    while Atomic.get b.completed < b.nitems do
      Condition.wait cv_done mu
    done;
    current := None;
    while Atomic.get b.active > 0 do
      Condition.wait cv_done mu
    done;
    Mutex.unlock mu;
    (match !submitter_exn with Some e -> raise e | None -> ());
    match Array.find_map Fun.id fails with
    | Some e -> raise e
    | None ->
        Array.to_list results
        |> List.map (function Some r -> r | None -> assert false)
  end
