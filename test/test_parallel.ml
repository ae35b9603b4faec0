(* The worker pool and the parallel evaluation paths.

   The load-bearing property is determinism: every parallel code path
   must produce results identical to its serial equivalent, because the
   experiment goldens are byte-compared across --jobs values in CI. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_sizing () =
  check_int "explicit size" 4 Parallel.Pool.(domains (create ~domains:4 ()));
  check_int "clamped to 1" 1 Parallel.Pool.(domains (create ~domains:0 ()));
  check_int "serial pool" 1 Parallel.Pool.(domains serial)

(* map must equal List.map at every pool size and input length
   (empty, shorter than the pool, longer than it). *)
let test_ordering () =
  let f x = (x * 2) + 1 in
  List.iter
    (fun domains ->
      let pool = Parallel.Pool.create ~domains () in
      List.iter
        (fun n ->
          let items = List.init n (fun i -> i) in
          Alcotest.(check (list int))
            (Printf.sprintf "d=%d n=%d" domains n)
            (List.map f items)
            (Parallel.Pool.map pool ~f items))
        [ 0; 1; 2; 5; 17; 64 ])
    [ 1; 2; 4 ]

exception Boom of int

let test_exception_propagation () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let f x = if x mod 7 = 3 then raise (Boom x) else x in
  (* The exception from the smallest failing input position wins, so
     re-raising is deterministic too. *)
  match Parallel.Pool.map pool ~f (List.init 40 Fun.id) with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Boom x -> check_int "earliest failure re-raised" 3 x

(* Each item runs exactly once however the participants race for
   items: [f] counts its calls per item, so an item claimed twice or
   never shows up as a count other than 1 even where the results would
   still equal [List.map]. A failing batch still runs every item once
   (a failure ends only its own item) and re-raises the failure at the
   smallest input position. *)
let test_exactly_once () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let run ~fail n =
    let calls = Array.init n (fun _ -> Atomic.make 0) in
    let f i =
      Atomic.incr calls.(i);
      if fail i then raise (Boom i) else (i * 3) + 1
    in
    let r =
      match Parallel.Pool.map pool ~f (List.init n Fun.id) with
      | r -> Ok r
      | exception Boom i -> Error i
    in
    let once = Array.for_all (fun c -> Atomic.get c = 1) calls in
    (r, once)
  in
  List.iter
    (fun n ->
      let r, once = run ~fail:(fun _ -> false) n in
      let label = Printf.sprintf "n=%d" n in
      check_bool (label ^ ": every item ran once") true once;
      check_bool (label ^ ": results in input order") true
        (r = Ok (List.init n (fun i -> (i * 3) + 1)));
      if n >= 7 then begin
        let r, once = run ~fail:(fun i -> i mod 7 = 6) n in
        let label = Printf.sprintf "n=%d failing" n in
        check_bool (label ^ ": every item ran once") true once;
        check_bool (label ^ ": smallest failing index re-raised") true
          (r = Error 6)
      end)
    [ 1; 7; 64; 2000 ]

(* A worker exception must not leak spawned domains or corrupt later
   batches: the pool is usable again immediately after. *)
let test_usable_after_exception () =
  let pool = Parallel.Pool.create ~domains:2 () in
  (try
     ignore
       (Parallel.Pool.map pool
          ~f:(fun _ -> raise (Boom 0))
          [ 1; 2; 3; 4 ])
   with Boom _ -> ());
  Alcotest.(check (list int))
    "pool survives a failed batch" [ 2; 4; 6 ]
    (Parallel.Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2; 3 ])

(* Tasks build BDDs in their own domain's manager; plain-data results
   must agree with the serial run even though the BDDs themselves are
   domain-local. *)
let test_bdd_isolation () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let f i =
    let open Symbdd in
    let a = Bvec.eq_const (Bvec.sequential ~first:0 ~width:16) i in
    let b = Bvec.in_range (Bvec.sequential ~first:0 ~width:16) 0 (i + 100) in
    Bdd.sat_count ~nvars:16 (Bdd.conj a b)
  in
  let items = List.init 50 Fun.id in
  Alcotest.(check (list (float 0.0)))
    "per-domain managers agree with serial" (List.map f items)
    (Parallel.Pool.map pool ~f items)

(* ------------------------------------------------------------------ *)
(* Serial = parallel on the evaluation paths                          *)
(* ------------------------------------------------------------------ *)

let test_overlap_summaries_identical () =
  List.iter
    (fun seed ->
      let corpus = Workload.Cloud.generate ~seed () in
      let serial = Overlap.Corpus.summarize_acls corpus.Workload.Cloud.acls in
      List.iter
        (fun domains ->
          let pool = Parallel.Pool.create ~domains () in
          check_bool
            (Printf.sprintf "acl summary seed=%d domains=%d" seed domains)
            true
            (serial
            = Overlap.Corpus.summarize_acls ~pool corpus.Workload.Cloud.acls))
        [ 1; 2; 4 ];
      let rm_serial =
        Overlap.Corpus.summarize_route_maps corpus.Workload.Cloud.route_map_db
          corpus.Workload.Cloud.route_maps
      in
      let pool = Parallel.Pool.create ~domains:4 () in
      check_bool
        (Printf.sprintf "route-map summary seed=%d" seed)
        true
        (rm_serial
        = Overlap.Corpus.summarize_route_maps ~pool
            corpus.Workload.Cloud.route_map_db corpus.Workload.Cloud.route_maps))
    [ 1; 42 ]

let test_e4_identical () =
  let serial = Evaluation.E4_lightyear.run () in
  let pool = Parallel.Pool.create ~domains:3 () in
  let parallel = Evaluation.E4_lightyear.run ~pool () in
  check_bool "router stats identical" true
    (serial.Evaluation.E4_lightyear.stats
   = parallel.Evaluation.E4_lightyear.stats);
  check_bool "policy results identical" true
    (serial.Evaluation.E4_lightyear.policies
   = parallel.Evaluation.E4_lightyear.policies);
  check_bool "convergence identical" true
    (serial.Evaluation.E4_lightyear.converged
     = parallel.Evaluation.E4_lightyear.converged
    && serial.Evaluation.E4_lightyear.rounds
       = parallel.Evaluation.E4_lightyear.rounds)

(* ------------------------------------------------------------------ *)
(* Compilation cache                                                  *)
(* ------------------------------------------------------------------ *)

(* Sweeping a corpus must hit the per-manager compilation cache: each
   analysis compiles its rules once, so hits come from rules shared
   across ACLs (trailing deny-any, common service rules) — a nonzero
   rate, not a dominant one. *)
let test_cache_hit_rate () =
  let corpus = Workload.Cloud.generate ~seed:1 () in
  Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) (fun () ->
      let hits = ref 0 and misses = ref 0 in
      Symbdd.Bdd.set_cache_hook
        (Some (fun hit -> incr (if hit then hits else misses)));
      List.iter
        (fun acl -> ignore (Overlap.Acl_overlap.analyze acl))
        corpus.Workload.Cloud.acls;
      Symbdd.Bdd.set_cache_hook None;
      check_bool "cache was probed" true (!hits + !misses > 0);
      check_bool
        (Printf.sprintf "nonzero hit rate (%d hits / %d misses)" !hits !misses)
        true (!hits > 0))

let test_cache_stats_in_manager () =
  Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) (fun () ->
      let rule =
        Config.Acl.rule ~protocol:Config.Packet.Tcp
          ~src:
            (Config.Acl.Wildcard
               ( Netaddr.Ipv4.of_string_exn "10.0.0.0",
                 Netaddr.Ipv4.of_string_exn "0.255.255.255" ))
          ~dst_port:(Config.Acl.Eq 22) Config.Action.Deny
      in
      ignore (Symbolic.Packet_space.of_rule rule);
      ignore (Symbolic.Packet_space.of_rule rule);
      let s = Symbdd.Bdd.Manager.stats (Symbdd.Bdd.manager ()) in
      check_int "one cache entry" 1 s.Symbdd.Bdd.Manager.cache_entries;
      check_int "one miss" 1 s.Symbdd.Bdd.Manager.cache_misses;
      check_int "one hit" 1 s.Symbdd.Bdd.Manager.cache_hits;
      (* A full reset drops the cache and its entry count. *)
      Symbdd.Bdd.Manager.reset (Symbdd.Bdd.manager ());
      let s = Symbdd.Bdd.Manager.stats (Symbdd.Bdd.manager ()) in
      check_int "reset drops cache entries" 0 s.Symbdd.Bdd.Manager.cache_entries;
      check_int "reset drops nodes" 0 s.Symbdd.Bdd.Manager.nodes)

(* Equal content under different names compiles to one BDD: the
   lists are in no compilation cache, hash-consing gives equal
   encodings one handle. Different content never collides. *)
let test_cache_keys_content_based () =
  Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) (fun () ->
      let entry le =
        Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
          (Netaddr.Prefix_range.make
             (Netaddr.Prefix.of_string_exn "10.0.0.0/8")
             ~ge:None ~le:(Some le))
      in
      let a = Config.Prefix_list.make "A" [ entry 24 ] in
      let b = Config.Prefix_list.make "B" [ entry 24 ] in
      let c = Config.Prefix_list.make "C" [ entry 25 ] in
      let ba = Symbolic.Route_ctx.of_prefix_list a in
      let bb = Symbolic.Route_ctx.of_prefix_list b in
      let bc = Symbolic.Route_ctx.of_prefix_list c in
      check_bool "same content shares the compilation" true
        (Symbdd.Bdd.equal ba bb);
      check_bool "different content stays distinct" false
        (Symbdd.Bdd.equal ba bc))

(* ------------------------------------------------------------------ *)
(* Observability integration                                          *)
(* ------------------------------------------------------------------ *)

let test_per_domain_series () =
  Obs.enable ();
  Obs.reset ();
  let pool = Parallel.Pool.create ~domains:2 () in
  ignore (Parallel.Pool.map pool ~f:(fun x -> x + 1) (List.init 8 Fun.id));
  let total =
    List.fold_left
      (fun acc d ->
        match
          Obs.Counter.find_labeled "parallel.tasks"
            [ ("domain", string_of_int d) ]
        with
        | Some c -> acc + Obs.Counter.value c
        | None -> acc)
      0 [ 0; 1 ]
  in
  Obs.disable ();
  check_int "every task counted exactly once across domains" 8 total

(* Pool workers racing to register the same labeled series must all
   receive the one registry entry — otherwise half the increments land
   in an orphaned duplicate and the merged value undercounts. *)
let test_labeled_registration_race_in_pool () =
  Obs.enable ();
  Obs.reset ();
  let pool = Parallel.Pool.create ~domains:4 () in
  ignore
    (Parallel.Pool.map pool
       ~f:(fun x ->
         Obs.Counter.incr
           (Obs.Counter.labeled "test.pool.race" [ ("k", "v") ]);
         x)
       (List.init 64 Fun.id));
  let v =
    match Obs.Counter.find_labeled "test.pool.race" [ ("k", "v") ] with
    | Some c -> Obs.Counter.value c
    | None -> -1
  in
  Obs.disable ();
  check_int "one series holds all 64 increments" 64 v

(* Pool gauges: after a batch the queue is drained and no worker is
   marked busy; the domain-count gauge reflects the pool that ran. *)
let test_pool_gauges_settle () =
  Obs.enable ();
  Obs.reset ();
  let pool = Parallel.Pool.create ~domains:2 () in
  ignore
    (Parallel.Pool.map pool ~f:(fun x -> x * x) (List.init 16 Fun.id));
  let gauge name =
    match Obs.Gauge.find name with
    | Some g -> Obs.Gauge.value g
    | None -> Alcotest.failf "gauge %s is not registered" name
  in
  let busy =
    List.fold_left
      (fun acc d ->
        match
          Obs.Gauge.find_labeled "parallel.worker.busy"
            [ ("domain", string_of_int d) ]
        with
        | Some g -> acc +. Obs.Gauge.value g
        | None -> acc)
      0. [ 0; 1 ]
  in
  Obs.disable ();
  Alcotest.(check (float 0.)) "no worker busy after the batch" 0. busy;
  Alcotest.(check (float 0.)) "queue drained" 0. (gauge "parallel.queue.depth");
  Alcotest.(check (float 0.)) "pool size published" 2. (gauge "parallel.pool.domains")

(* The submitting domain's hooks must be restored after a batch: the
   engine's process-wide bdd.nodes_allocated counter keeps working. *)
let test_hooks_restored () =
  Obs.enable ();
  Obs.reset ();
  let pool = Parallel.Pool.create ~domains:2 () in
  ignore
    (Parallel.Pool.map pool
       ~f:(fun x -> Symbdd.Bdd.sat_count ~nvars:8 (Symbdd.Bdd.var x))
       [ 0; 1; 2; 3 ]);
  let before = Obs.Counter.value Engine.Metrics.bdd_nodes in
  (* Fresh structure in the main domain must land in the global counter. *)
  ignore
    (Symbdd.Bdd.conj_list (List.init 12 (fun i -> Symbdd.Bdd.var (200 + i))));
  let after = Obs.Counter.value Engine.Metrics.bdd_nodes in
  Obs.disable ();
  check_bool "global alloc hook restored after batch" true (after > before)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "deterministic ordering" `Quick test_ordering;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "usable after exception" `Quick
            test_usable_after_exception;
          Alcotest.test_case "every item runs exactly once" `Quick
            test_exactly_once;
          Alcotest.test_case "per-domain BDD managers" `Quick
            test_bdd_isolation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "overlap summaries serial=parallel" `Slow
            test_overlap_summaries_identical;
          Alcotest.test_case "E4 serial=parallel" `Slow test_e4_identical;
        ] );
      ( "compile-cache",
        [
          Alcotest.test_case "hit rate on cloud corpus" `Slow
            test_cache_hit_rate;
          Alcotest.test_case "manager stats track the cache" `Quick
            test_cache_stats_in_manager;
          Alcotest.test_case "content-based keys" `Quick
            test_cache_keys_content_based;
        ] );
      ( "observability",
        [
          Alcotest.test_case "per-domain labeled series" `Quick
            test_per_domain_series;
          Alcotest.test_case "labeled registration race" `Quick
            test_labeled_registration_race_in_pool;
          Alcotest.test_case "pool gauges settle" `Quick
            test_pool_gauges_settle;
          Alcotest.test_case "hooks restored after batch" `Quick
            test_hooks_restored;
        ] );
    ]
