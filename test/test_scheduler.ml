(* The scheduler: serial ≡ pooled determinism on the sweep, batch and
   fleet paths, nested submission, exception priority, and worker
   persistence (domains spawned once, deltas reset — not reallocated —
   between batches).

   Every participant claims tasks from one shared atomic cursor, so
   each pooled run here is the maximal-contention case — and must
   still be byte-identical to the serial run, because the experiment
   goldens are compared across --jobs values in CI. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Determinism under contention                                       *)
(* ------------------------------------------------------------------ *)

(* An ACL sweep case from a generated cloud corpus: its largest ACL as
   the target, the second ACL's first rule as the candidate. *)
let sweep_case seed =
  let corpus = Workload.Cloud.generate ~seed () in
  match corpus.Workload.Cloud.acls with
  | first :: (b : Config.Acl.t) :: _ ->
      ( List.fold_left
          (fun (best : Config.Acl.t) (a : Config.Acl.t) ->
            if List.length a.rules > List.length best.rules then a else best)
          first corpus.Workload.Cloud.acls,
        List.hd b.rules )
  | _ -> Alcotest.fail "corpus too small"

(* Boundary sweeps, one per pool task as the routers of a fleet run
   them: serial ≡ pooled. *)
let test_boundaries_identical () =
  let cases = List.map sweep_case [ 7; 8; 9; 10 ] in
  let pool = Parallel.Pool.create ~domains:4 () in
  let sweep (target, rule) =
    Engine.Compare_acls.adjacent_insertions ~target rule
  in
  let serial = List.map sweep cases in
  let pooled = Parallel.Pool.map pool ~f:sweep cases in
  check_bool "pooled sweep identical" true (serial = pooled)

(* Batch sweep: per-candidate boundaries and the pairwise verdicts. *)
let test_batch_identical () =
  let corpus = Workload.Cloud.generate ~seed:11 () in
  let target = List.hd corpus.Workload.Cloud.acls in
  let rules =
    match corpus.Workload.Cloud.acls with
    | _ :: (b : Config.Acl.t) :: (c : Config.Acl.t) :: _ ->
        (List.filteri (fun i _ -> i < 3) b.rules
        @ List.filteri (fun i _ -> i < 2) c.rules)
    | _ -> Alcotest.fail "corpus too small"
  in
  let pool = Parallel.Pool.create ~domains:4 () in
  let view (s : Engine.Compare_acls.batch_sweep) =
    (Array.to_list s.per_candidate, s.overlaps, s.conflicts)
  in
  (* Each candidate prefix of the rules is one batch, one pool task. *)
  let batches =
    List.init (List.length rules) (fun k ->
        List.filteri (fun i _ -> i <= k) rules)
  in
  let sweep rules =
    view (Engine.Compare_acls.batch_insertions ~target rules)
  in
  let serial = List.map sweep batches in
  let pooled = Parallel.Pool.map pool ~f:sweep batches in
  check_bool "pooled batch identical" true (serial = pooled)

(* E5 fleet shard: router configs and question counts byte-identical
   to the serial run. *)
let e5_view (r : Evaluation.E5_fleet.result) =
  List.map
    (fun (x : Evaluation.E5_fleet.router_result) ->
      (x.router, x.questions, Config.Parser.to_string x.config))
    r.results

let test_e5_identical () =
  let serial = e5_view (Evaluation.E5_fleet.run ~routers:24 ()) in
  let pool = Parallel.Pool.create ~domains:4 () in
  let pooled = e5_view (Evaluation.E5_fleet.run ~pool ~routers:24 ()) in
  check_bool "pooled fleet identical" true (serial = pooled)

(* ------------------------------------------------------------------ *)
(* Nested submission                                                  *)
(* ------------------------------------------------------------------ *)

(* A batch sweep and a map of single sweeps inside a
   fleet-shard-shaped outer map: the inner map sees it is already on a
   worker and runs inline (serial), so the scheduler never deadlocks on
   its one-batch-at-a-time lock and the combined result still equals
   the all-serial one. *)
let test_nested_submission () =
  let corpus = Workload.Cloud.generate ~seed:5 () in
  let target = List.hd corpus.Workload.Cloud.acls in
  let rules =
    List.filteri (fun i _ -> i < 3)
      (List.nth corpus.Workload.Cloud.acls 1).Config.Acl.rules
  in
  let pool = Parallel.Pool.create ~domains:4 () in
  let shard _i =
    let s = Engine.Compare_acls.batch_insertions ~target rules in
    ( Array.to_list s.per_candidate,
      s.overlaps,
      s.conflicts,
      Parallel.Pool.map pool
        ~f:(fun rule -> Engine.Compare_acls.adjacent_insertions ~target rule)
        rules )
  in
  let serial = shard 0 in
  let results = Parallel.Pool.map pool ~f:shard (List.init 6 Fun.id) in
  check_bool "inner sweep inside worker tasks matches serial" true
    (List.for_all (fun r -> r = serial) results);
  check_bool "not flagged as worker after the batch" false
    (Parallel.Pool.in_worker ())

(* ------------------------------------------------------------------ *)
(* Exception priority                                                 *)
(* ------------------------------------------------------------------ *)

exception Boom of int

(* Every item's failure lands in its own slot, whichever domain ran
   it; the failure at the smallest input position wins. *)
let test_exception_priority () =
  let pool = Parallel.Pool.create ~domains:4 () in
  let f x = if x mod 7 = 3 then raise (Boom x) else x in
  (match Parallel.Pool.map pool ~f (List.init 40 Fun.id) with
  | _ -> Alcotest.fail "exception was swallowed"
  | exception Boom x -> check_int "smallest failing input wins" 3 x);
  Alcotest.(check (list int))
    "usable after a failed batch" [ 2; 4; 6 ]
    (Parallel.Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Worker persistence                                                 *)
(* ------------------------------------------------------------------ *)

(* Workers are spawned once and reused: after a shutdown (fresh slate),
   the first batch spawns domains - 1 workers and four more batches
   spawn none — both the process view and the metric stay flat. *)
let test_workers_persist_across_batches () =
  Parallel.Pool.shutdown ();
  Obs.enable ();
  Obs.reset ();
  let spawned_counter = Obs.Counter.make "parallel.domains_spawned" in
  let pool = Parallel.Pool.create ~domains:3 () in
  let batch () =
    ignore (Parallel.Pool.map pool ~f:(fun x -> x * x) (List.init 32 Fun.id))
  in
  batch ();
  let after_first = Parallel.Pool.spawned_workers () in
  let metric_first = Obs.Counter.value spawned_counter in
  for _ = 1 to 4 do
    batch ()
  done;
  let after_fifth = Parallel.Pool.spawned_workers () in
  let metric_fifth = Obs.Counter.value spawned_counter in
  Obs.disable ();
  check_int "first batch spawns domains-1 workers" 2 after_first;
  check_int "no further spawns across batches" 2 after_fifth;
  check_int "parallel.domains_spawned counts the spawns" 2 metric_first;
  check_int "parallel.domains_spawned stays flat" 2 metric_fifth

(* Long-lived deltas are rewound between batches: a batch that allocates
   heavily leaves nothing behind for the next batch on the same base —
   every task of the second batch starts at the base boundary. *)
let test_delta_reset_between_batches () =
  let open Symbdd in
  let pool = Parallel.Pool.create ~domains:4 () in
  let base = Bdd.Manager.create () in
  Bdd.with_manager base (fun () ->
      ignore (Bvec.in_range (Bvec.sequential ~first:0 ~width:16) 5 9999));
  Bdd.Manager.freeze base;
  let allocate i =
    ignore
      (Bdd.sat_count ~nvars:16
         (Bvec.eq_const (Bvec.sequential ~first:0 ~width:16) i));
    i
  in
  ignore (Parallel.Pool.map ~bdd_base:base pool ~f:allocate (List.init 32 Fun.id));
  let leaked =
    Parallel.Pool.map ~bdd_base:base pool
      ~f:(fun _ ->
        (* [nodes] counts a delta's own unique table only; after the
           between-batch reset it must be back to the base boundary. *)
        let s = Bdd.Manager.stats (Bdd.manager ()) in
        (s.Bdd.Manager.nodes, s.Bdd.Manager.base_nodes))
      (List.init 32 Fun.id)
  in
  check_bool "no nodes leak across batches into reused deltas" true
    (List.for_all (fun (n, _) -> n = 0) leaked);
  check_bool "tasks really run on deltas of the shared base" true
    (List.for_all (fun (_, b) -> b > 0) leaked)

let () =
  Alcotest.run "scheduler"
    [
      ( "steal-stress determinism",
        [
          Alcotest.test_case "boundaries identical" `Slow
            test_boundaries_identical;
          Alcotest.test_case "batch identical" `Slow
            test_batch_identical;
          Alcotest.test_case "E5 fleet identical" `Slow
            test_e5_identical;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "nested submission" `Slow test_nested_submission;
          Alcotest.test_case "exception priority under stress" `Quick
            test_exception_priority;
          Alcotest.test_case "workers persist across batches" `Quick
            test_workers_persist_across_batches;
          Alcotest.test_case "deltas reset between batches" `Quick
            test_delta_reset_between_batches;
        ] );
    ]
