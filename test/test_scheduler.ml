(* The work-stealing scheduler: deque algebra, steal-stress
   determinism, nested submission, exception priority, and worker
   persistence (domains spawned once, deltas reset — not reallocated —
   between batches).

   Steal-stress mode (CLARIFY_STEAL_STRESS=1) seeds every task into
   slot 0's deque and routes every claim through the lock-free steal
   path, so these runs exercise maximal cross-worker contention — and
   must still be byte-identical to the serial run, because the
   experiment goldens are compared across --jobs values in CI. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Deque = Parallel.Deque

(* ------------------------------------------------------------------ *)
(* Deque unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_deque_owner_thief_order () =
  let d = Deque.create ~capacity:8 () in
  List.iter (Deque.push d) [ 0; 1; 2; 3 ];
  check_int "owner pops newest" 3 (Deque.pop d);
  check_int "thief steals oldest" 0 (Deque.steal d);
  check_int "thief keeps fifo order" 1 (Deque.steal d);
  check_int "owner keeps lifo order" 2 (Deque.pop d);
  check_int "empty pop" Deque.empty (Deque.pop d);
  check_int "empty steal" Deque.empty (Deque.steal d)

let test_deque_bounded () =
  let d = Deque.create ~capacity:8 () in
  for i = 0 to 7 do
    Deque.push d i
  done;
  check_bool "push into a full deque raises" true
    (match Deque.push d 8 with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "negative ids rejected" true
    (match Deque.push (Deque.create ()) (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Deque.reset d ~ensure:100;
  check_int "reset empties" 0 (Deque.size d);
  check_bool "reset grows capacity" true (Deque.capacity d >= 100)

(* Four thieves hammering one deque from other domains while the owner
   pops: every id must be claimed exactly once across all five. *)
let test_deque_concurrent_claims () =
  let n = 2000 in
  let d = Deque.create ~capacity:n () in
  for i = n - 1 downto 0 do
    Deque.push d i
  done;
  let thief () =
    let mine = ref [] in
    let rec go misses =
      if misses < 10_000 then
        match Deque.steal d with
        | x when x >= 0 ->
            mine := x :: !mine;
            go 0
        | x when x = Deque.abort -> go misses
        | _ -> go (misses + 1)
    in
    go 0;
    !mine
  in
  let thieves = List.init 4 (fun _ -> Domain.spawn thief) in
  let owned = ref [] in
  let rec drain () =
    match Deque.pop d with
    | x when x >= 0 ->
        owned := x :: !owned;
        drain ()
    | _ -> if Deque.size d > 0 then drain ()
  in
  drain ();
  let claimed = !owned @ List.concat_map Domain.join thieves in
  check_int "every task claimed exactly once" n (List.length claimed);
  let sorted = List.sort_uniq compare claimed in
  check_bool "no id lost or duplicated" true
    (sorted = List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Steal-stress determinism                                           *)
(* ------------------------------------------------------------------ *)

let with_stress f =
  let saved = Sys.getenv_opt Parallel.Pool.steal_stress_env in
  Unix.putenv Parallel.Pool.steal_stress_env "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Parallel.Pool.steal_stress_env
        (Option.value saved ~default:"0"))
    f

let test_stress_flag_roundtrip () =
  with_stress (fun () ->
      check_bool "stress visible" true (Parallel.Pool.steal_stress ()))

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

(* Boundary sweep: serial ≡ pooled ≡ pooled-under-stress. *)
let test_stress_boundaries_identical () =
  let target, rule = sweep_case 7 in
  let pool = Parallel.Pool.create ~domains:4 () in
  let serial = Engine.Compare_acls.adjacent_insertions ~target rule in
  let pooled = Engine.Compare_acls.adjacent_insertions ~pool ~target rule in
  let stressed =
    with_stress (fun () ->
        Engine.Compare_acls.adjacent_insertions ~pool ~target rule)
  in
  check_bool "pooled sweep identical" true (serial = pooled);
  check_bool "steal-stress sweep identical" true (serial = stressed)

(* Batch sweep: per-candidate boundaries and the pairwise verdicts. *)
let test_stress_batch_identical () =
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
  let serial = view (Engine.Compare_acls.batch_insertions ~target rules) in
  let pooled =
    view (Engine.Compare_acls.batch_insertions ~pool ~target rules)
  in
  let stressed =
    with_stress (fun () ->
        view (Engine.Compare_acls.batch_insertions ~pool ~target rules))
  in
  check_bool "pooled batch identical" true (serial = pooled);
  check_bool "steal-stress batch identical" true (serial = stressed)

(* E5 fleet shard: router configs and question counts byte-identical
   under maximal steal contention. *)
let e5_view (r : Evaluation.E5_fleet.result) =
  List.map
    (fun (x : Evaluation.E5_fleet.router_result) ->
      (x.router, x.questions, Config.Parser.to_string x.config))
    r.results

let test_stress_e5_identical () =
  let serial = e5_view (Evaluation.E5_fleet.run ~routers:24 ()) in
  let pool = Parallel.Pool.create ~domains:4 () in
  let pooled = e5_view (Evaluation.E5_fleet.run ~pool ~routers:24 ()) in
  let stressed =
    with_stress (fun () ->
        e5_view (Evaluation.E5_fleet.run ~pool ~routers:24 ()))
  in
  check_bool "pooled fleet identical" true (serial = pooled);
  check_bool "steal-stress fleet identical" true (serial = stressed);
  (* The skewed fleet (first 2 routers carry 4x steps) must stay
     deterministic too — it is what the straggler bench legs compare. *)
  let skew = Some (2, 4) in
  let s2 = e5_view (Evaluation.E5_fleet.run ?skew ~routers:24 ()) in
  let p2 =
    with_stress (fun () ->
        e5_view (Evaluation.E5_fleet.run ?skew ~pool ~routers:24 ()))
  in
  check_bool "skewed steal-stress fleet identical" true (s2 = p2)

(* ------------------------------------------------------------------ *)
(* Nested submission                                                  *)
(* ------------------------------------------------------------------ *)

(* A batch sweep inside a fleet-shard-shaped outer map: the inner map
   sees it is already on a worker and runs inline (serial), so the
   scheduler never deadlocks on its one-batch-at-a-time lock and the
   combined result still equals the all-serial one. *)
let test_nested_submission () =
  let corpus = Workload.Cloud.generate ~seed:5 () in
  let target = List.hd corpus.Workload.Cloud.acls in
  let rules =
    List.filteri (fun i _ -> i < 3)
      (List.nth corpus.Workload.Cloud.acls 1).Config.Acl.rules
  in
  let pool = Parallel.Pool.create ~domains:4 () in
  let shard _i =
    let s = Engine.Compare_acls.batch_insertions ~pool ~target rules in
    (Array.to_list s.per_candidate, s.overlaps, s.conflicts)
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

let test_stress_exception_priority () =
  with_stress (fun () ->
      let pool = Parallel.Pool.create ~domains:4 () in
      let f x = if x mod 7 = 3 then raise (Boom x) else x in
      (match Parallel.Pool.map pool ~f (List.init 40 Fun.id) with
      | _ -> Alcotest.fail "exception was swallowed"
      | exception Boom x ->
          check_int "smallest failing input wins under stress" 3 x);
      Alcotest.(check (list int))
        "usable after stressed failure" [ 2; 4; 6 ]
        (Parallel.Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2; 3 ]))

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

(* Steal metrics actually fire under stress: with every task in slot
   0's deque, the other workers can only obtain work by stealing. *)
let test_steals_observed_under_stress () =
  with_stress (fun () ->
      Obs.enable ();
      Obs.reset ();
      let pool = Parallel.Pool.create ~domains:4 () in
      ignore
        (Parallel.Pool.map pool
           ~f:(fun x ->
             (* enough work per task that thieves wake before it ends *)
             let r = ref 0 in
             for i = 0 to 20_000 do
               r := !r + (i * x)
             done;
             !r)
           (List.init 64 Fun.id));
      let steals =
        List.fold_left
          (fun acc d ->
            match
              Obs.Counter.find_labeled "parallel.steals"
                [ ("domain", string_of_int d) ]
            with
            | Some c -> acc + Obs.Counter.value c
            | None -> acc)
          0 [ 0; 1; 2; 3 ]
      in
      Obs.disable ();
      check_bool
        (Printf.sprintf "cross-worker steals recorded (%d)" steals)
        true (steals > 0))

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

(* ------------------------------------------------------------------ *)
(* The caller's manager as the sweep's base                           *)
(* ------------------------------------------------------------------ *)

(* A pooled boundary sweep compiles into the caller's own manager and
   freezes it only while the workers read it through deltas. *)

let serial_sweep (target, rule) =
  Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) (fun () ->
      Engine.Compare_acls.adjacent_insertions ~target rule)

exception Slice_failed

(* A first-match family whose reads allocate and whose slice at
   position 8 raises: a pooled sweep over it fails in a worker task. *)
module Failing = Engine.First_match.Sweep (struct
  type target = int
  type rule = unit
  type difference = unit
  type partition = Symbdd.Bdd.t array

  let width n = n

  let compile n _ =
    Array.init n (fun i ->
        Symbdd.Bvec.eq_const (Symbdd.Bvec.sequential ~first:0 ~width:8) i)

  let fork p = p

  let cell_boundaries p _ (start, len) =
    if start = 8 then raise Slice_failed;
    List.init len (fun j ->
        ignore (Symbdd.Bdd.neg p.(start + j));
        (start + j, Some ()))

  let witness _ _ _ = ()
  let classify _ _ _ = Engine.First_match.Disjoint
end)

let test_caller_manager_writable_after_sweep () =
  let open Symbdd in
  let pool = Parallel.Pool.create ~domains:4 () in
  let target, rule = sweep_case 7 in
  let m = Bdd.Manager.create () in
  Bdd.with_manager m (fun () ->
      let e0 = Bdd.Manager.freeze_epoch m in
      ignore (Engine.Compare_acls.adjacent_insertions ~pool ~target rule);
      check_int "the sweep froze the caller's manager once" (e0 + 1)
        (Bdd.Manager.freeze_epoch m);
      check_bool "writable after a pooled sweep" false (Bdd.Manager.frozen m);
      check_bool "a failing task's exception reaches the caller" true
        (match Failing.adjacent_insertions ~pool 32 () with
        | _ -> false
        | exception Slice_failed -> true);
      check_bool "writable after a failed pooled sweep" false
        (Bdd.Manager.frozen m);
      let fresh = Bdd.var 300 in
      check_bool "and it allocates" true (Bdd.is_sat fresh))

(* Each pooled sweep is one freeze: the caller allocates in between,
   growing its store past the capacity the first sweep's deltas
   captured, so those cached deltas must not be reused. *)
let test_sweeps_across_caller_growth () =
  let open Symbdd in
  let pool = Parallel.Pool.create ~domains:4 () in
  let first = sweep_case 7 and second = sweep_case 11 in
  let m = Bdd.Manager.create () in
  let pooled (target, rule) =
    Engine.Compare_acls.adjacent_insertions ~pool ~target rule
  in
  let a, b =
    Bdd.with_manager m (fun () ->
        let a = pooled first in
        let before = (Bdd.Manager.stats m).next_id in
        let v = Bvec.sequential ~first:0 ~width:16 in
        for i = 0 to 20_000 do
          ignore (Bvec.eq_const v i)
        done;
        check_bool "the caller's store grew between the sweeps" true
          ((Bdd.Manager.stats m).next_id - before > 16_384);
        (a, pooled second))
  in
  check_bool "first pooled sweep = serial" true (a = serial_sweep first);
  check_bool "second pooled sweep = serial" true (b = serial_sweep second)

(* Inside a task of a pool with a base, the current manager is a delta:
   it cannot be lent out, so the inner sweep reads serially. *)
let test_sweep_inside_pooled_task () =
  let open Symbdd in
  let pool = Parallel.Pool.create ~domains:4 () in
  let ((target, rule) as case) = sweep_case 7 in
  let base = Bdd.Manager.create () in
  Bdd.Manager.freeze base;
  let results =
    Parallel.Pool.map ~bdd_base:base pool
      ~f:(fun _ ->
        ( Bdd.Manager.is_delta (Bdd.manager ()),
          Engine.Compare_acls.adjacent_insertions ~pool ~target rule ))
      (List.init 4 Fun.id)
  in
  let serial = serial_sweep case in
  check_bool "tasks run on deltas" true (List.for_all fst results);
  check_bool "inner pooled sweeps = serial" true
    (List.for_all (fun (_, r) -> r = serial) results)

let test_frozen_during () =
  let open Symbdd in
  let m = Bdd.Manager.create () in
  let e0 = Bdd.Manager.freeze_epoch m in
  check_bool "an exception passes through" true
    (match
       Bdd.Manager.frozen_during m (fun () ->
           check_bool "frozen inside" true (Bdd.Manager.frozen m);
           raise Exit)
     with
    | () -> false
    | exception Exit -> true);
  check_bool "writable again after a raise" false (Bdd.Manager.frozen m);
  check_int "one epoch per freeze" (e0 + 1) (Bdd.Manager.freeze_epoch m);
  Bdd.Manager.freeze m;
  Bdd.Manager.frozen_during m ignore;
  check_bool "an already frozen manager stays frozen" true
    (Bdd.Manager.frozen m);
  check_int "and keeps its epoch" (e0 + 2) (Bdd.Manager.freeze_epoch m)

let () =
  Alcotest.run "scheduler"
    [
      ( "deque",
        [
          Alcotest.test_case "owner/thief order" `Quick
            test_deque_owner_thief_order;
          Alcotest.test_case "bounded + reset" `Quick test_deque_bounded;
          Alcotest.test_case "concurrent claims exactly once" `Quick
            test_deque_concurrent_claims;
        ] );
      ( "steal-stress determinism",
        [
          Alcotest.test_case "stress flag roundtrip" `Quick
            test_stress_flag_roundtrip;
          Alcotest.test_case "boundaries identical" `Slow
            test_stress_boundaries_identical;
          Alcotest.test_case "batch identical" `Slow
            test_stress_batch_identical;
          Alcotest.test_case "E5 fleet identical" `Slow
            test_stress_e5_identical;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "nested submission" `Slow test_nested_submission;
          Alcotest.test_case "exception priority under stress" `Quick
            test_stress_exception_priority;
          Alcotest.test_case "workers persist across batches" `Quick
            test_workers_persist_across_batches;
          Alcotest.test_case "steals observed under stress" `Quick
            test_steals_observed_under_stress;
          Alcotest.test_case "deltas reset between batches" `Quick
            test_delta_reset_between_batches;
        ] );
      ( "caller's manager",
        [
          Alcotest.test_case "writable after a pooled sweep" `Quick
            test_caller_manager_writable_after_sweep;
          Alcotest.test_case "pooled sweeps across caller growth" `Quick
            test_sweeps_across_caller_growth;
          Alcotest.test_case "pooled sweep inside a pooled task" `Quick
            test_sweep_inside_pooled_task;
          Alcotest.test_case "frozen_during" `Quick test_frozen_during;
        ] );
    ]
