(* batch-mixed: one [Clarify.Batch.run] per batch on a pool of [nproc]
   domains, over a route-map and an ACL of moderate width, followed by a
   [Batch.insert_prefix_list_entries] segment. Intents overlap stanzas
   and each other, some are submitted twice (so the answer cache is
   used), and a seeded fault schedule forces repair loops. *)

module B = Clarify.Batch
module D = Clarify.Disambiguator
module AD = Clarify.Acl_disambiguator
module PD = Clarify.Prefix_list_disambiguator

let setups = 3
let distinct = 240
let per_window = 8 (* batches between two readings of the host's speed *)

type batch = { b : Gen.batch; db : Config.Database.t }

let setup ~seed () =
  Gen.batches ~seed ~n:distinct
  |> List.map (fun (b : Gen.batch) -> { b; db = Config.Parser.parse_exn b.btext })
  |> Array.of_list

(* The user answers from the reference config: the new rule goes first
   exactly when the reference treats the witness as the new rule does.
   The answer depends on the question alone, as the batch's shared
   answer cache assumes. *)
let rm_oracle (b : Gen.batch) (q : D.question) =
  let want = Option.get (Config.Database.route_map b.breference Gen.rm_target) in
  if
    Config.Semantics.route_result_equal
      (Config.Semantics.eval_route_map b.breference want q.route)
      q.if_new_first
  then D.Prefer_new
  else D.Prefer_old

let acl_oracle (b : Gen.batch) (q : AD.question) =
  let want = Option.get (Config.Database.acl b.breference Gen.acl_target) in
  if Config.Semantics.eval_acl want q.packet = q.if_new_first then AD.Prefer_new
  else AD.Prefer_old

let pl_action pl p = Option.value (Config.Prefix_list.eval pl p) ~default:Config.Action.Deny

let pl_oracle (b : Gen.batch) (q : PD.question) =
  let want = Option.get (Config.Database.prefix_list b.breference Gen.pl_target) in
  if pl_action want q.prefix = q.if_new_first then PD.Prefer_new else PD.Prefer_old

let batch_oracle b ~intent:_ ~target:_ = function
  | B.Route_map_q q -> rm_oracle b q
  | B.Acl_q q -> acl_oracle b q

let intents (b : Gen.batch) = List.length b.items + List.length b.prefix_items

(* A batch's final config and the witnesses its questions carried. *)
type result = {
  db : Config.Database.t;
  routes : Bgp.Route.t list;
  packets : Config.Packet.t list;
  prefixes : Netaddr.Prefix.t list;
}

let witnesses (r : B.report) (p : B.prefix_report) =
  let routes, packets =
    List.fold_left
      (fun (rs, ps) -> function
        | B.Route_map_result rr ->
            (List.map (fun (q : D.question) -> q.route) rr.questions @ rs, ps)
        | B.Acl_result ar ->
            (rs, List.map (fun (q : AD.question) -> q.packet) ar.questions @ ps))
      ([], []) r.items
  in
  let prefixes =
    List.concat_map
      (fun (o : PD.outcome) -> List.map (fun (q : PD.question) -> q.prefix) o.questions)
      p.outcomes
  in
  { db = p.db; routes; packets; prefixes }

let run_one (s : Drive.samples) pool batch =
  let b = batch.b in
  let llm = Llm.Mock_llm.create ~faults:b.faults () in
  let clk = Drive.start () in
  let r =
    Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) (fun () ->
        match
          B.run ~pool ~llm
            ~oracle:(fun ~intent ~target q -> Drive.ask clk (batch_oracle b ~intent ~target) q)
            ~db:batch.db b.items
        with
        | Error _ -> None
        | Ok report -> (
            match
              B.insert_prefix_list_entries
                ~oracle:(fun ~intent:_ ~target:_ q -> Drive.ask clk (pl_oracle b) q)
                ~db:report.db b.prefix_items
            with
            | Error _ -> None
            | Ok p -> Some (witnesses report p)))
  in
  Drive.finish s clk ~intents:(intents b);
  s.llm_calls <- s.llm_calls + Llm.Mock_llm.total_calls llm;
  r

(* The same intents one by one through [Pipeline] and the prefix-list
   disambiguator: the batch must produce this config byte for byte. *)
let sequential batch =
  let b = batch.b in
  let llm = Llm.Mock_llm.create ~faults:b.faults () in
  let db =
    List.fold_left
      (fun db item ->
        match item with
        | B.Route_map_update { target; prompt } -> (
            match
              Clarify.Pipeline.run_route_map_update ~llm ~oracle:(rm_oracle b) ~db ~target
                ~prompt ()
            with
            | Ok r -> r.db
            | Error e -> failwith (Clarify.Pipeline.error_to_string e))
        | B.Acl_update { target; prompt } -> (
            match
              Clarify.Pipeline.run_acl_update ~llm ~oracle:(acl_oracle b) ~db ~target ~prompt ()
            with
            | Ok r -> r.db
            | Error e -> failwith (Clarify.Pipeline.error_to_string e)))
      batch.db b.items
  in
  List.fold_left
    (fun db ({ target; entry } : B.prefix_item) ->
      let pl = Option.get (Config.Database.prefix_list db target) in
      match PD.run ~target:pl ~entry ~oracle:(pl_oracle b) () with
      | Ok o -> Config.Database.add_prefix_list db o.prefix_list
      | Error _ -> failwith "prefix-list answers are inconsistent")
    db b.prefix_items

let correct batch = function
  | None -> false
  | Some r ->
      let b = batch.b in
      let same_routes () =
        let got = Option.get (Config.Database.route_map r.db Gen.rm_target) in
        let want = Option.get (Config.Database.route_map b.breference Gen.rm_target) in
        List.for_all
          (fun route ->
            Config.Semantics.route_result_equal
              (Config.Semantics.eval_route_map r.db got route)
              (Config.Semantics.eval_route_map b.breference want route))
          (b.broutes @ r.routes)
      in
      let same_packets () =
        let got = Option.get (Config.Database.acl r.db Gen.acl_target) in
        let want = Option.get (Config.Database.acl b.breference Gen.acl_target) in
        List.for_all
          (fun p -> Config.Semantics.eval_acl got p = Config.Semantics.eval_acl want p)
          (b.packets @ r.packets)
      in
      let same_prefixes () =
        let got = Option.get (Config.Database.prefix_list r.db Gen.pl_target) in
        let want = Option.get (Config.Database.prefix_list b.breference Gen.pl_target) in
        List.for_all (fun p -> pl_action got p = pl_action want p) (b.prefixes @ r.prefixes)
      in
      same_routes () && same_packets () && same_prefixes ()
      && (match sequential batch with
         | db -> Config.Parser.to_string db = Config.Parser.to_string r.db
         | exception Failure _ -> false)

(* Where earlier batch insertions sit among a target's original entries,
   so that boundaries from the batch sweep, in original positions, can
   be moved to current ones as [Batch.run] does on its fast path. *)
type slot = Orig of int | New

let insert_slot slots p =
  List.filteri (fun i _ -> i < p) slots @ (New :: List.filteri (fun i _ -> i >= p) slots)

let current_index slots =
  let tbl = Hashtbl.create 64 in
  List.iteri (fun idx -> function Orig i -> Hashtbl.add tbl i idx | New -> ()) slots;
  Hashtbl.find tbl

(* One batch through the layers, as [Batch.run] runs it: every intent
   synthesized in order against the accumulating config; one
   multi-stanza sweep per target over the result, timed as
   [engine.batch]; then each intent placed in order, from the batch
   sweep's boundaries when it overlaps no other intent of the batch and
   from a live sweep otherwise, answers shared through one cache. The
   prefix-list segment follows with a cache of its own. *)
let traced_one (t : Drive.tr) (s : Drive.samples) pool batch =
  let b = batch.b in
  let llm = Llm.Mock_llm.create ~faults:b.faults () in
  let clk = Drive.start () in
  let db =
    Drive.traced_unit t ~manager:Symbdd.Bdd.Manager.create (fun () ->
        let db_all, synths =
          List.fold_left
            (fun (db, acc) item ->
              match item with
              | B.Route_map_update { prompt; _ } ->
                  let db, stanza = Drive.traced_synth_route_map t ~llm ~db ~prompt in
                  (db, `Stanza stanza :: acc)
              | B.Acl_update { prompt; _ } ->
                  (db, `Rule (Drive.traced_synth_acl t ~llm ~prompt) :: acc))
            (batch.db, []) b.items
        in
        let synths = Array.of_list (List.rev synths) in
        (* Each kind's (intent index, candidate), in input order. *)
        let of_kind f =
          Array.of_list
            (List.concat
               (List.mapi
                  (fun k x -> match f x with Some v -> [ (k, v) ] | None -> [])
                  (Array.to_list synths)))
        in
        let stanzas = of_kind (function `Stanza s -> Some s | `Rule _ -> None)
        and rules = of_kind (function `Rule r -> Some r | `Stanza _ -> None) in
        let local ks k =
          let rec find i = if fst ks.(i) = k then i else find (i + 1) in
          find 0
        in
        let overlapping = Array.make (Array.length synths) false in
        let mark ks overlaps conflicts =
          List.iter
            (fun (i, j) ->
              overlapping.(fst ks.(i)) <- true;
              overlapping.(fst ks.(j)) <- true)
            overlaps;
          t.conflicts <- t.conflicts + conflicts
        in
        let t0 = Drive.now () in
        let rm_target = Drive.route_map db_all Gen.rm_target in
        let rm_sweep =
          Layer.span t.acc Layer.Batch (fun () ->
              Engine.Compare_route_policies.batch_insertions ~pool ~db:db_all ~target:rm_target
                (Array.to_list (Array.map snd stanzas)))
        in
        mark stanzas rm_sweep.overlaps (List.length rm_sweep.conflicts);
        let acl = Option.get (Config.Database.acl db_all Gen.acl_target) in
        let acl_sweep =
          Layer.span t.acc Layer.Batch (fun () ->
              Engine.Compare_acls.batch_insertions ~pool ~target:acl
                (Array.to_list (Array.map snd rules)))
        in
        mark rules acl_sweep.overlaps (List.length acl_sweep.conflicts);
        t.batch_sweep_s <- (Drive.now () -. t0) :: t.batch_sweep_s;
        let cache = Clarify.Disambig_common.Answer_cache.create () in
        let rm = ref (rm_target, List.mapi (fun i _ -> Orig i) rm_target.Config.Route_map.stanzas)
        and fw = ref (acl, List.mapi (fun i _ -> Orig i) acl.Config.Acl.rules) in
        let place db k = function
          | `Stanza stanza ->
              let target, slots = !rm in
              let precomputed =
                if overlapping.(k) then None
                else
                  let cur = Array.of_list target.Config.Route_map.stanzas
                  and at = current_index slots in
                  Some
                    (List.map
                       (fun (i, (d : Engine.Compare_route_policies.difference)) ->
                         {
                           D.position = at i;
                           boundary_seq = cur.(at i).Config.Route_map.seq;
                           route = d.route;
                           if_new_first = d.result_a;
                           if_old_first = d.result_b;
                         })
                       rm_sweep.per_candidate.(local stanzas k))
              in
              let ask =
                Drive.traced_ask t clk ~cache ~policy:Gen.rm_target ~view:D.view (rm_oracle b)
              in
              let o = Drive.traced_place_route_map t ~pool ?precomputed ~ask ~db ~target stanza in
              rm := (o.D.map, insert_slot slots o.D.position);
              Config.Database.add_route_map db o.D.map
          | `Rule rule ->
              let target, slots = !fw in
              let precomputed =
                if overlapping.(k) then None
                else
                  let cur = Array.of_list target.Config.Acl.rules and at = current_index slots in
                  Some
                    (List.map
                       (fun (i, (d : Engine.Compare_acls.difference)) ->
                         {
                           AD.position = at i;
                           boundary_seq = cur.(at i).Config.Acl.seq;
                           packet = d.packet;
                           if_new_first = d.action_a;
                           if_old_first = d.action_b;
                         })
                       acl_sweep.per_candidate.(local rules k))
              in
              let ask =
                Drive.traced_ask t clk ~cache ~policy:Gen.acl_target ~view:AD.view (acl_oracle b)
              in
              let o = Drive.traced_place_acl t ~pool ?precomputed ~ask ~target rule in
              fw := (o.AD.acl, insert_slot slots o.AD.position);
              Config.Database.add_acl db o.AD.acl
        in
        let db = ref db_all in
        Array.iteri (fun k x -> db := place !db k x) synths;
        let cache = Clarify.Disambig_common.Answer_cache.create () in
        List.fold_left
          (fun db ({ target; entry } : B.prefix_item) ->
            let pl = Option.get (Config.Database.prefix_list db target) in
            let ask = Drive.traced_ask t clk ~cache ~policy:target ~view:PD.view (pl_oracle b) in
            match
              Layer.span t.acc Layer.Disambig (fun () -> PD.run ~target:pl ~entry ~oracle:ask ())
            with
            | Ok o -> Config.Database.add_prefix_list db o.prefix_list
            | Error _ -> Drive.fail "prefix-list answers are inconsistent")
          !db b.prefix_items)
  in
  Drive.finish s clk ~intents:(intents b);
  s.llm_calls <- s.llm_calls + Llm.Mock_llm.total_calls llm;
  db

let run ~seed ~seconds ~trace =
  let nproc = Domain.recommended_domain_count () in
  let pool = Parallel.Pool.create ~domains:nproc () in
  let setup_s, batches = Drive.repeat_setup setups (setup ~seed) in
  let nb = Array.length batches in
  let results = Array.make nb None in
  let runs = Array.make nb 0 in
  let budget = if trace then seconds /. 2. else seconds in
  (* A window is [per_window] batches back to back. *)
  let s, walls =
    Drive.windows ~pool ~deadline:(Drive.now () +. budget) (fun w ->
        let s = Drive.samples () and wall = ref 0. in
        for i = w * per_window to ((w + 1) * per_window) - 1 do
          let t = Drive.now () in
          let r = run_one s pool batches.(i mod nb) in
          wall := !wall +. (Drive.now () -. t);
          runs.(i mod nb) <- runs.(i mod nb) + 1;
          if i < nb then results.(i) <- r
        done;
        (s, !wall))
  in
  let calls = per_window * List.length walls in
  let peak_rss_mb = Stats.peak_rss_mb () in
  let distinct = min calls nb in
  let failed = ref 0 in
  for i = 0 to distinct - 1 do
    if not (correct batches.(i) results.(i)) then
      failed := !failed + (runs.(i) * intents batches.(i).b)
  done;
  let layers =
    if not trace then []
    else begin
      let ts = List.init calls (fun _ -> Drive.tr ()) in
      let ts_samples = Drive.samples () in
      let traced, gc_major, top_heap =
        Drive.gc_delta (fun () ->
            List.mapi (fun i t -> traced_one t ts_samples pool batches.(i mod nb)) ts)
      in
      List.iteri
        (fun i db ->
          if i < distinct then
            match results.(i) with
            | Some r when Config.Parser.to_string r.db = Config.Parser.to_string db -> ()
            | _ -> failed := !failed + intents batches.(i).b)
        traced;
      let recording =
        Drive.recording ~deadline:(Drive.now () +. (seconds /. 4.)) (fun i ->
            let s = Drive.samples () in
            ignore (run_one s pool batches.(i mod nb));
            (Stats.Series.sum s.intent_s, s.intents))
      in
      Report.per_layer_values (Drive.merge_tr ts) ts_samples
        {
          Report.units = calls;
          pool = None;
          netgen = None;
          gc_major;
          gc_top_heap_words = top_heap;
          recording;
          widest_share = 0.;
        }
    end
  in
  {
    Drive.setup_s;
    peak_rss_mb;
    rates = Drive.rates walls;
    samples = s;
    tails = (90., 90., 99.);
    failed = !failed;
    notes =
      [
        Printf.sprintf "nproc %d, domains %d, batches %d (distinct %d), %d intents each" nproc
          (Parallel.Pool.domains pool) calls distinct (s.intents / max 1 calls);
      ];
    layers;
  }
