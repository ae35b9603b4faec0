(* wide-update: serial [clarify update] sessions against route-maps of
   64 to 512 stanzas. Each session is one intent: a fresh LLM, an empty
   BDD manager and an intent-driven user answering from a hand-built
   reference. *)

let target = Gen.wide_target
let rounds = 40 (* distinct sessions: 5 per round *)
let setups = 5

(* Set-up generates every session's config text; each session parses
   its own, as a [clarify update] run reads its config file. Keeping the
   inputs as text also keeps the long-lived heap small, so the garbage
   collector's share of a session does not depend on how many distinct
   sessions a run holds. *)
let setup ~seed () = Array.of_list (Gen.wide ~seed ~rounds)

(* A session's simulated user, built before the session starts. *)
type user = { reference : Config.Database.t; oracle : Clarify.Disambiguator.oracle }

let user (w : Gen.wide) =
  let reference = Config.Parser.parse_exn w.reference in
  let map = Option.get (Config.Database.route_map reference target) in
  {
    reference;
    oracle = Clarify.Disambiguator.intent_driven (Config.Semantics.eval_route_map reference map);
  }

(* A session's final config and the routes its questions carried. *)
type result = { db : Config.Database.t; witnesses : Bgp.Route.t list }

(* Sessions run back to back under one BDD manager, reset to empty before
   each: nothing compiled carries over, and the manager's memory is
   reused instead of faulted in afresh per session, which made session
   times swing from run to run with the host's memory behaviour. *)
let manager = lazy (Symbdd.Bdd.Manager.create ())

let reset_manager () =
  let m = Lazy.force manager in
  Symbdd.Bdd.Manager.reset m;
  m

let run_one (s : Drive.samples) (w : Gen.wide) u =
  let llm = Llm.Mock_llm.create () in
  let clk = Drive.start () in
  let r =
    Symbdd.Bdd.with_manager (reset_manager ()) (fun () ->
        match Config.Parser.parse w.text with
        | Error _ -> None
        | Ok db -> (
            match
              Clarify.Pipeline.run_route_map_update ~llm ~oracle:(Drive.ask clk u.oracle) ~db
                ~target ~prompt:w.prompt ()
            with
            | Ok r ->
                Some
                  {
                    db = r.Clarify.Pipeline.db;
                    witnesses =
                      List.map
                        (fun (q : Clarify.Disambiguator.question) -> q.route)
                        r.questions;
                  }
            | Error _ -> None))
  in
  Drive.finish s clk ~intents:1;
  Stats.Series.add s.unit_s (Drive.now () -. clk.submit);
  s.llm_calls <- s.llm_calls + Llm.Mock_llm.total_calls llm;
  r

let traced_one (t : Drive.tr) (s : Drive.samples) (w : Gen.wide) u =
  let llm = Llm.Mock_llm.create () in
  let clk = Drive.start () in
  let ask = Drive.traced_ask t clk ~policy:target ~view:Clarify.Disambiguator.view u.oracle in
  let db =
    Drive.traced_unit t ~manager:reset_manager (fun () ->
        let db = Layer.span t.acc Layer.Config (fun () -> Config.Parser.parse_exn w.text) in
        Drive.traced_route_map t ~llm ~ask ~db ~target ~prompt:w.prompt)
  in
  Drive.finish s clk ~intents:1;
  Stats.Series.add s.unit_s (Drive.now () -. clk.submit);
  s.llm_calls <- s.llm_calls + Llm.Mock_llm.total_calls llm;
  db

(* The final map must behave as the reference on the sample routes and
   on every question's witness, under the concrete interpreter. *)
let correct (w : Gen.wide) u = function
  | None -> false
  | Some r ->
      let got = Option.get (Config.Database.route_map r.db target) in
      let want = Option.get (Config.Database.route_map u.reference target) in
      List.for_all
        (fun route ->
          Config.Semantics.route_result_equal
            (Config.Semantics.eval_route_map r.db got route)
            (Config.Semantics.eval_route_map u.reference want route))
        (w.routes @ r.witnesses)

(* Sessions run back to back; their walls add up to the measured time,
   and each distinct session is checked right after its first run,
   outside that time. *)
let run ~seed ~seconds ~trace =
  let setup_s, sessions = Drive.repeat_setup setups (setup ~seed) in
  let n = Array.length sessions in
  let bad = Array.make n false and final = Array.make n "" in
  let budget = if trace then seconds /. 2. else seconds in
  (* A window is one session, between two single-kernel readings of the
     host's speed: sessions are short, and the host's speed changes
     within seconds. *)
  let s, walls =
    Drive.windows ~per_domain:1 ~pool:Parallel.Pool.serial
      ~deadline:(Drive.now () +. budget) (fun i ->
        let s = Drive.samples () and w = sessions.(i mod n) in
        let u = user w in
        let res = run_one s w u in
        if i < n then begin
          bad.(i) <- not (correct w u res);
          Option.iter (fun res -> final.(i) <- Config.Parser.to_string res.db) res
        end;
        (s, Stats.Series.sum s.unit_s))
  in
  let calls = List.length walls in
  let peak_rss_mb = Stats.peak_rss_mb () in
  (* Throughput is taken per round: five sessions, one of each width. *)
  let rates =
    let walls = Array.of_list (List.map snd walls) in
    List.init (calls / 5) (fun r -> 5. /. Stats.sum (Array.to_list (Array.sub walls (5 * r) 5)))
  in
  let distinct = min calls n in
  let failed =
    ref (List.length (List.filter (fun i -> bad.(i mod n)) (List.init calls Fun.id)))
  in
  let layers =
    if not trace then []
    else begin
      (* The same sessions again, through the layers. *)
      let ts = Array.init calls (fun _ -> Drive.tr ()) in
      let ts_samples = Drive.samples () in
      let (), gc_major, top_heap =
        Drive.gc_delta (fun () ->
            for i = 0 to calls - 1 do
              let w = sessions.(i mod n) in
              let db = traced_one ts.(i) ts_samples w (user w) in
              if i < distinct && Config.Parser.to_string db <> final.(i) then incr failed
            done)
      in
      let widest =
        List.filteri (fun i _ -> sessions.(i mod n).width = 512) (Array.to_list ts)
      in
      let recording =
        Drive.recording ~deadline:(Drive.now () +. (seconds /. 4.)) (fun i ->
            let s = Drive.samples () and w = sessions.(i mod n) in
            ignore (run_one s w (user w));
            (Stats.Series.sum s.intent_s, s.intents))
      in
      Report.per_layer_values (Drive.merge_tr (Array.to_list ts)) ts_samples
        {
          Report.units = calls;
          pool = None;
          netgen = None;
          gc_major;
          gc_top_heap_words = top_heap;
          recording;
          widest_share = Report.sweep_share widest;
        }
    end
  in
  {
    Drive.setup_s;
    peak_rss_mb;
    rates;
    samples = s;
    tails = (90., 90., 90.);
    failed = !failed;
    notes = [ Printf.sprintf "sessions %d (distinct %d), widths 64/128/256/256/512" calls distinct ];
    layers;
  }
