(** One router of the Section-5 experiments (E4 and E5): its route-map
    steps placed with one {!Clarify.Batch.run}, the loop behind
    [clarify batch], answered by a user who follows the router's
    reference configuration. *)

module B = Clarify.Batch

type built = {
  config : Config.Database.t;
  questions : int; (* the paper's "#Disambiguation" *)
  synthesis_calls : int; (* the paper's "#LLM calls" *)
  total_llm_calls : int; (* including classification and spec extraction *)
}

(* With a record directory, [f] runs under its own channel recorder,
   DIR/[log], tagged with a router context label: `clarify report DIR`
   rebuilds the per-router tables from the logs, and `clarify replay`
   re-runs each router's session. The log closes with a point-in-time
   gauge sample (GC, BDD managers, pool) that only the JSON report
   reads. *)
let with_recording ~record_dir ~log ~router f =
  match record_dir with
  | None -> f ()
  | Some dir ->
      let oc = open_out (Filename.concat dir log) in
      Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
      Telemetry.with_channel_recorder oc @@ fun () ->
      Telemetry.with_context [ ("router", router) ] @@ fun () ->
      let r = f () in
      Telemetry.emit ~kind:"gauges" (fun () ->
          List.map (fun (n, v) -> (n, Json.Float v)) (Obs.Gauge.sample_all ()));
      r

(* Every target map is created up front, empty, and one oracle answers
   each question from its target's reference map. A failure names the
   router and the failing step's map. *)
let build ~experiment ~router ~reference (steps : Netgen.Policy.step list) =
  let db =
    List.fold_left
      (fun db { Netgen.Policy.map; _ } ->
        Config.Database.add_route_map db (Config.Route_map.make map []))
      Config.Database.empty steps
  in
  let oracle ~intent:_ ~target = function
    | B.Route_map_q q ->
        let want = Option.get (Config.Database.route_map reference target) in
        Clarify.Disambiguator.intent_driven
          (Config.Semantics.eval_route_map reference want)
          q
    | B.Acl_q _ -> assert false (* every item is a route-map update *)
  in
  let items =
    List.map
      (fun { Netgen.Policy.map; intent } ->
        B.Route_map_update { target = map; prompt = Llm.Intent.to_prompt intent })
      steps
  in
  match B.run ~llm:(Llm.Mock_llm.create ()) ~oracle ~db items with
  | Error { intent; reason } ->
      failwith
        (Printf.sprintf "%s %s %s: %s" experiment router
           (List.nth steps intent).map
           (Clarify.Pipeline.error_to_string reason))
  | Ok { db; items; _ } ->
      let sum f =
        List.fold_left
          (fun n -> function B.Route_map_result r -> n + f r | _ -> n)
          0 items
      in
      {
        config = db;
        questions = sum (fun r -> List.length r.questions);
        synthesis_calls = sum (fun r -> r.synthesis_attempts);
        total_llm_calls = sum (fun r -> r.llm_calls);
      }
