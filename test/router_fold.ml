(* The per-router loop E4 and E5 ran before each router became one
   [Clarify.Batch.run] ([Evaluation.Router_batch.build]): every step
   through [Pipeline.run_route_map_update] against the config the
   earlier steps left, its target map created empty when first touched,
   the user answering from that map's reference. Kept as the reference
   the batch path must equal, router by router. *)

let build ~reference (steps : Netgen.Policy.step list) =
  let llm = Llm.Mock_llm.create () in
  let config, questions =
    List.fold_left
      (fun (db, questions) { Netgen.Policy.map; intent } ->
        let db =
          if Config.Database.route_map db map = None then
            Config.Database.add_route_map db (Config.Route_map.make map [])
          else db
        in
        let want = Option.get (Config.Database.route_map reference map) in
        let oracle =
          Clarify.Disambiguator.intent_driven
            (Config.Semantics.eval_route_map reference want)
        in
        match
          Clarify.Pipeline.run_route_map_update ~llm ~oracle ~db ~target:map
            ~prompt:(Llm.Intent.to_prompt intent) ()
        with
        | Ok r -> (r.db, questions + List.length r.questions)
        | Error e ->
            failwith
              (Printf.sprintf "%s: %s" map (Clarify.Pipeline.error_to_string e)))
      (Config.Database.empty, 0) steps
  in
  {
    Evaluation.Router_batch.config;
    questions;
    synthesis_calls = (Llm.Mock_llm.stats llm).synthesis_calls;
    total_llm_calls = Llm.Mock_llm.total_calls llm;
  }
