(* Seed discipline: the same seed gives byte-identical inputs and the
   same deterministic counts; another seed gives other inputs. Runs on
   small inputs so it stays cheap. *)

open Perfbench

let check name ok =
  if not ok then (
    Printf.eprintf "FAIL %s\n" name;
    exit 1)
  else Printf.printf "ok %s\n" name

let wide_inputs seed =
  List.map
    (fun (w : Gen.wide) ->
      (w.text, w.prompt, w.reference, w.routes))
    (Gen.wide ~seed ~rounds:1)

let batch_inputs seed =
  List.map
    (fun (b : Gen.batch) ->
      ( b.btext,
        b.items,
        b.prefix_items,
        b.faults,
        Config.Parser.to_string b.breference,
        b.broutes,
        b.packets,
        b.prefixes ))
    (Gen.batches ~seed ~n:2)

(* Questions, LLM calls and boundaries per position of a short traced
   wide-update pass: counts, not times, so they must repeat exactly. *)
let wide_counts seed =
  let sessions = Wide.setup ~seed () in
  let t = Drive.tr () and s = Drive.samples () in
  Array.iteri (fun i w -> if i < 2 then ignore (Wide.traced_one t s w (Wide.user w))) sessions;
  let bpp =
    List.assoc "engine.boundaries_per_position"
      (List.map (fun (n, v, _) -> (n, v))
         (Report.per_layer_values t s
            {
              Report.units = 2;
              pool = None;
              netgen = None;
              gc_major = 0;
              gc_top_heap_words = 0;
              recording = (0., 0.);
              widest_share = 0.;
            }))
  in
  (s.questions, s.llm_calls, bpp)

let () =
  check "wide-update inputs repeat under one seed" (wide_inputs 7 = wide_inputs 7);
  check "wide-update inputs change with the seed" (wide_inputs 7 <> wide_inputs 8);
  check "batch-mixed inputs repeat under one seed" (batch_inputs 7 = batch_inputs 7);
  check "batch-mixed inputs change with the seed" (batch_inputs 7 <> batch_inputs 8);
  let order seed = Array.map (fun (p : Netgen.Policy.plan) -> p.router) (Fleet.setup ~seed ()).plans in
  check "fleet order repeats under one seed" (order 7 = order 7);
  check "fleet order changes with the seed" (order 7 <> order 8);
  check "traced counts repeat under one seed" (wide_counts 7 = wide_counts 7)
