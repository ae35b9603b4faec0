(* perfbench: one closed-loop workload at one seed.

     main.exe --workload fleet|wide-update|batch-mixed --seed N
              --seconds S --trace 0|1

   Prints every metric by name with its unit, then, as the last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones of the untraced run;
   with --trace 1 they are the per-layer ones of the traced run. *)

let workloads =
  [
    ("fleet", Perfbench.Fleet.run);
    ("wide-update", Perfbench.Wide.run);
    ("batch-mixed", Perfbench.Batch_mixed.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload fleet|wide-update|batch-mixed --seed N --seconds S --trace 0|1";
  exit 2

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let name = get "workload" in
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = int "trace" = 1 in
  let (o : Perfbench.Drive.outcome) = run ~seed ~seconds ~trace in
  let attempted = o.samples.intents in
  Printf.printf "perfbench %s seed %d seconds %g trace %b\n" name seed seconds trace;
  List.iter (Printf.printf "  %s\n") o.notes;
  let e2e = Perfbench.Report.end_to_end_values o in
  List.iter
    (fun (n, v, u, note) ->
      Printf.printf "  %-28s %14.4f %-6s %s\n" n v u (if note = "" then "" else "(" ^ note ^ ")"))
    e2e;
  Printf.printf "  %-28s %14.4f %-6s (%d of %d intents)\n" "failed_ratio"
    (Perfbench.Stats.ratio (float_of_int o.failed) (float_of_int attempted))
    "ratio" o.failed attempted;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.4f %s\n" n v u) o.layers;
  let metrics =
    if trace then o.layers else List.map (fun (n, v, u, _) -> (n, v, u)) e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) (max 1 attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))
