(* The whole-file log loader: one JSONL flight-recorder log read back
   at once as events, with enough identity (name, router) for
   aggregation. It is the reference the tests hold Analytics.Stream's
   incremental reader to; both apply the tolerant final-line rule of
   Telemetry.parse_events, and both fold through Report.Acc. *)

module E = Telemetry.Event

type t = {
  name : string; (* file basename without extension, e.g. "e4_R1" *)
  path : string;
  events : E.t list;
}

(* The router a session ran for: the first ctx "router" label found in
   its events (stamped by Telemetry.with_context around each router's
   evaluation run), else the session name — a per-router log file named
   e4_R1.jsonl identifies itself even without context labels. *)
let router t =
  let from_ctx =
    List.find_map (fun e -> List.assoc_opt "router" e.E.ctx) t.events
  in
  Option.value from_ctx ~default:t.name

(* [tolerant] (default false) additionally accepts a log whose final
   line is truncated or malformed, by dropping that line; garbage
   anywhere earlier is still an error. *)
let load_file ?tolerant path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | src ->
      Result.map
        (fun events ->
          { name = Filename.remove_extension (Filename.basename path); path; events })
        (Telemetry.parse_events ?tolerant src)

(* Several logs; a directory contributes its *.jsonl files in name
   order. *)
let load ?tolerant paths =
  let ( let* ) r f = Result.bind r f in
  List.fold_left
    (fun acc path ->
      let* acc = acc in
      let* s =
        Result.map_error
          (fun m -> Printf.sprintf "%s: %s" path m)
          (load_file ?tolerant path)
      in
      Ok (s :: acc))
    (Ok []) (Analytics.Stream.expand_paths paths)
  |> Result.map List.rev

(* The report over whole sessions: each folded through Report.Acc,
   sessions with the same router merged into one row. *)
let report sessions =
  let module Acc = Analytics.Report.Acc in
  Analytics.Report.of_accs
    (List.map
       (fun s -> (s.name, List.fold_left Acc.add Acc.empty s.events))
       sessions)
