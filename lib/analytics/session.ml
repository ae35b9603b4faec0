(* A recorded session: one JSONL flight-recorder log, loaded back as
   events plus enough identity (name, router) for aggregation. *)

module E = Telemetry.Event

type t = { name : string; path : string; events : E.t list }

let base_name path =
  let b = Filename.basename path in
  Filename.remove_extension b

(* The router a session ran for: the first ctx "router" label found in
   its events (stamped by Telemetry.with_context around each router's
   evaluation run), else the session name — a per-router log file named
   e4_R1.jsonl identifies itself even without context labels. *)
let router t =
  let from_ctx =
    List.find_map (fun e -> List.assoc_opt "router" e.E.ctx) t.events
  in
  Option.value from_ctx ~default:t.name

let load_file ?tolerant path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      Result.map
        (fun events -> { name = base_name path; path; events })
        (Telemetry.parse_events ?tolerant src)

(* Expand each argument: a directory contributes its *.jsonl files in
   name order, anything else is taken as a log file. *)
let expand_paths paths =
  List.concat_map
    (fun p ->
      if Sys.file_exists p && Sys.is_directory p then
        Sys.readdir p |> Array.to_list |> List.sort String.compare
        |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
        |> List.map (Filename.concat p)
      else [ p ])
    paths

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
    (Ok []) (expand_paths paths)
  |> Result.map List.rev
