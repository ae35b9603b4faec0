(* Streaming session analytics (see stream.mli). *)

module E = Telemetry.Event

type file = {
  path : string;
  name : string;
  mutable offset : int; (* bytes consumed from the log so far *)
  pending : Buffer.t; (* trailing partial line, kept across polls *)
  mutable lineno : int; (* lines completed so far *)
  mutable held : (int * string) option;
      (* a complete-but-malformed line, held back under the tolerant
         final-line rule: dropped if nothing follows it, fatal if
         content does *)
  mutable acc : Report.Acc.t;
  mutable events : int;
  mutable error : string option; (* sticky *)
  on_event : E.t -> unit; (* extra per-event sink (streaming trace) *)
}

let open_file path =
  {
    on_event = ignore;
    path;
    name = Filename.remove_extension (Filename.basename path);
    offset = 0;
    pending = Buffer.create 256;
    lineno = 0;
    held = None;
    acc = Report.Acc.empty;
    events = 0;
    error = None;
  }

let file_path f = f.path
let file_name f = f.name
let file_acc f = f.acc
let file_events f = f.events
let file_error f = f.error

let fail f msg =
  f.error <- Some msg;
  f.error

let process_line f line added =
  f.lineno <- f.lineno + 1;
  if String.trim line = "" then ()
  else
    match f.held with
    | Some (ln, msg) ->
        (* Garbage earlier than the final content line means the file
           is not a recording: reject loudly, like
           Telemetry.parse_events. *)
        ignore (fail f (Printf.sprintf "line %d: %s" ln msg))
    | None -> (
        let parsed =
          match Json.parse line with
          | Error m -> Error m
          | Ok j -> E.of_json j
        in
        match parsed with
        | Error m -> f.held <- Some (f.lineno, m)
        | Ok e ->
            f.acc <- Report.Acc.add f.acc e;
            f.events <- f.events + 1;
            f.on_event e;
            incr added)

let consume f s added =
  let len = String.length s in
  let rec go pos =
    if pos < len && f.error = None then
      match String.index_from_opt s pos '\n' with
      | None -> Buffer.add_substring f.pending s pos (len - pos)
      | Some nl ->
          Buffer.add_substring f.pending s pos (nl - pos);
          let line = Buffer.contents f.pending in
          Buffer.clear f.pending;
          process_line f line added;
          go (nl + 1)
  in
  go 0

let chunk = 65536

let poll_file f =
  match f.error with
  | Some e -> Error e
  | None -> (
      match open_in_bin f.path with
      | exception Sys_error m -> Error (Option.get (fail f m))
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let len = in_channel_length ic in
              if len < f.offset then
                Error
                  (Option.get
                     (fail f
                        (Printf.sprintf
                           "file shrank from %d to %d bytes (truncated?)"
                           f.offset len)))
              else begin
                seek_in ic f.offset;
                let buf = Bytes.create chunk in
                let added = ref 0 in
                let rec read_loop () =
                  let n = input ic buf 0 chunk in
                  if n > 0 then begin
                    f.offset <- f.offset + n;
                    consume f (Bytes.sub_string buf 0 n) added;
                    if f.error = None then read_loop ()
                  end
                in
                read_loop ();
                match f.error with
                | Some e -> Error e
                | None -> Ok !added
              end))

(* ------------------------------------------------------------------ *)
(* Directory followers.                                                *)
(* ------------------------------------------------------------------ *)

type dir = { root : string; mutable files : file list (* sorted by name *) }

let scan root =
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.sort String.compare
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.map (Filename.concat root)

let refresh d =
  (* Keep follower state for files already known; pick up new ones.
     The rebuilt list stays in sorted path order regardless of the
     order the filesystem revealed the files in. *)
  let known = List.map (fun f -> (f.path, f)) d.files in
  d.files <-
    List.map
      (fun path ->
        match List.assoc_opt path known with
        | Some f -> f
        | None -> open_file path)
      (scan d.root)

let open_dir root =
  let d = { root; files = [] } in
  refresh d;
  d

let poll d =
  refresh d;
  List.fold_left
    (fun added f ->
      match poll_file f with Ok n -> added + n | Error _ -> added)
    0 d.files

let files d = d.files

let report_of_dir d =
  Report.of_accs (List.map (fun f -> (f.name, f.acc)) d.files)

(* ------------------------------------------------------------------ *)
(* One-shot folds.                                                     *)
(* ------------------------------------------------------------------ *)

let fold_file path =
  let f = open_file path in
  match poll_file f with
  | Ok _ -> Ok (f.name, f.acc)
  | Error m -> Error (Printf.sprintf "%s: %s" path m)

let iter_file path sink =
  let f = { (open_file path) with on_event = sink } in
  match poll_file f with
  | Ok _ -> Ok f.events
  | Error m -> Error (Printf.sprintf "%s: %s" path m)

let expand_paths paths =
  List.concat_map
    (fun p -> if Sys.file_exists p && Sys.is_directory p then scan p else [ p ])
    paths

let report_paths ?pool paths =
  let paths = expand_paths paths in
  let folds =
    match pool with
    | Some pool when Parallel.Pool.domains pool > 1 ->
        (* Accumulators are plain data, so per-file folds shard across
           domains; merge order below is input order, and Acc.merge is
           associative, so the result is pool-size independent. *)
        Parallel.Pool.map pool ~f:fold_file paths
    | _ -> List.map fold_file paths
  in
  let ( let* ) r f = Result.bind r f in
  let* named =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* x = r in
        Ok (x :: acc))
      (Ok []) folds
    |> Result.map List.rev
  in
  Ok (Report.of_accs named)
