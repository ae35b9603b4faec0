(* Tests for lib/analytics Stream: the incremental tail-following fold
   behind `clarify report --follow` and `clarify fleet status`.

   The load-bearing property is the merge law: fold(serial) ==
   fold(pooled) == the whole-file Session_reference report, byte for byte,
   because all three go through the same Report.Acc fold and Acc.merge
   is associative. *)

module St = Analytics.Stream
module S = Session_reference
module Rp = Analytics.Report

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let fixture = "../examples/acl_session.jsonl"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let append_file path text =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc text;
  close_out oc

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stream_test_%d" (Unix.getpid ()))
  in
  let clean () =
    if Sys.file_exists dir then
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir)
  in
  if Sys.file_exists dir then clean () else Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      clean ();
      Unix.rmdir dir)
    (fun () -> f dir)

let fixture_events () =
  match S.load_file fixture with
  | Ok s -> List.length s.S.events
  | Error m -> Alcotest.failf "cannot load %s: %s" fixture m

(* ------------------------------------------------------------------ *)
(* Tail-follow: only complete lines fold; a partial line waits          *)
(* ------------------------------------------------------------------ *)

let test_follow_mid_append () =
  with_temp_dir @@ fun dir ->
  let total = fixture_events () in
  let text = read_file fixture in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let line n = List.nth lines n in
  let path = Filename.concat dir "r1.jsonl" in
  (* First two whole lines plus the front half of the third: the fold
     must stop at the last newline and hold the partial tail. *)
  let third = line 2 in
  let half = String.sub third 0 (String.length third / 2) in
  write_file path (line 0 ^ "\n" ^ line 1 ^ "\n" ^ half);
  let f = St.open_file path in
  (match St.poll_file f with
  | Ok n -> checki "two complete lines fold" 2 n
  | Error m -> Alcotest.failf "poll failed: %s" m);
  checki "partial line is not an event" 2 (St.file_events f);
  (* Complete the held line and append the rest of the log. *)
  let rest =
    String.sub third (String.length half)
      (String.length third - String.length half)
    ^ "\n"
    ^ String.concat "\n" (List.filteri (fun i _ -> i > 2) lines)
    ^ "\n"
  in
  append_file path rest;
  (match St.poll_file f with
  | Ok n -> checki "the remainder folds on the next poll" (total - 2) n
  | Error m -> Alcotest.failf "second poll failed: %s" m);
  checki "all events folded" total (St.file_events f);
  checkb "no error" true (St.file_error f = None);
  (* A third poll with nothing appended is a no-op. *)
  match St.poll_file f with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "idle poll folded %d events" n
  | Error m -> Alcotest.failf "idle poll failed: %s" m

(* ------------------------------------------------------------------ *)
(* Tolerant final line, fatal mid-file garbage                         *)
(* ------------------------------------------------------------------ *)

let test_truncated_final_line_tolerated () =
  with_temp_dir @@ fun dir ->
  let total = fixture_events () in
  let text = read_file fixture in
  let path = Filename.concat dir "crash.jsonl" in
  write_file path (String.sub text 0 (String.length text - 7));
  (match St.fold_file path with
  | Error m -> Alcotest.failf "truncated tail refused: %s" m
  | Ok (name, acc) ->
      checks "name from basename" "crash" name;
      checki "exactly the damaged line is dropped" (total - 1)
        (Rp.Acc.events acc));
  (* The same rule covers a complete-but-malformed final line. *)
  write_file path (text ^ "{not json\n");
  match St.fold_file path with
  | Error m -> Alcotest.failf "malformed tail refused: %s" m
  | Ok (_, acc) -> checki "held line dropped" total (Rp.Acc.events acc)

let test_mid_file_garbage_is_sticky () =
  with_temp_dir @@ fun dir ->
  let text = read_file fixture in
  let path = Filename.concat dir "corrupt.jsonl" in
  (* Garbage with content after it is corruption, not a crash tail. *)
  write_file path (text ^ "{not json\n");
  let f = St.open_file path in
  (match St.poll_file f with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "held tail must not fail yet: %s" m);
  append_file path text;
  let first =
    match St.poll_file f with
    | Ok _ -> Alcotest.fail "content after a malformed line accepted"
    | Error m -> m
  in
  checkb "error names the bad line" true (contains first "line");
  (* Sticky: every later poll repeats the same error. *)
  match St.poll_file f with
  | Ok _ -> Alcotest.fail "sticky error cleared itself"
  | Error m -> checks "same error" first m

let test_shrunk_file_is_an_error () =
  with_temp_dir @@ fun dir ->
  let text = read_file fixture in
  let path = Filename.concat dir "shrink.jsonl" in
  write_file path text;
  let f = St.open_file path in
  (match St.poll_file f with Ok _ -> () | Error m -> Alcotest.fail m);
  write_file path (String.sub text 0 10);
  match St.poll_file f with
  | Ok _ -> Alcotest.fail "a shrunk file folded as if appended"
  | Error m -> checkb "error mentions shrink" true (contains m "shrank")

(* ------------------------------------------------------------------ *)
(* Directory scans are sorted, independent of creation order           *)
(* ------------------------------------------------------------------ *)

let test_dir_scan_sorted () =
  with_temp_dir @@ fun dir ->
  let text = read_file fixture in
  (* Created in anti-sorted order; both the streaming scan and the
     path expansion must still visit them name-sorted, so
     reports are byte-stable across filesystems. *)
  List.iter
    (fun name -> write_file (Filename.concat dir name) text)
    [ "r2.jsonl"; "r0.jsonl"; "r1.jsonl"; "notes.txt" ];
  let d = St.open_dir dir in
  ignore (St.poll d);
  Alcotest.(check (list string))
    "stream scan sorted, *.jsonl only" [ "r0"; "r1"; "r2" ]
    (List.map St.file_name (St.files d));
  Alcotest.(check (list string))
    "expand_paths sorted, *.jsonl only"
    [ "r0.jsonl"; "r1.jsonl"; "r2.jsonl" ]
    (List.map Filename.basename (St.expand_paths [ dir ]))

(* A file appearing between polls is picked up by the next poll. *)
let test_dir_picks_up_new_files () =
  with_temp_dir @@ fun dir ->
  let text = read_file fixture in
  write_file (Filename.concat dir "b.jsonl") text;
  let d = St.open_dir dir in
  ignore (St.poll d);
  checki "one follower" 1 (List.length (St.files d));
  write_file (Filename.concat dir "a.jsonl") text;
  ignore (St.poll d);
  Alcotest.(check (list string))
    "new file joins, order re-sorted" [ "a"; "b" ]
    (List.map St.file_name (St.files d))

(* ------------------------------------------------------------------ *)
(* The merge law on a real fleet: serial == pooled == batch             *)
(* ------------------------------------------------------------------ *)

let test_fleet_report_serial_pooled_batch_identical () =
  with_temp_dir @@ fun dir ->
  (* A real E5 recording: per-router logs plus the fleet.json manifest
     (which every report path must skip: it is not a *.jsonl). *)
  ignore (Evaluation.E5_fleet.run ~record_dir:dir ~routers:6 ());
  let render r = (Rp.to_markdown r, Rp.to_csv r) in
  let serial =
    match St.report_paths [ dir ] with
    | Ok r -> render r
    | Error m -> Alcotest.failf "serial fold failed: %s" m
  in
  let pool = Parallel.Pool.create ~domains:4 () in
  let pooled =
    match St.report_paths ~pool [ dir ] with
    | Ok r -> render r
    | Error m -> Alcotest.failf "pooled fold failed: %s" m
  in
  let batch =
    match S.load ~tolerant:true [ dir ] with
    | Ok sessions -> render (S.report sessions)
    | Error m -> Alcotest.failf "session load failed: %s" m
  in
  checks "pooled md == serial md" (fst serial) (fst pooled);
  checks "pooled csv == serial csv" (snd serial) (snd pooled);
  checks "batch md == serial md" (fst serial) (fst batch);
  checks "batch csv == serial csv" (snd serial) (snd batch);
  (* The live follower over the same complete logs agrees too. *)
  let d = St.open_dir dir in
  ignore (St.poll d);
  let followed = render (St.report_of_dir d) in
  checks "follow md == serial md" (fst serial) (fst followed);
  (* And the fleet rows carry E5 progress: every router completed. *)
  match St.report_paths [ dir ] with
  | Error m -> Alcotest.fail m
  | Ok r ->
      checki "six routers" 6 (List.length r.Rp.routers);
      List.iter
        (fun (row : Rp.router_stats) ->
          match row.Rp.fleet with
          | Some fl ->
              checkb (row.Rp.router ^ " completed") true fl.Rp.completed;
              checkb
                (row.Rp.router ^ " wall recorded")
                true (fl.Rp.wall_ns > 0.)
          | None -> Alcotest.failf "%s has no fleet info" row.Rp.router)
        r.Rp.routers

let () =
  Alcotest.run "stream"
    [
      ( "follow",
        [
          Alcotest.test_case "mid-append partial line" `Quick
            test_follow_mid_append;
          Alcotest.test_case "new files join a dir" `Quick
            test_dir_picks_up_new_files;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "truncated final line" `Quick
            test_truncated_final_line_tolerated;
          Alcotest.test_case "mid-file garbage sticky" `Quick
            test_mid_file_garbage_is_sticky;
          Alcotest.test_case "shrunk file" `Quick test_shrunk_file_is_an_error;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dir scans sorted" `Quick test_dir_scan_sorted;
          Alcotest.test_case "fleet serial == pooled == batch" `Quick
            test_fleet_report_serial_pooled_batch_identical;
        ] );
    ]
