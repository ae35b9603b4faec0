(* lib's surface is what something reads: every [val] in a lib interface
   must be named by some OCaml file outside its own module, in lib, bin,
   bench, test, perfbench or examples.

   The scan is by name: a value counts as read when any identifier token
   of another file equals its name, whatever module that token belongs
   to. So it can only under-count what is unread; a value it lists is
   certainly dead outside its module. Nested signatures count too: a
   [val] inside [module Acc : sig ... end] is checked like a top-level
   one. *)

let roots = [ "lib"; "bin"; "bench"; "test"; "perfbench"; "examples" ]

let rec ocaml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then ocaml_files p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ p ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Every identifier token of [s], keywords included. *)
let tokens s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then acc
    else if is_ident s.[i] then (
      let j = ref i in
      while !j < n && is_ident s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc))
    else go (i + 1) acc
  in
  go 0 []

(* The names of the [val]s an interface declares, one per line that
   starts (after indentation) with [val]. *)
let vals mli =
  String.split_on_char '\n' mli
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"val " line then
           List.nth_opt (List.rev (tokens line)) 1
         else None)

(* A module's own files: [foo.ml] and [foo.mli] share the path without
   extension. *)
let module_of path = Filename.remove_extension path

let unread () =
  let root = Filename.parent_dir_name in
  let files =
    List.concat_map (fun r -> ocaml_files (Filename.concat root r)) roots
  in
  let readers = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      let m = module_of p in
      List.iter (fun t -> Hashtbl.replace readers (t, m) ()) (tokens (read p)))
    files;
  let modules = List.sort_uniq String.compare (List.map module_of files) in
  let read_outside name own =
    List.exists (fun m -> m <> own && Hashtbl.mem readers (name, m)) modules
  in
  let lib = Filename.concat root "lib" in
  List.concat_map
    (fun p ->
      if String.starts_with ~prefix:lib p && Filename.check_suffix p ".mli" then
        let own = module_of p in
        vals (read p)
        |> List.filter (fun v -> not (read_outside v own))
        |> List.map (fun v ->
               Printf.sprintf "%s: %s"
                 (String.concat "/" (List.tl (String.split_on_char '/' p)))
                 v)
      else [])
    files

let test_every_val_is_read () =
  match unread () with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d lib value(s) no file outside their module names:\n%s"
        (List.length vs) (String.concat "\n" vs)

let () =
  Alcotest.run "exports"
    [
      ( "surface",
        [ Alcotest.test_case "every lib val is read" `Quick test_every_val_is_read ] );
    ]
