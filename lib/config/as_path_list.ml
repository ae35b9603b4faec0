(** Cisco [ip as-path access-list] definitions. *)

type entry = { action : Action.t; regex : Sre.As_path_regex.t }
type t = { name : string; entries : entry list }

let make name entries =
  let compile (action, source) =
    { action; regex = Sre.As_path_regex.compile source }
  in
  { name; entries = List.map compile entries }

(** First matching entry's action on the given AS path. *)
let eval t as_path =
  List.find_map
    (fun e ->
      if Sre.As_path_regex.matches e.regex as_path then Some e.action else None)
    t.entries

let matches t as_path = eval t as_path = Some Action.Permit

let rename t name = { t with name }

let write b t =
  Text.list b '\n'
    (fun b e ->
      Buffer.add_string b "ip as-path access-list ";
      Buffer.add_string b t.name;
      Buffer.add_char b ' ';
      Buffer.add_string b (Action.to_string e.action);
      Buffer.add_char b ' ';
      Buffer.add_string b (Sre.As_path_regex.source e.regex))
    t.entries

let pp = Text.pp write
