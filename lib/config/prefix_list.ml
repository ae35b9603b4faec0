(** Cisco [ip prefix-list] definitions. *)

type entry = { seq : int; action : Action.t; range : Netaddr.Prefix_range.t }
type t = { name : string; entries : entry list (* ascending seq *) }

let make name entries =
  let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) entries in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg
            (Printf.sprintf "Prefix_list.make: duplicate seq %d in %s" a.seq
               name)
        else check rest
    | _ -> ()
  in
  check sorted;
  { name; entries = sorted }

let entry ?seq ~action range =
  { seq = Option.value seq ~default:0; action; range }

(** First matching entry's action; [None] when nothing matches (the
    caller applies Cisco's implicit deny). *)
let eval t prefix =
  List.find_map
    (fun e ->
      if Netaddr.Prefix_range.matches e.range prefix then Some e.action
      else None)
    t.entries

let permits t prefix = eval t prefix = Some Action.Permit

let next_seq t =
  match List.rev t.entries with [] -> 10 | last :: _ -> last.seq + 10

(** Append an entry, auto-assigning the next sequence number when the
    given one is 0. *)
let append t e =
  let e = if e.seq = 0 then { e with seq = next_seq t } else e in
  make t.name (e :: t.entries)

let rename t name = { t with name }

let write_entry b name e =
  Buffer.add_string b "ip prefix-list ";
  Buffer.add_string b name;
  Buffer.add_string b " seq ";
  Netaddr.Decimal.write b e.seq;
  Buffer.add_char b ' ';
  Buffer.add_string b (Action.to_string e.action);
  Buffer.add_char b ' ';
  Netaddr.Prefix_range.write b e.range

let write b t = Text.list b '\n' (fun b e -> write_entry b t.name e) t.entries
let pp = Text.pp write
