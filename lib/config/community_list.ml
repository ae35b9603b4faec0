(** Cisco [ip community-list] definitions, standard and expanded. *)

type standard_entry = { action : Action.t; communities : Bgp.Community.t list }

type expanded_entry = {
  action : Action.t;
  regex : Sre.Community_regex.t; (* compiled once at construction *)
}

type body =
  | Standard of standard_entry list
  | Expanded of expanded_entry list

type t = { name : string; body : body }

let standard name entries = { name; body = Standard entries }

let expanded name entries =
  let compile (action, source) =
    { action; regex = Sre.Community_regex.compile source }
  in
  { name; body = Expanded (List.map compile entries) }

(** First matching entry's action. A standard entry matches when the
    route carries every listed community; an expanded entry matches when
    at least one carried community satisfies the regex. *)
let eval t (communities : Bgp.Community.t list) =
  match t.body with
  | Standard entries ->
      List.find_map
        (fun e ->
          if
            List.for_all
              (fun c -> List.exists (Bgp.Community.equal c) communities)
              e.communities
          then Some e.action
          else None)
        entries
  | Expanded entries ->
      List.find_map
        (fun e ->
          if
            List.exists
              (fun c ->
                Sre.Community_regex.matches e.regex (Bgp.Community.to_pair c))
              communities
          then Some e.action
          else None)
        entries

let matches t communities = eval t communities = Some Action.Permit

let rename t name = { t with name }

let write b t =
  let header b kind action =
    Buffer.add_string b "ip community-list ";
    Buffer.add_string b kind;
    Buffer.add_string b t.name;
    Buffer.add_char b ' ';
    Buffer.add_string b (Action.to_string action);
    Buffer.add_char b ' '
  in
  match t.body with
  | Standard entries ->
      Text.list b '\n'
        (fun b (e : standard_entry) ->
          header b "standard " e.action;
          Text.list b ' ' Bgp.Community.write e.communities)
        entries
  | Expanded entries ->
      Text.list b '\n'
        (fun b (e : expanded_entry) ->
          header b "expanded " e.action;
          Buffer.add_string b (Sre.Community_regex.source e.regex))
        entries

let pp = Text.pp write
