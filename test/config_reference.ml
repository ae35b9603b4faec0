(** Test helper: the config parser and printer as they were before the
    one-pass scanner and the [Buffer] printer, the references that
    [test_config]'s differential properties compare [Config.Parser]
    against. They share no lexical code with [lib/config]: the address,
    prefix, community, protocol and action readers (through
    [int_of_string], so they accept OCaml integer literals) and the
    [Format] printers are the old ones. Only the constructors of the
    parsed values ([Prefix_range.make], [Route_map.make], ...) and the
    keyword tables ([Action.to_string], [Packet.protocol_to_string],
    [Bgp.Route.origin_to_string]) are shared. *)

open Config

(* ------------------------------------------------------------------ *)
(* Lexical readers                                                    *)
(* ------------------------------------------------------------------ *)

let ipv4_of_string s =
  match String.split_on_char '.' s with
  | [a; b; c; d] -> (
      let octet x =
        if x = "" || String.length x > 3 then None
        else
          match int_of_string_opt x with
          | Some n when n >= 0 && n <= 255 -> Some n
          | _ -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (Netaddr.Ipv4.of_octets a b c d)
      | _ -> None)
  | _ -> None

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      let addr = String.sub s 0 i in
      let len = String.sub s (i + 1) (String.length s - i - 1) in
      match (ipv4_of_string addr, int_of_string_opt len) with
      | Some ip, Some len when len >= 0 && len <= 32 -> Some (Netaddr.Prefix.make ip len)
      | _ -> None)

let community_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let a = String.sub s 0 i
      and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a >= 0 && a <= 65535 && b >= 0 && b <= 65535 ->
          Some (Bgp.Community.make a b)
      | _ -> None)

let community_of_string_exn s =
  match community_of_string s with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Community.of_string_exn: %S" s)

let protocol_of_string = function
  | "ip" -> Some Packet.Ip
  | "tcp" -> Some Packet.Tcp
  | "udp" -> Some Packet.Udp
  | "icmp" -> Some Packet.Icmp
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 && n <= 255 -> Some (Packet.protocol_of_number n)
      | _ -> None)

let action_of_string = function
  | "permit" -> Some Action.Permit
  | "deny" -> Some Action.Deny
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The token-list parser                                              *)
(* ------------------------------------------------------------------ *)

exception Syntax_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Syntax_error { line; message })) fmt

type state = {
  mutable prefix_entries : (string * Prefix_list.entry) list; (* reversed *)
  prefix_seq : (string, int) Hashtbl.t; (* highest seq per prefix list *)
  mutable community_entries :
    (string * [ `Standard | `Expanded ] * Action.t * string) list;
  mutable as_path_entries : (string * Action.t * string) list;
  mutable stanzas : (string * Route_map.stanza) list;
      (* reversed, and so are each stanza's matches and sets: the open
         stanza is the head and takes a clause in O(1) *)
  mutable acl_rules : (string * Acl.rule) list;
  mutable acl_auto_seq : (string, int) Hashtbl.t;
  (* The construct that subsequent indented lines attach to. *)
  mutable context : context;
}

and context =
  | Ctx_none
  | Ctx_route_map (* the stanza at the head of [stanzas] *)
  | Ctx_acl of string

(* Blank- and tab-separated tokens, read right to left in one pass. *)
let tokens_of_line line =
  let push acc start stop =
    if stop > start then String.sub line start (stop - start) :: acc else acc
  in
  (* [stop] ends the token being read, which starts after [i]. *)
  let rec go acc i stop =
    if i < 0 then push acc 0 stop
    else if line.[i] = ' ' || line.[i] = '\t' then go (push acc (i + 1) stop) (i - 1) i
    else go acc (i - 1) stop
  in
  let n = String.length line in
  go [] (n - 1) n

let int_arg ln what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ln "expected %s, found %S" what s

(* A number the symbolic encodings hold in a fixed width: ports in 16
   bits, local-preference, metric and tag in 32. *)
let bounded_arg ln what max s =
  let n = int_arg ln what s in
  if n < 0 || n > max then fail ln "%s %d is out of range 0-%d" what n max;
  n

let u32_arg ln what s = bounded_arg ln what 0xFFFF_FFFF s

let action_arg ln s =
  match action_of_string s with
  | Some a -> a
  | None -> fail ln "expected permit or deny, found %S" s

let prefix_arg ln s =
  match prefix_of_string s with
  | Some p -> p
  | None -> fail ln "expected prefix a.b.c.d/len, found %S" s

let ipv4_arg ln s =
  match ipv4_of_string s with
  | Some a -> a
  | None -> fail ln "expected IPv4 address, found %S" s

(* "10.0.0.0/8 le 24" / "ge 24 le 28" modifiers. *)
let parse_prefix_range ln toks =
  match toks with
  | pfx :: rest ->
      let prefix = prefix_arg ln pfx in
      let rec mods ge le = function
        | [] -> (ge, le)
        | "ge" :: v :: rest -> mods (Some (int_arg ln "ge bound" v)) le rest
        | "le" :: v :: rest -> mods ge (Some (int_arg ln "le bound" v)) rest
        | t :: _ -> fail ln "unexpected token %S after prefix" t
      in
      let ge, le = mods None None rest in
      (try Netaddr.Prefix_range.make prefix ~ge ~le
       with Invalid_argument m -> fail ln "%s" m)
  | [] -> fail ln "missing prefix"

(* ACL address specs: any | host A | A W | A/len. *)
let parse_addr_spec ln toks =
  match toks with
  | "any" :: rest -> (Acl.Any, rest)
  | "host" :: ip :: rest -> (Acl.Host (ipv4_arg ln ip), rest)
  | spec :: rest when String.contains spec '/' ->
      (Acl.addr_of_prefix (prefix_arg ln spec), rest)
  | base :: wild :: rest
    when ipv4_of_string base <> None
         && ipv4_of_string wild <> None ->
      (Acl.Wildcard (ipv4_arg ln base, ipv4_arg ln wild), rest)
  | t :: _ -> fail ln "expected address spec, found %S" t
  | [] -> fail ln "missing address spec"

let parse_port_spec ln toks =
  let port = bounded_arg ln "port" 65535 in
  match toks with
  | "eq" :: p :: rest -> (Acl.Eq (port p), rest)
  | "neq" :: p :: rest -> (Acl.Neq (port p), rest)
  | "lt" :: p :: rest -> (Acl.Lt (port p), rest)
  | "gt" :: p :: rest -> (Acl.Gt (port p), rest)
  | "range" :: a :: b :: rest ->
      let a = port a and b = port b in
      if a > b then fail ln "port range %d %d is empty" a b;
      (Acl.Range (a, b), rest)
  | _ -> (Acl.Any_port, toks)

let parse_acl_rule ln st name toks =
  (* Auto-sequence: 10 past the highest existing. *)
  let highest = Hashtbl.find_opt st.acl_auto_seq name in
  let seq, toks =
    match toks with
    | s :: rest when int_of_string_opt s <> None -> (int_of_string s, rest)
    | _ -> ((match highest with Some h -> h + 10 | None -> 10), toks)
  in
  Hashtbl.replace st.acl_auto_seq name
    (match highest with Some h -> max h seq | None -> seq);
  match toks with
  | act :: proto :: rest ->
      let action = action_arg ln act in
      let protocol =
        match protocol_of_string proto with
        | Some p -> p
        | None -> fail ln "unknown protocol %S" proto
      in
      let src, rest = parse_addr_spec ln rest in
      let src_port, rest = parse_port_spec ln rest in
      let dst, rest = parse_addr_spec ln rest in
      let dst_port, rest = parse_port_spec ln rest in
      let established, rest =
        match rest with
        | "established" :: rest -> (true, rest)
        | _ -> (false, rest)
      in
      if rest <> [] then
        fail ln "unexpected trailing tokens: %s" (String.concat " " rest);
      if
        (src_port <> Acl.Any_port || dst_port <> Acl.Any_port)
        && not (Packet.has_ports protocol)
      then fail ln "port specifiers require tcp or udp";
      if established && protocol <> Packet.Tcp then
        fail ln "established requires tcp";
      st.acl_rules <-
        (name, { (Acl.rule ~seq ~protocol ~src ~src_port ~dst ~dst_port
                    ~established action) with Acl.seq })
        :: st.acl_rules
  | _ -> fail ln "truncated ACL rule"

let parse_match_clause ln toks =
  match toks with
  | "ip" :: "address" :: "prefix-list" :: names when names <> [] ->
      Route_map.Match_prefix_list names
  | "community" :: names when names <> [] -> Route_map.Match_community names
  | "as-path" :: names when names <> [] -> Route_map.Match_as_path names
  | [ "local-preference"; n ] ->
      Route_map.Match_local_pref (u32_arg ln "local-preference" n)
  | [ "metric"; n ] -> Route_map.Match_metric (u32_arg ln "metric" n)
  | "tag" :: tags when tags <> [] ->
      Route_map.Match_tag (List.map (u32_arg ln "tag") tags)
  | _ -> fail ln "unsupported match clause: match %s" (String.concat " " toks)

let community_arg ln s =
  match community_of_string s with
  | Some c -> c
  | None -> fail ln "expected community a:b, found %S" s

let parse_set_clause ln toks =
  match toks with
  | [ "metric"; n ] -> Route_map.Set_metric (u32_arg ln "metric" n)
  | [ "local-preference"; n ] ->
      Route_map.Set_local_pref (u32_arg ln "local-preference" n)
  | "community" :: rest when rest <> [] ->
      let additive, comms =
        match List.rev rest with
        | "additive" :: comms_rev -> (true, List.rev comms_rev)
        | _ -> (false, rest)
      in
      if comms = [] then fail ln "set community needs at least one community";
      Route_map.Set_community
        { communities = List.map (community_arg ln) comms; additive }
  | [ "comm-list"; name; "delete" ] -> Route_map.Set_comm_list_delete name
  | "as-path" :: "prepend" :: asns when asns <> [] ->
      Route_map.Set_as_path_prepend (List.map (int_arg ln "asn") asns)
  | [ "ip"; "next-hop"; ip ] -> Route_map.Set_next_hop (ipv4_arg ln ip)
  | [ "tag"; n ] -> Route_map.Set_tag (u32_arg ln "tag" n)
  | [ "weight"; n ] -> Route_map.Set_weight (int_arg ln "weight" n)
  | [ "origin"; o ] ->
      Route_map.Set_origin
        (match o with
        | "igp" -> Bgp.Route.Igp
        | "egp" -> Bgp.Route.Egp
        | "incomplete" -> Bgp.Route.Incomplete
        | _ -> fail ln "unknown origin %S" o)
  | _ -> fail ln "unsupported set clause: set %s" (String.concat " " toks)

let parse_line st ln line =
  match tokens_of_line line with
  | [] -> ()
  | "!" :: _ -> st.context <- Ctx_none
  | "ip" :: "prefix-list" :: name :: rest ->
      st.context <- Ctx_none;
      let seq, rest =
        match rest with
        | "seq" :: n :: rest -> (Some (int_arg ln "seq" n), rest)
        | _ -> (None, rest)
      in
      (match rest with
      | act :: rest ->
          let action = action_arg ln act in
          let range = parse_prefix_range ln rest in
          (* Auto-sequence: 10 past the highest existing. *)
          let highest = Hashtbl.find_opt st.prefix_seq name in
          let seq =
            match (seq, highest) with
            | Some s, _ -> s
            | None, Some h -> max 10 (h + 10)
            | None, None -> 10
          in
          Hashtbl.replace st.prefix_seq name
            (match highest with Some h -> max h seq | None -> seq);
          st.prefix_entries <-
            (name, Prefix_list.entry ~seq ~action range) :: st.prefix_entries
      | [] -> fail ln "truncated prefix-list entry")
  | "ip" :: "community-list" :: rest ->
      st.context <- Ctx_none;
      let kind, name, rest =
        match rest with
        | "standard" :: name :: rest -> (`Standard, name, rest)
        | "expanded" :: name :: rest -> (`Expanded, name, rest)
        | name :: rest -> (`Standard, name, rest)
        | [] -> fail ln "truncated community-list"
      in
      (match rest with
      | act :: body when body <> [] ->
          let action = action_arg ln act in
          st.community_entries <-
            (name, kind, action, String.concat " " body)
            :: st.community_entries
      | _ -> fail ln "truncated community-list entry")
  | "ip" :: "as-path" :: "access-list" :: name :: act :: regex when regex <> []
    ->
      st.context <- Ctx_none;
      let action = action_arg ln act in
      st.as_path_entries <-
        (name, action, String.concat " " regex) :: st.as_path_entries
  | [ "route-map"; name; act; seq ] ->
      let action = action_arg ln act in
      let seq = int_arg ln "sequence number" seq in
      st.stanzas <- (name, Route_map.stanza ~seq action) :: st.stanzas;
      st.context <- Ctx_route_map
  | [ "ip"; "access-list"; "extended"; name ] -> st.context <- Ctx_acl name
  | "access-list" :: num :: rest when int_of_string_opt num <> None ->
      st.context <- Ctx_none;
      parse_acl_rule ln st num rest
  | "match" :: rest -> (
      match (st.context, st.stanzas) with
      | Ctx_route_map, (name, s) :: others ->
          let clause = parse_match_clause ln rest in
          st.stanzas <- (name, { s with matches = clause :: s.matches }) :: others
      | _ -> fail ln "match clause outside a route-map stanza")
  | "set" :: rest -> (
      match (st.context, st.stanzas) with
      | Ctx_route_map, (name, s) :: others ->
          let clause = parse_set_clause ln rest in
          st.stanzas <- (name, { s with sets = clause :: s.sets }) :: others
      | _ -> fail ln "set clause outside a route-map stanza")
  | (("permit" | "deny") :: _ | _ :: ("permit" | "deny") :: _) as toks -> (
      match st.context with
      | Ctx_acl name -> parse_acl_rule ln st name toks
      | _ -> fail ln "ACL rule outside an access-list block")
  | t :: _ -> fail ln "unrecognized directive %S" t

let group_by_name pairs =
  (* Stable grouping preserving insertion order of both keys and values. *)
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      if not (Hashtbl.mem tbl name) then begin
        order := name :: !order;
        Hashtbl.add tbl name []
      end;
      Hashtbl.replace tbl name (v :: Hashtbl.find tbl name))
    (List.rev pairs);
  List.rev_map (fun name -> (name, List.rev (Hashtbl.find tbl name))) !order
  |> List.rev

let finalize st =
  let db = ref Database.empty in
  List.iter
    (fun (name, entries) ->
      db := Database.add_prefix_list !db (Prefix_list.make name entries))
    (group_by_name st.prefix_entries);
  List.iter
    (fun (name, entries) ->
      let kinds = List.map (fun (k, _, _) -> k) entries in
      let cl =
        match List.sort_uniq Stdlib.compare kinds with
        | [ `Standard ] ->
            Community_list.standard name
              (List.map
                 (fun (_, action, body) ->
                   {
                     Community_list.action;
                     communities =
                       List.map community_of_string_exn
                         (tokens_of_line body);
                   })
                 entries)
        | [ `Expanded ] ->
            Community_list.expanded name
              (List.map (fun (_, action, body) -> (action, body)) entries)
        | _ ->
            invalid_arg
              (Printf.sprintf
                 "community-list %s mixes standard and expanded entries" name)
      in
      db := Database.add_community_list !db cl)
    (group_by_name
       (List.map (fun (n, k, a, b) -> (n, (k, a, b))) st.community_entries));
  List.iter
    (fun (name, entries) ->
      db := Database.add_as_path_list !db (As_path_list.make name entries))
    (group_by_name
       (List.map (fun (n, a, r) -> (n, (a, r))) st.as_path_entries));
  List.iter
    (fun (name, stanzas) ->
      db := Database.add_route_map !db (Route_map.make name stanzas))
    (group_by_name
       (List.map
          (fun (name, (s : Route_map.stanza)) ->
            (name, { s with matches = List.rev s.matches; sets = List.rev s.sets }))
          st.stanzas));
  List.iter
    (fun (name, rules) -> db := Database.add_acl !db (Acl.make name rules))
    (group_by_name st.acl_rules);
  !db

let parse_exn source =
  let st =
    {
      prefix_entries = [];
      prefix_seq = Hashtbl.create 8;
      community_entries = [];
      as_path_entries = [];
      stanzas = [];
      acl_rules = [];
      acl_auto_seq = Hashtbl.create 8;
      context = Ctx_none;
    }
  in
  (* Line by line, so no line outlives its parse. *)
  let rec lines ln start =
    match String.index_from_opt source start '\n' with
    | Some stop ->
        parse_line st ln (String.sub source start (stop - start));
        lines (ln + 1) (stop + 1)
    | None -> parse_line st ln (String.sub source start (String.length source - start))
  in
  lines 1 0;
  finalize st

let parse source =
  match parse_exn source with
  | db -> Ok db
  | exception Syntax_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)
  | exception Sre.As_path_regex.Parse_error m ->
      Error ("as-path regex: " ^ m)
  | exception Sre.Community_regex.Parse_error m ->
      Error ("community regex: " ^ m)
  | exception Invalid_argument m -> Error m


(* ------------------------------------------------------------------ *)
(* The Format printer                                                 *)
(* ------------------------------------------------------------------ *)

let ipv4_to_string a =
  let a = Netaddr.Ipv4.to_int a in
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xff) ((a lsr 16) land 0xff) ((a lsr 8) land 0xff)
    (a land 0xff)

let prefix_to_string (p : Netaddr.Prefix.t) =
  Printf.sprintf "%s/%d" (ipv4_to_string p.ip) p.len

let ge_le (t : Netaddr.Prefix_range.t) =
  let len = t.prefix.Netaddr.Prefix.len in
  match (t.lo, t.hi) with
  | lo, hi when lo = len && hi = len -> (None, None)
  | lo, 32 when lo <> len -> (Some lo, None)
  | lo, hi when lo = len -> (None, Some hi)
  | lo, hi -> (Some lo, Some hi)

let range_to_string (t : Netaddr.Prefix_range.t) =
  let ge, le = ge_le t in
  String.concat ""
    [ prefix_to_string t.prefix;
      (match ge with Some g -> Printf.sprintf " ge %d" g | None -> "");
      (match le with Some e -> Printf.sprintf " le %d" e | None -> "") ]

let community_to_string (c : Bgp.Community.t) = Printf.sprintf "%d:%d" c.asn c.value

let pp_prefix_list fmt (t : Prefix_list.t) =
  let pp_entry fmt name (e : Prefix_list.entry) =
    Format.fprintf fmt "ip prefix-list %s seq %d %s %s" name e.seq
      (Action.to_string e.action)
      (range_to_string e.range)
  in
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt e ->
         pp_entry fmt t.name e))
    t.entries

let pp_community_list fmt (t : Community_list.t) =
  Format.fprintf fmt "@[<v>";
  (match t.body with
  | Standard entries ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut
        (fun fmt (e : Community_list.standard_entry) ->
          Format.fprintf fmt "ip community-list standard %s %s %s" t.name
            (Action.to_string e.action)
            (String.concat " " (List.map community_to_string e.communities)))
        fmt entries
  | Expanded entries ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut
        (fun fmt (e : Community_list.expanded_entry) ->
          Format.fprintf fmt "ip community-list expanded %s %s %s" t.name
            (Action.to_string e.action)
            (Sre.Community_regex.source e.regex))
        fmt entries);
  Format.fprintf fmt "@]"

let pp_as_path_list fmt (t : As_path_list.t) =
  Format.fprintf fmt "@[<v>";
  Format.pp_print_list ~pp_sep:Format.pp_print_cut
    (fun fmt (e : As_path_list.entry) ->
      Format.fprintf fmt "ip as-path access-list %s %s %s" t.name
        (Action.to_string e.action)
        (Sre.As_path_regex.source e.regex))
    fmt t.entries;
  Format.fprintf fmt "@]"

let string_of_addr : Acl.addr_spec -> string = function
  | Any -> "any"
  | Host ip -> "host " ^ ipv4_to_string ip
  | Wildcard (base, wild) ->
      ipv4_to_string base ^ " " ^ ipv4_to_string wild

let string_of_port : Acl.port_spec -> string = function
  | Any_port -> ""
  | Eq n -> Printf.sprintf " eq %d" n
  | Neq n -> Printf.sprintf " neq %d" n
  | Lt n -> Printf.sprintf " lt %d" n
  | Gt n -> Printf.sprintf " gt %d" n
  | Range (a, b) -> Printf.sprintf " range %d %d" a b

let string_of_rule (r : Acl.rule) =
  Printf.sprintf "%s %s %s%s %s%s%s" (Action.to_string r.action)
    (Packet.protocol_to_string r.protocol)
    (string_of_addr r.src) (string_of_port r.src_port) (string_of_addr r.dst)
    (string_of_port r.dst_port)
    (if r.established then " established" else "")

let pp_acl fmt (t : Acl.t) =
  Format.fprintf fmt "@[<v>ip access-list extended %s" t.name;
  List.iter (fun r -> Format.fprintf fmt "@  %s" (string_of_rule r)) t.rules;
  Format.fprintf fmt "@]"

let string_of_match : Route_map.match_clause -> string = function
  | Match_prefix_list names ->
      "match ip address prefix-list " ^ String.concat " " names
  | Match_community names -> "match community " ^ String.concat " " names
  | Match_as_path names -> "match as-path " ^ String.concat " " names
  | Match_local_pref n -> Printf.sprintf "match local-preference %d" n
  | Match_metric n -> Printf.sprintf "match metric %d" n
  | Match_tag tags ->
      "match tag " ^ String.concat " " (List.map string_of_int tags)

let string_of_set : Route_map.set_clause -> string = function
  | Set_metric n -> Printf.sprintf "set metric %d" n
  | Set_local_pref n -> Printf.sprintf "set local-preference %d" n
  | Set_community { communities; additive } ->
      "set community "
      ^ String.concat " " (List.map community_to_string communities)
      ^ (if additive then " additive" else "")
  | Set_comm_list_delete name -> Printf.sprintf "set comm-list %s delete" name
  | Set_as_path_prepend asns ->
      "set as-path prepend " ^ String.concat " " (List.map string_of_int asns)
  | Set_next_hop ip -> "set ip next-hop " ^ ipv4_to_string ip
  | Set_tag n -> Printf.sprintf "set tag %d" n
  | Set_weight n -> Printf.sprintf "set weight %d" n
  | Set_origin o -> "set origin " ^ Bgp.Route.origin_to_string o

let pp_stanza fmt name (s : Route_map.stanza) =
  Format.fprintf fmt "@[<v>route-map %s %s %d" name (Action.to_string s.action)
    s.seq;
  List.iter (fun m -> Format.fprintf fmt "@  %s" (string_of_match m)) s.matches;
  List.iter (fun c -> Format.fprintf fmt "@  %s" (string_of_set c)) s.sets;
  Format.fprintf fmt "@]"

let pp_route_map fmt (t : Route_map.t) =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt s ->
         pp_stanza fmt t.name s))
    t.stanzas

let pp_database fmt (t : Database.t) =
  let module Smap = Database.Smap in
  let sections =
    List.concat
      [
        List.map
          (fun (_, al) -> Format.asprintf "%a" pp_as_path_list al)
          (Smap.bindings t.as_path_lists);
        List.map
          (fun (_, cl) -> Format.asprintf "%a" pp_community_list cl)
          (Smap.bindings t.community_lists);
        List.map
          (fun (_, pl) -> Format.asprintf "%a" pp_prefix_list pl)
          (Smap.bindings t.prefix_lists);
        List.map
          (fun (_, acl) -> Format.asprintf "%a" pp_acl acl)
          (Smap.bindings t.acls);
        List.map
          (fun (_, rm) -> Format.asprintf "%a" pp_route_map rm)
          (Smap.bindings t.route_maps);
      ]
  in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ ")
    Format.pp_print_string fmt sections

let to_string db = Format.asprintf "@[<v>%a@]" pp_database db
