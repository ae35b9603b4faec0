(** One scanner over the source. Each line's tokens are found in place,
    as offsets into the source, and read there: keywords are compared
    byte by byte, and numbers, addresses and prefixes are read without
    substrings. A line allocates only what the database keeps (names,
    entries, stanzas, clauses and rules) and the cells that hold them
    until [finalize]. *)

exception Syntax_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Syntax_error { line; message })) fmt

let () =
  Printexc.register_printer (function
    | Syntax_error { line; message } ->
        Some (Printf.sprintf "Syntax error on line %d: %s" line message)
    | _ -> None)

(* A named list, map or ACL being read: its items in reverse source
   order, and the sequence number its next unnumbered entry follows (the
   highest so far for a prefix list, the last for an ACL, 0 before the
   first). *)
type 'a group = { name : string; mutable items : 'a list; mutable last_seq : int }

(* The groups of one kind: in reverse order of first appearance; the
   one the last line named, which the next line usually names again;
   and by name. *)
type 'a kind = {
  mutable order : 'a group list;
  mutable last : 'a group;
  table : (string, 'a group) Hashtbl.t;
}

(* A route-map stanza whose clauses are still being read, reversed. *)
type open_stanza = {
  seq : int;
  action : Action.t;
  line : int;
  mutable matches : Route_map.match_clause list;
  mutable sets : Route_map.set_clause list;
}

type community_entry = {
  kind : [ `Standard | `Expanded ];
  permit : Action.t;
  body : string; (* the entry's tokens, one space apart *)
  at : int; (* its line *)
}

type context =
  | Ctx_none
  | Ctx_route_map of open_stanza (* the stanza indented clauses join *)
  | Ctx_acl of string (* the named ACL indented rules join *)

type state = {
  src : string;
  (* The current line's tokens: src.[starts.(i), stops.(i)) for i below
     [ntok]. *)
  mutable starts : int array;
  mutable stops : int array;
  mutable ntok : int;
  mutable cur : int; (* the next token of an ACL rule *)
  prefix_lists : (Prefix_list.entry * int) kind;
  community_lists : community_entry kind;
  as_path_lists : (Action.t * string * int) kind;
  route_maps : open_stanza kind;
  acls : (Acl.rule * int) kind;
  mutable context : context;
}

let kind () =
  let none = { name = ""; items = []; last_seq = 0 } (* no token is empty *) in
  { order = []; last = none; table = Hashtbl.create 16 }

(* ------------------------------------------------------------------ *)
(* Tokens                                                             *)
(* ------------------------------------------------------------------ *)

let grow st =
  let grow a = Array.append a (Array.make (Array.length a) 0) in
  st.starts <- grow st.starts;
  st.stops <- grow st.stops

(* Records the blank- and tab-separated tokens of the line starting at
   [pos]; returns where it ends, at its newline or the end of the
   source. One pass: each byte is read once, and a token is recorded at
   the blank, or the end of the line, that closes it. *)
let tokenize st pos =
  let src = st.src in
  let n = String.length src in
  let i = ref pos and start = ref (-1) and k = ref 0 in
  while !i < n && String.unsafe_get src !i <> '\n' do
    let c = String.unsafe_get src !i in
    if c = ' ' || c = '\t' then begin
      if !start >= 0 then begin
        if !k = Array.length st.starts then grow st;
        st.starts.(!k) <- !start;
        st.stops.(!k) <- !i;
        incr k;
        start := -1
      end
    end
    else if !start < 0 then start := !i;
    incr i
  done;
  if !start >= 0 then begin
    if !k = Array.length st.starts then grow st;
    st.starts.(!k) <- !start;
    st.stops.(!k) <- !i;
    incr k
  end;
  st.ntok <- !k;
  !i

let len st i = st.stops.(i) - st.starts.(i)

(* Whether s.[pos + k ..] begins with the rest of [word] from [k]; the
   caller has checked that [s] is long enough. *)
let rec same s pos word k =
  k = String.length word
  || String.unsafe_get s (pos + k) = String.unsafe_get word k
     && same s pos word (k + 1)

(* Token [i] exists and is [word]. *)
let is st i word =
  i < st.ntok && len st i = String.length word && same st.src st.starts.(i) word 0

let tok st i = String.sub st.src st.starts.(i) (len st i)
let rest st i =
  String.concat " " (List.init (st.ntok - i) (fun k -> tok st (i + k)))

(* The group of one kind named by s.[pos, pos + n). *)
let group k s pos n =
  let g = k.last in
  if String.length g.name = n && same s pos g.name 0 then g
  else begin
    let name = String.sub s pos n in
    let g =
      match Hashtbl.find_opt k.table name with
      | Some g -> g
      | None ->
          let g = { name; items = []; last_seq = 0 } in
          k.order <- g :: k.order;
          Hashtbl.add k.table name g;
          g
    in
    k.last <- g;
    g
  end

let group_at st k i = group k st.src st.starts.(i) (len st i)

(* ------------------------------------------------------------------ *)
(* Fields                                                             *)
(* ------------------------------------------------------------------ *)

(* Numbers are unsigned decimal ({!Netaddr.Decimal}). *)
let decimal st i = Netaddr.Decimal.parse st.src st.starts.(i) (len st i)

let int_arg st ln what i =
  let n = decimal st i in
  if n < 0 then fail ln "expected %s, found %S" what (tok st i);
  n

(* The decimal magnitude of a token that starts with a minus sign, or
   -1. A sign is never a number, but it is read where a negative value
   already had a located error of its own. *)
let negative st i =
  let p = st.starts.(i) in
  if st.src.[p] = '-' then Netaddr.Decimal.parse st.src (p + 1) (len st i - 1)
  else -1

(* A number the symbolic encodings hold in a fixed width: ports in 16
   bits, local-preference, metric and tag in 32. *)
let bounded_arg st ln what max i =
  let m = negative st i in
  if m >= 0 then fail ln "%s -%d is out of range 0-%d" what m max;
  let n = int_arg st ln what i in
  if n > max then fail ln "%s %d is out of range 0-%d" what n max;
  n

let u32_arg st ln what i = bounded_arg st ln what 0xFFFF_FFFF i

(* A [ge]/[le] bound. A negative one reads as -1, which no range admits:
   like any negative bound, it fails [Prefix_range.make]'s check. *)
let bound_arg st ln what i =
  if negative st i >= 0 then -1 else int_arg st ln what i

let action_arg st ln i =
  if is st i "permit" then Action.Permit
  else if is st i "deny" then Action.Deny
  else fail ln "expected permit or deny, found %S" (tok st i)

let prefix_arg st ln i =
  match Netaddr.Prefix.of_substring st.src st.starts.(i) (len st i) with
  | Some p -> p
  | None -> fail ln "expected prefix a.b.c.d/len, found %S" (tok st i)

let ipv4 st i = Netaddr.Ipv4.of_substring st.src st.starts.(i) (len st i)

let ipv4_arg st ln i =
  match ipv4 st i with
  | Some a -> a
  | None -> fail ln "expected IPv4 address, found %S" (tok st i)

let community_arg st ln i =
  match Bgp.Community.of_substring st.src st.starts.(i) (len st i) with
  | Some c -> c
  | None -> fail ln "expected community a:b, found %S" (tok st i)

let protocol_arg st ln i =
  if is st i "ip" then Packet.Ip
  else if is st i "tcp" then Packet.Tcp
  else if is st i "udp" then Packet.Udp
  else if is st i "icmp" then Packet.Icmp
  else
    let n = decimal st i in
    if n >= 0 && n <= 255 then Packet.protocol_of_number n
    else fail ln "unknown protocol %S" (tok st i)

(* "10.0.0.0/8 le 24" / "ge 24 le 28": the prefix at [i], then
   modifiers to the end of the line. *)
let rec range_mods st ln prefix i ge le =
  if i = st.ntok then
    try Netaddr.Prefix_range.make prefix ~ge ~le
    with Invalid_argument m -> fail ln "%s" m
  else if i + 1 < st.ntok && is st i "ge" then
    range_mods st ln prefix (i + 2) (Some (bound_arg st ln "ge bound" (i + 1))) le
  else if i + 1 < st.ntok && is st i "le" then
    range_mods st ln prefix (i + 2) ge (Some (bound_arg st ln "le bound" (i + 1)))
  else fail ln "unexpected token %S after prefix" (tok st i)

let prefix_range st ln i =
  if i >= st.ntok then fail ln "missing prefix";
  range_mods st ln (prefix_arg st ln i) (i + 1) None None

(* ------------------------------------------------------------------ *)
(* ACL rules                                                          *)
(* ------------------------------------------------------------------ *)

let rec has_slash s i stop = i < stop && (s.[i] = '/' || has_slash s (i + 1) stop)

(* any | host A | A/len | A W, from token [st.cur]. *)
let addr_spec st ln =
  let i = st.cur in
  if i >= st.ntok then fail ln "missing address spec"
  else if is st i "any" then begin
    st.cur <- i + 1;
    Acl.Any
  end
  else if is st i "host" && i + 1 < st.ntok then begin
    st.cur <- i + 2;
    Acl.Host (ipv4_arg st ln (i + 1))
  end
  else if has_slash st.src st.starts.(i) st.stops.(i) then begin
    st.cur <- i + 1;
    Acl.addr_of_prefix (prefix_arg st ln i)
  end
  else
    let pair =
      if i + 1 < st.ntok then (ipv4 st i, ipv4 st (i + 1)) else (None, None)
    in
    match pair with
    | Some base, Some wild ->
        st.cur <- i + 2;
        Acl.Wildcard (base, wild)
    | _ -> fail ln "expected address spec, found %S" (tok st i)

let port_spec st ln =
  let i = st.cur in
  let port j = bounded_arg st ln "port" 65535 j in
  let op word = i + 1 < st.ntok && is st i word in
  let one f =
    st.cur <- i + 2;
    f (port (i + 1))
  in
  if op "eq" then one (fun p -> Acl.Eq p)
  else if op "neq" then one (fun p -> Acl.Neq p)
  else if op "lt" then one (fun p -> Acl.Lt p)
  else if op "gt" then one (fun p -> Acl.Gt p)
  else if i + 2 < st.ntok && is st i "range" then begin
    let a = port (i + 1) in
    let b = port (i + 2) in
    if a > b then fail ln "port range %d %d is empty" a b;
    st.cur <- i + 3;
    Acl.Range (a, b)
  end
  else Acl.Any_port

(* [SEQ] permit|deny PROTO SRC [PORT] DST [PORT] [established], from
   token [i]. Unnumbered: 10 past the highest existing, as IOS does. *)
let acl_rule st ln g i =
  let numbered = i < st.ntok && decimal st i >= 0 in
  let seq = if numbered then decimal st i else g.last_seq + 10 in
  let i = if numbered then i + 1 else i in
  g.last_seq <- max g.last_seq seq;
  if i + 1 >= st.ntok then fail ln "truncated ACL rule";
  let action = action_arg st ln i in
  let protocol = protocol_arg st ln (i + 1) in
  st.cur <- i + 2;
  let src = addr_spec st ln in
  let src_port = port_spec st ln in
  let dst = addr_spec st ln in
  let dst_port = port_spec st ln in
  let established = is st st.cur "established" in
  if established then st.cur <- st.cur + 1;
  if st.cur < st.ntok then
    fail ln "unexpected trailing tokens: %s" (rest st st.cur);
  if
    (src_port <> Acl.Any_port || dst_port <> Acl.Any_port)
    && not (Packet.has_ports protocol)
  then fail ln "port specifiers require tcp or udp";
  if established && protocol <> Packet.Tcp then
    fail ln "established requires tcp";
  g.items <-
    ({ Acl.seq; action; protocol; src; src_port; dst; dst_port; established }, ln)
    :: g.items

(* ------------------------------------------------------------------ *)
(* Route-map clauses                                                  *)
(* ------------------------------------------------------------------ *)

let rec names st i = if i = st.ntok then [] else tok st i :: names st (i + 1)

(* The clause after "match", from token 1. *)
let match_clause st ln =
  let n = st.ntok in
  if n > 4 && is st 1 "ip" && is st 2 "address" && is st 3 "prefix-list" then
    Route_map.Match_prefix_list (names st 4)
  else if n > 2 && is st 1 "community" then
    Route_map.Match_community (names st 2)
  else if n > 2 && is st 1 "as-path" then Route_map.Match_as_path (names st 2)
  else if n = 3 && is st 1 "local-preference" then
    Route_map.Match_local_pref (u32_arg st ln "local-preference" 2)
  else if n = 3 && is st 1 "metric" then
    Route_map.Match_metric (u32_arg st ln "metric" 2)
  else if n > 2 && is st 1 "tag" then
    Route_map.Match_tag (List.init (n - 2) (fun k -> u32_arg st ln "tag" (2 + k)))
  else fail ln "unsupported match clause: match %s" (rest st 1)

(* The clause after "set", from token 1. *)
let set_clause st ln =
  let n = st.ntok in
  if n = 3 && is st 1 "metric" then
    Route_map.Set_metric (u32_arg st ln "metric" 2)
  else if n = 3 && is st 1 "local-preference" then
    Route_map.Set_local_pref (u32_arg st ln "local-preference" 2)
  else if n > 2 && is st 1 "community" then begin
    let additive = is st (n - 1) "additive" in
    let stop = if additive then n - 1 else n in
    if stop = 2 then fail ln "set community needs at least one community";
    Route_map.Set_community
      {
        communities = List.init (stop - 2) (fun k -> community_arg st ln (2 + k));
        additive;
      }
  end
  else if n = 4 && is st 1 "comm-list" && is st 3 "delete" then
    Route_map.Set_comm_list_delete (tok st 2)
  else if n > 3 && is st 1 "as-path" && is st 2 "prepend" then
    Route_map.Set_as_path_prepend
      (List.init (n - 3) (fun k -> int_arg st ln "asn" (3 + k)))
  else if n = 4 && is st 1 "ip" && is st 2 "next-hop" then
    Route_map.Set_next_hop (ipv4_arg st ln 3)
  else if n = 3 && is st 1 "tag" then Route_map.Set_tag (u32_arg st ln "tag" 2)
  else if n = 3 && is st 1 "weight" then
    Route_map.Set_weight (int_arg st ln "weight" 2)
  else if n = 3 && is st 1 "origin" then
    Route_map.Set_origin
      (if is st 2 "igp" then Bgp.Route.Igp
       else if is st 2 "egp" then Bgp.Route.Egp
       else if is st 2 "incomplete" then Bgp.Route.Incomplete
       else fail ln "unknown origin %S" (tok st 2))
  else fail ln "unsupported set clause: set %s" (rest st 1)

(* ------------------------------------------------------------------ *)
(* Lines                                                              *)
(* ------------------------------------------------------------------ *)

(* ip prefix-list NAME [seq N] permit|deny PFX [ge N] [le N] *)
let prefix_list_line st ln =
  st.context <- Ctx_none;
  let numbered = st.ntok > 4 && is st 3 "seq" in
  let seq = if numbered then int_arg st ln "seq" 4 else 0 in
  let i = if numbered then 5 else 3 in
  if i >= st.ntok then fail ln "truncated prefix-list entry";
  let action = action_arg st ln i in
  let range = prefix_range st ln (i + 1) in
  let g = group_at st st.prefix_lists 2 in
  (* Unnumbered: 10 past the highest existing. *)
  let seq = if numbered then seq else g.last_seq + 10 in
  g.last_seq <- max g.last_seq seq;
  g.items <- ({ Prefix_list.seq; action; range }, ln) :: g.items

(* ip community-list [standard|expanded] NAME permit|deny ... *)
let community_list_line st ln =
  st.context <- Ctx_none;
  if st.ntok = 2 then fail ln "truncated community-list";
  let kind, i =
    if st.ntok > 3 && is st 2 "standard" then (`Standard, 3)
    else if st.ntok > 3 && is st 2 "expanded" then (`Expanded, 3)
    else (`Standard, 2)
  in
  if i + 2 >= st.ntok then fail ln "truncated community-list entry";
  let permit = action_arg st ln (i + 1) in
  let g = group_at st st.community_lists i in
  g.items <- { kind; permit; body = rest st (i + 2); at = ln } :: g.items

let parse_line st ln =
  let n = st.ntok in
  if n = 0 then ()
  else if is st 0 "!" then st.context <- Ctx_none
  else if n > 2 && is st 0 "ip" && is st 1 "prefix-list" then
    prefix_list_line st ln
  else if n > 1 && is st 0 "ip" && is st 1 "community-list" then
    community_list_line st ln
  else if n > 5 && is st 0 "ip" && is st 1 "as-path" && is st 2 "access-list"
  then begin
    (* ip as-path access-list NAME permit|deny REGEX *)
    st.context <- Ctx_none;
    let action = action_arg st ln 4 in
    let g = group_at st st.as_path_lists 3 in
    g.items <- (action, rest st 5, ln) :: g.items
  end
  else if n = 4 && is st 0 "route-map" then begin
    let action = action_arg st ln 2 in
    let seq = int_arg st ln "sequence number" 3 in
    let g = group_at st st.route_maps 1 in
    let s = { seq; action; line = ln; matches = []; sets = [] } in
    g.items <- s :: g.items;
    st.context <- Ctx_route_map s
  end
  else if n = 4 && is st 0 "ip" && is st 1 "access-list" && is st 2 "extended"
  then
    st.context <- Ctx_acl (tok st 3)
  else if n > 1 && is st 0 "access-list" && decimal st 1 >= 0 then begin
    st.context <- Ctx_none;
    acl_rule st ln (group_at st st.acls 1) 2
  end
  else if is st 0 "match" then
    match st.context with
    | Ctx_route_map s -> s.matches <- match_clause st ln :: s.matches
    | _ -> fail ln "match clause outside a route-map stanza"
  else if is st 0 "set" then
    match st.context with
    | Ctx_route_map s -> s.sets <- set_clause st ln :: s.sets
    | _ -> fail ln "set clause outside a route-map stanza"
  else if is st 0 "permit" || is st 0 "deny" || is st 1 "permit" || is st 1 "deny"
  then
    match st.context with
    | Ctx_acl name ->
        acl_rule st ln (group st.acls name 0 (String.length name)) 0
    | _ -> fail ln "ACL rule outside an access-list block"
  else fail ln "unrecognized directive %S" (tok st 0)

(* ------------------------------------------------------------------ *)
(* Finalize: one construct per group                                 *)
(* ------------------------------------------------------------------ *)

(* Whether [compile] rejects [source]. A constructor compiles its
   entries' regexes in order, so the first entry rejected is the one its
   error is about. *)
let rejects compile source =
  match compile source with _ -> false | exception _ -> true

(* [make g.name values], [values] being the group's items in source
   order. [make] fails only on a duplicate sequence number; that is
   located at the first entry whose seq an earlier entry holds, with the
   error [make] gives for the entries up to it, which is the error of
   the config's lines up to that one. *)
let sequenced ~seq ~line g make values =
  try make g.name values
  with Invalid_argument _ as e ->
    let seen = Hashtbl.create 8 in
    let rec first_repeat i = function
      | [] -> raise e
      | x :: _ when Hashtbl.mem seen (seq x) -> (
          match make g.name (List.filteri (fun j _ -> j <= i) values) with
          | _ -> raise e
          | exception Invalid_argument m -> fail (line x) "%s" m)
      | x :: rest ->
          Hashtbl.replace seen (seq x) ();
          first_repeat (i + 1) rest
    in
    first_repeat 0 (List.rev g.items)

(* A clause list in source order. Most hold one clause, kept as it is. *)
let rev = function ([] | [ _ ]) as l -> l | l -> List.rev l

let community_list name entries =
  let first = List.hd entries in
  (match List.find_opt (fun e -> e.kind <> first.kind) entries with
  | Some e ->
      fail e.at "community-list %s mixes standard and expanded entries" name
  | None -> ());
  match first.kind with
  | `Standard ->
      let entry e =
        let tokens = String.split_on_char ' ' e.body in
        match List.map Bgp.Community.of_string_exn tokens with
        | communities -> { Community_list.action = e.permit; communities }
        | exception Invalid_argument m -> fail e.at "%s" m
      in
      Community_list.standard name (List.map entry entries)
  | `Expanded -> (
      let sources = List.map (fun e -> (e.permit, e.body)) entries in
      try Community_list.expanded name sources
      with Sre.Community_regex.Parse_error m ->
        let bad e = rejects Sre.Community_regex.compile e.body in
        fail (List.find bad entries).at "community regex: %s" m)

(* Each kind's groups go in reverse order of first appearance, as they
   always have: that order gives the database's maps their shape.
   Entries are checked in source order. When several groups fail, the
   error on the earliest line is reported, once every group is built. *)
let finalize st =
  let first_error = ref None in
  let add k f =
    List.fold_left
      (fun m g ->
        match f g with
        | v -> Database.Smap.add g.name v m
        | exception (Syntax_error { line; _ } as e) ->
            (match !first_error with
            | Some (Syntax_error { line = l; _ }) when l <= line -> ()
            | _ -> first_error := Some e);
            m)
      Database.Smap.empty k.order
  in
  let prefix_lists =
    add st.prefix_lists (fun g ->
        sequenced g
          ~seq:(fun ((e : Prefix_list.entry), _) -> e.seq)
          ~line:snd Prefix_list.make (List.rev_map fst g.items))
  in
  let community_lists =
    add st.community_lists (fun g -> community_list g.name (List.rev g.items))
  in
  let as_path_lists =
    add st.as_path_lists (fun g ->
        let entries = List.rev g.items in
        let sources = List.map (fun (action, src, _) -> (action, src)) entries in
        try As_path_list.make g.name sources
        with Sre.As_path_regex.Parse_error m ->
          let bad (_, src, _) = rejects Sre.As_path_regex.compile src in
          let _, _, line = List.find bad entries in
          fail line "as-path regex: %s" m)
  in
  let route_maps =
    add st.route_maps (fun g ->
        let stanza s =
          {
            Route_map.seq = s.seq;
            action = s.action;
            matches = rev s.matches;
            sets = rev s.sets;
          }
        in
        sequenced g ~seq:(fun s -> s.seq) ~line:(fun s -> s.line) Route_map.make
          (List.rev_map stanza g.items))
  in
  let acls =
    add st.acls (fun g ->
        sequenced g
          ~seq:(fun ((r : Acl.rule), _) -> r.seq)
          ~line:snd Acl.make (List.rev_map fst g.items))
  in
  Option.iter raise !first_error;
  { Database.prefix_lists; community_lists; as_path_lists; route_maps; acls }

let parse_exn source =
  let st =
    {
      src = source;
      starts = Array.make 16 0;
      stops = Array.make 16 0;
      ntok = 0;
      cur = 0;
      prefix_lists = kind ();
      community_lists = kind ();
      as_path_lists = kind ();
      route_maps = kind ();
      acls = kind ();
      context = Ctx_none;
    }
  in
  let rec lines ln pos =
    let stop = tokenize st pos in
    parse_line st ln;
    if stop < String.length source then lines (ln + 1) (stop + 1)
  in
  lines 1 0;
  finalize st

let parse source =
  match parse_exn source with
  | db -> Ok db
  | exception Syntax_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)

let to_string db = Text.to_string Database.write db
