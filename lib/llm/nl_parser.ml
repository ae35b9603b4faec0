(** Constrained-English intent parser — the language-understanding half
    of the simulated LLM.

    Accepted phrasing (case-insensitive; synonyms in parentheses):

    Route-map intents — first sentence gives match conditions, later
    sentences give set clauses:
    - "permits (allows, accepts) / denies (blocks, drops, rejects) routes"
    - "containing the prefix 100.0.0.0/16 with mask length less than or
      equal to 23" (also "greater than or equal to", "between A and B",
      "at most", "at least")
    - "tagged with the community 300:3" / "communities 1:2 and 3:4"
    - "originating from AS 32", "passing through AS 100"
    - "with local preference 300", "with MED 20" ("metric"), "with tag 7"
    - set sentences: "Their MED (metric) value should be set to 55",
      "Their local preference should be set to 200", "The communities
      65000:1 should be added", "Their communities should be replaced
      with 65000:1", "The AS path should be prepended with 65000 65000",
      "The next hop should be set to 10.0.0.1", "Their tag/weight/origin
      should be set to ...".

    ACL intents:
    - "permits tcp (udp, icmp, ip) traffic from <src> to <dst>"
    - endpoints: "anywhere"/"any"/"any destination", "host 1.2.3.4",
      "10.0.0.0/8"
    - "with source/destination port 443", "port above/below N",
      "ports A to B", "for established connections" *)

type error =
  | Unrecognized of string
  | Out_of_range of string

(* One pass over the bytes: a blank or a newline ends a word, list
   punctuation is dropped (periods are sentence-level and handled before
   this), and every other byte joins the word lowercased. A word of
   punctuation only is no word. *)
let words s =
  let n = String.length s in
  let word = Bytes.create n in
  let acc = ref [] and k = ref 0 in
  let flush () =
    if !k > 0 then begin
      acc := Bytes.sub_string word 0 !k :: !acc;
      k := 0
    end
  in
  for i = 0 to n - 1 do
    match String.unsafe_get s i with
    | ' ' | '\n' -> flush ()
    | ',' | ';' | '"' | '\'' -> ()
    | c ->
        Bytes.unsafe_set word !k (Char.lowercase_ascii c);
        incr k
  done;
  flush ();
  List.rev !acc

let mem w ws = List.exists (String.equal w) ws

(* Split into sentences on ". " and a trailing "."; prefixes like
   10.0.0.0/8 contain no ". " so they survive. *)
let sentences s =
  let s = String.trim s in
  let n = String.length s in
  let out = ref [] in
  let start = ref 0 in
  for i = 0 to n - 2 do
    if s.[i] = '.' && (s.[i + 1] = ' ' || s.[i + 1] = '\n') then begin
      out := String.sub s !start (i - !start) :: !out;
      start := i + 1
    end
  done;
  let last = String.sub s !start (n - !start) in
  let last =
    let l = String.trim last in
    if l <> "" && l.[String.length l - 1] = '.' then
      String.sub l 0 (String.length l - 1)
    else l
  in
  List.rev (last :: !out) |> List.filter (fun x -> String.trim x <> "")

let action_of_word = function
  | "permit" | "permits" | "allow" | "allows" | "accept" | "accepts" ->
      Some Config.Action.Permit
  | "deny" | "denies" | "block" | "blocks" | "drop" | "drops" | "reject"
  | "rejects" ->
      Some Config.Action.Deny
  | _ -> None

let find_action ws =
  match List.find_map action_of_word ws with
  | Some a -> Ok a
  | None -> Error (Unrecognized "no permit/deny verb found")

let int_word w = int_of_string_opt w

(* ------------------------------------------------------------------ *)
(* Route-map match conditions                                         *)
(* ------------------------------------------------------------------ *)

(* "less than or equal to 23" / "at most 23" / "greater than or equal
   to 24" / "at least 24" / "between 24 and 28" — returns (ge, le). *)
let rec parse_window = function
  | "less" :: "than" :: "or" :: "equal" :: "to" :: n :: _
  | "at" :: "most" :: n :: _ ->
      Option.map (fun v -> (None, Some v)) (int_word n)
  | "greater" :: "than" :: "or" :: "equal" :: "to" :: n :: _
  | "at" :: "least" :: n :: _ ->
      Option.map (fun v -> (Some v, None)) (int_word n)
  | "between" :: a :: "and" :: b :: _ -> (
      match (int_word a, int_word b) with
      | Some a, Some b -> Some (Some a, Some b)
      | _ -> None)
  | _ :: rest -> parse_window rest
  | [] -> None

(* Scan for prefixes; each may be followed by "with mask length ..." *)
let rec collect_prefixes acc = function
  | [] -> List.rev acc
  | w :: rest -> (
      match Netaddr.Prefix.of_string w with
      | None -> collect_prefixes acc rest
      | Some p ->
          let window =
            match rest with
            | "with" :: "mask" :: "length" :: tail -> parse_window tail
            | _ -> None
          in
          let range =
            match window with
            | Some (ge, le) -> (
                try Some (Netaddr.Prefix_range.make p ~ge ~le)
                with Invalid_argument _ -> None)
            | None -> Some (Netaddr.Prefix_range.exact p)
          in
          collect_prefixes
            (match range with Some r -> r :: acc | None -> acc)
            rest)

let rec collect_communities acc = function
  | [] -> List.rev acc
  | w :: rest -> (
      match Bgp.Community.of_string w with
      | Some c -> collect_communities (c :: acc) rest
      | None -> collect_communities acc rest)

let rec find_as_clause = function
  | ("originating" | "originated") :: rest -> (
      match rest with
      | "from" :: ("as" | "asn") :: n :: _ ->
          Option.map (fun a -> `Origin a) (int_word n)
      | _ -> find_as_clause rest)
  | ("passing" | "going") :: "through" :: ("as" | "asn") :: n :: _ ->
      Option.map (fun a -> `Contains a) (int_word n)
  | "transiting" :: ("as" | "asn") :: n :: _ ->
      Option.map (fun a -> `Contains a) (int_word n)
  | _ :: rest -> find_as_clause rest
  | [] -> None

let rec find_local_pref = function
  | "local" :: ("preference" | "pref") :: n :: _ -> int_word n
  | "local-preference" :: n :: _ -> int_word n
  | _ :: rest -> find_local_pref rest
  | [] -> None

let rec find_metric_match = function
  | ("med" | "metric") :: n :: _ -> int_word n
  | _ :: rest -> find_metric_match rest
  | [] -> None

let rec find_tag_match = function
  | "tag" :: n :: _ -> int_word n
  | _ :: rest -> find_tag_match rest
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Route-map set sentences                                            *)
(* ------------------------------------------------------------------ *)

let rec last_int = function
  | [] -> None
  | [ w ] -> int_word w
  | _ :: rest -> last_int rest

let parse_set_sentence ws =
  let has w = mem w ws in
  let value_after_to () =
    let rec go = function
      | "to" :: v :: _ -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go ws
  in
  if (has "med" || has "metric") && (has "set" || has "be") then
    Option.map (fun n -> Config.Route_map.Set_metric n) (last_int ws)
  else if has "local" && (has "preference" || has "pref") then
    Option.map (fun n -> Config.Route_map.Set_local_pref n) (last_int ws)
  else if (has "communities" || has "community") && has "added" then
    match collect_communities [] ws with
    | [] -> None
    | communities ->
        Some (Config.Route_map.Set_community { communities; additive = true })
  else if (has "communities" || has "community") && (has "replaced" || has "set")
  then
    match collect_communities [] ws with
    | [] -> None
    | communities ->
        Some (Config.Route_map.Set_community { communities; additive = false })
  else if has "prepended" || has "prepend" then
    let asns = List.filter_map int_word ws in
    if asns = [] then None else Some (Config.Route_map.Set_as_path_prepend asns)
  else if has "next" && has "hop" then
    Option.bind (value_after_to ()) (fun v ->
        Option.map
          (fun ip -> Config.Route_map.Set_next_hop ip)
          (Netaddr.Ipv4.of_string v))
  else if has "tag" then
    Option.map (fun n -> Config.Route_map.Set_tag n) (last_int ws)
  else if has "weight" then
    Option.map (fun n -> Config.Route_map.Set_weight n) (last_int ws)
  else if has "origin" then
    Option.bind (value_after_to ()) (fun v ->
        match v with
        | "igp" -> Some (Config.Route_map.Set_origin Bgp.Route.Igp)
        | "egp" -> Some (Config.Route_map.Set_origin Bgp.Route.Egp)
        | "incomplete" -> Some (Config.Route_map.Set_origin Bgp.Route.Incomplete)
        | _ -> None)
  else None

let parse_route_map_sentences = function
  | [] -> Error (Unrecognized "empty prompt")
  | first :: rest -> (
      let ws = words first in
      match find_action ws with
      | Error e -> Error e
      | Ok action ->
          let prefixes = collect_prefixes [] ws in
          let communities = collect_communities [] ws in
          let as_path_origin, as_path_contains =
            match find_as_clause ws with
            | Some (`Origin a) -> (Some a, None)
            | Some (`Contains a) -> (None, Some a)
            | None -> (None, None)
          in
          let sets = List.filter_map (fun s -> parse_set_sentence (words s)) rest in
          if List.length sets <> List.length rest then
            Error (Unrecognized "could not understand a set-clause sentence")
          else
            Ok
              {
                Intent.action;
                prefixes;
                communities;
                as_path_origin;
                as_path_contains;
                local_pref = find_local_pref ws;
                metric_match = find_metric_match ws;
                tag_match = find_tag_match ws;
                sets;
              })

(* ------------------------------------------------------------------ *)
(* ACL intents                                                        *)
(* ------------------------------------------------------------------ *)

let parse_endpoint ws =
  (* The endpoint phrase runs until "to"/"with"/end. *)
  let rec go = function
    | [] -> (Config.Acl.Any, [])
    | ("any" | "anywhere" | "anything") :: rest -> (Config.Acl.Any, rest)
    | "destination" :: rest -> go rest
    | "host" :: ip :: rest -> (
        match Netaddr.Ipv4.of_string ip with
        | Some a -> (Config.Acl.Host a, rest)
        | None -> (Config.Acl.Any, rest))
    | w :: rest -> (
        match Netaddr.Prefix.of_string w with
        | Some p -> (Config.Acl.addr_of_prefix p, rest)
        | None -> (
            match Netaddr.Ipv4.of_string w with
            | Some a -> (Config.Acl.Host a, rest)
            | None -> go rest))
  in
  go ws

let parse_port_phrase ws =
  let rec go = function
    | "port" :: "above" :: n :: _ -> Option.map (fun v -> Config.Acl.Gt v) (int_word n)
    | "port" :: "below" :: n :: _ -> Option.map (fun v -> Config.Acl.Lt v) (int_word n)
    | "port" :: "not" :: n :: _ -> Option.map (fun v -> Config.Acl.Neq v) (int_word n)
    | "port" :: n :: _ -> Option.map (fun v -> Config.Acl.Eq v) (int_word n)
    | "ports" :: a :: "to" :: b :: _ -> (
        match (int_word a, int_word b) with
        | Some a, Some b -> Some (Config.Acl.Range (a, b))
        | _ -> None)
    | _ :: rest -> go rest
    | [] -> None
  in
  go ws

(* Split a token list at the first occurrence of a keyword. *)
let split_at kw ws =
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | w :: rest when String.equal w kw -> (List.rev acc, rest)
    | w :: rest -> go (w :: acc) rest
  in
  go [] ws

let parse_acl_prompt text =
  (* ACL intents are a single sentence; going through [sentences] strips
     the trailing period so numeric tokens parse cleanly. *)
  let text = match sentences text with s :: _ -> s | [] -> text in
  let ws = words text in
  match find_action ws with
  | Error e -> Error e
  | Ok acl_action ->
      let protocol =
        if mem "tcp" ws then Config.Packet.Tcp
        else if mem "udp" ws then Config.Packet.Udp
        else if mem "icmp" ws then Config.Packet.Icmp
        else Config.Packet.Ip
      in
      let _, after_from = split_at "from" ws in
      let before_to, after_to = split_at "to" after_from in
      let src, _ = parse_endpoint before_to in
      let dst, _ = parse_endpoint after_to in
      (* Port phrases: "source port N" / "destination port N"; a bare
         "port N" applies to the destination. *)
      let src_port =
        let _, after_src = split_at "source" ws in
        match parse_port_phrase after_src with
        | Some p -> p
        | None -> Config.Acl.Any_port
      in
      let dst_port =
        let _, after_dst = split_at "destination" ws in
        match parse_port_phrase after_dst with
        | Some p -> p
        | None -> (
            (* bare "on port N" anywhere after "to" *)
            match parse_port_phrase after_to with
            | Some p -> p
            | None -> Config.Acl.Any_port)
      in
      let src_port, dst_port =
        if not (Config.Packet.has_ports protocol) then
          (Config.Acl.Any_port, Config.Acl.Any_port)
        else (src_port, dst_port)
      in
      let established =
        mem "established" ws && protocol = Config.Packet.Tcp
      in
      Ok
        {
          Intent.acl_action;
          protocol;
          src;
          src_port;
          dst;
          dst_port;
          established;
        }

(* ------------------------------------------------------------------ *)
(* Range checks                                                       *)
(* ------------------------------------------------------------------ *)

(* The numbers the config language holds in fixed widths, checked with
   the config parser's messages, so an intent that no config can
   express is a spec error before any stanza or rule is built from it.
   An as-path match's AS number goes into a regex, where a sign is a
   syntax error, so it is held to the 32-bit AS range. *)

let ( let* ) = Result.bind
let u32 = 0xFFFF_FFFF

let within what max n =
  if n >= 0 && n <= max then Ok ()
  else Error (Out_of_range (Printf.sprintf "%s %d is out of range 0-%d" what n max))

let check_port = function
  | Config.Acl.Any_port -> Ok ()
  | Config.Acl.Eq n | Neq n | Lt n | Gt n -> within "port" 65535 n
  | Config.Acl.Range (a, b) ->
      let* () = within "port" 65535 a in
      let* () = within "port" 65535 b in
      if a > b then
        Error (Out_of_range (Printf.sprintf "port range %d %d is empty" a b))
      else Ok ()

let check_acl (i : Intent.acl_intent) =
  let* () = check_port i.src_port in
  check_port i.dst_port

let check_route_map (i : Intent.route_map_intent) =
  let some what = function None -> Ok () | Some n -> within what u32 n in
  let set = function
    | Config.Route_map.Set_metric n -> within "metric" u32 n
    | Config.Route_map.Set_local_pref n -> within "local-preference" u32 n
    | Config.Route_map.Set_tag n -> within "tag" u32 n
    | _ -> Ok ()
  in
  let* () = some "AS" i.as_path_origin in
  let* () = some "AS" i.as_path_contains in
  let* () = some "local-preference" i.local_pref in
  let* () = some "metric" i.metric_match in
  let* () = some "tag" i.tag_match in
  List.fold_left (fun r s -> Result.bind r (fun () -> set s)) (Ok ()) i.sets

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let checked check = function
  | Ok i -> Result.map (fun () -> i) (check i)
  | Error _ as e -> e

let parse_route_map text =
  checked check_route_map (parse_route_map_sentences (sentences text))

let parse kind text =
  match kind with
  | `Route_map -> Result.map (fun i -> Intent.Route_map i) (parse_route_map text)
  | `Acl ->
      Result.map (fun i -> Intent.Acl i) (checked check_acl (parse_acl_prompt text))

let error_message (Unrecognized m | Out_of_range m) = m
