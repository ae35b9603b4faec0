(** Test helper: the simulated LLM's text layer as it was before it read
    each prompt once, kept as the reference of [test_llm]'s equivalence
    property. [words] splits, filters and rebuilds every word through a
    [Seq]; [classify] tests every word against both keyword lists with
    [List.mem]; [parse] is the intent parser over those words, without
    the range checks. *)

module Intent = Llm.Intent

type error = Unrecognized of string

let words s =
  (* Lowercase and strip punctuation that is not meaningful inside
     tokens (periods are sentence-level and handled before this). *)
  String.lowercase_ascii s
  |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\n')
  |> List.map (fun w ->
         let is_junk c = c = ',' || c = ';' || c = '"' || c = '\'' in
         String.to_seq w |> Seq.filter (fun c -> not (is_junk c))
         |> String.of_seq)
  |> List.filter (fun w -> w <> "")

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
  let has w = List.mem w ws in
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
    | w :: rest when w = kw -> (List.rev acc, rest)
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
        if List.mem "tcp" ws then Config.Packet.Tcp
        else if List.mem "udp" ws then Config.Packet.Udp
        else if List.mem "icmp" ws then Config.Packet.Icmp
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
        List.mem "established" ws && protocol = Config.Packet.Tcp
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
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let parse_route_map text = parse_route_map_sentences (sentences text)

let parse kind text =
  match kind with
  | `Route_map -> Result.map (fun i -> Intent.Route_map i) (parse_route_map text)
  | `Acl -> Result.map (fun i -> Intent.Acl i) (parse_acl_prompt text)

let error_message (Unrecognized m) = m

(* ------------------------------------------------------------------ *)
(* Classifier                                                         *)
(* ------------------------------------------------------------------ *)

let route_map_keywords =
  [
    "route"; "routes"; "route-map"; "routemap"; "stanza"; "community";
    "communities"; "med"; "metric"; "local"; "preference"; "as-path";
    "prepend"; "prepended"; "advertisement"; "advertisements"; "bgp";
    "origin"; "originating"; "next"; "hop";
  ]

let acl_keywords =
  [
    "traffic"; "packet"; "packets"; "tcp"; "udp"; "icmp"; "port"; "ports";
    "host"; "connection"; "connections"; "acl"; "access"; "access-list";
    "firewall"; "established"; "source"; "destination"; "flows";
  ]

let score keywords ws =
  List.length (List.filter (fun w -> List.mem w keywords) ws)

let classify text : [ `Acl | `Route_map ] =
  let ws = words text in
  let rm = score route_map_keywords ws and acl = score acl_keywords ws in
  if acl > rm then `Acl else `Route_map
