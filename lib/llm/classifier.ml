(** Query-type classification — the paper's first, intermediate LLM call
    that selects the synthesis pipeline (route-map vs ACL). Implemented
    as keyword scoring, which is what a temperature-0 classification
    call amounts to for this two-class problem. *)

type query_type = [ `Route_map | `Acl ]

(* One lookup per word: +1 for a route-map keyword, -1 for an ACL one.
   The two keyword sets are disjoint. *)
let vote = function
  | "route" | "routes" | "route-map" | "routemap" | "stanza" | "community"
  | "communities" | "med" | "metric" | "local" | "preference" | "as-path"
  | "prepend" | "prepended" | "advertisement" | "advertisements" | "bgp"
  | "origin" | "originating" | "next" | "hop" ->
      1
  | "traffic" | "packet" | "packets" | "tcp" | "udp" | "icmp" | "port"
  | "ports" | "host" | "connection" | "connections" | "acl" | "access"
  | "access-list" | "firewall" | "established" | "source" | "destination"
  | "flows" ->
      -1
  | _ -> 0

let classify text : query_type =
  let score = List.fold_left (fun acc w -> acc + vote w) 0 (Nl_parser.words text) in
  if score < 0 then `Acl else `Route_map

let to_string = function `Route_map -> "route-map" | `Acl -> "acl"
