type origin = Igp | Egp | Incomplete

type t = {
  prefix : Netaddr.Prefix.t;
  as_path : int list;
  communities : Community.t list;
  local_pref : int;
  metric : int;
  next_hop : Netaddr.Ipv4.t;
  origin : origin;
  tag : int;
  weight : int;
}

let normalize_communities cs = List.sort_uniq Community.compare cs

let make ?(as_path = []) ?(communities = []) ?(local_pref = 100) ?(metric = 0)
    ?(next_hop = Netaddr.Ipv4.of_int 1) ?(tag = 0) prefix =
  {
    prefix;
    as_path;
    communities = normalize_communities communities;
    local_pref;
    metric;
    next_hop;
    origin = Igp;
    tag;
    weight = 0;
  }

let with_communities r cs = { r with communities = normalize_communities cs }
let add_communities r cs = with_communities r (cs @ r.communities)

let delete_communities r keep_if =
  { r with communities = List.filter (fun c -> not (keep_if c)) r.communities }

let has_community r c = List.exists (Community.equal c) r.communities
let prepend_as_path r asns = { r with as_path = asns @ r.as_path }

let origin_to_string = function
  | Igp -> "igp"
  | Egp -> "egp"
  | Incomplete -> "incomplete"

let compare a b = Stdlib.compare a b
let equal a b = compare a b = 0

let pp fmt r =
  Format.fprintf fmt "@[<v>Network: %a@ AS Path: [%s]@ Communities: [%s]@ \
                      Local Preference: %d@ Metric: %d@ Next Hop IP: %a@ \
                      Origin: %s@ Tag: %d@ Weight: %d@]"
    Netaddr.Prefix.pp r.prefix
    (String.concat ", " (List.map string_of_int r.as_path))
    (String.concat ", "
       (List.map (fun c -> "\"" ^ Community.to_string c ^ "\"") r.communities))
    r.local_pref r.metric Netaddr.Ipv4.pp r.next_hop
    (origin_to_string r.origin) r.tag r.weight
