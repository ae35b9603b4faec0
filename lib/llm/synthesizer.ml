(** Template-based config generation from a structured intent — the
    code-generation half of the simulated LLM. Produces Cisco IOS text
    in the shape GPT-4 produces in the paper (ancillary lists followed
    by a single stanza named after the dominant set clause). *)

let snippet_map_name (i : Intent.route_map_intent) =
  match i.sets with
  | Config.Route_map.Set_metric _ :: _ -> "SET_METRIC"
  | Config.Route_map.Set_local_pref _ :: _ -> "SET_LP"
  | Config.Route_map.Set_community _ :: _ -> "SET_COMM"
  | Config.Route_map.Set_as_path_prepend _ :: _ -> "PREPEND"
  | _ -> ( match i.action with Config.Action.Permit -> "PERMIT" | Config.Action.Deny -> "DENY")

let render_route_map (i : Intent.route_map_intent) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let matches = ref [] in
  (match i.communities with
  | [] -> ()
  | [ c ] ->
      line "ip community-list expanded COM_LIST permit _%s_"
        (Bgp.Community.to_string c);
      matches := "match community COM_LIST" :: !matches
  | cs ->
      line "ip community-list standard COM_LIST permit %s"
        (String.concat " " (List.map Bgp.Community.to_string cs));
      matches := "match community COM_LIST" :: !matches);
  (match i.prefixes with
  | [] -> ()
  | ranges ->
      (* Named after the first octet, like the paper's PREFIX_100. *)
      let first_octet =
        Netaddr.Ipv4.to_int
          (List.hd ranges).Netaddr.Prefix_range.prefix.Netaddr.Prefix.ip
        lsr 24
      in
      let name =
        if first_octet = 0 then "PREFIX_LIST"
        else Printf.sprintf "PREFIX_%d" first_octet
      in
      List.iteri
        (fun k r ->
          line "ip prefix-list %s seq %d permit %s" name ((k + 1) * 10)
            (Netaddr.Prefix_range.to_string r))
        ranges;
      matches := Printf.sprintf "match ip address prefix-list %s" name :: !matches);
  (match (i.as_path_origin, i.as_path_contains) with
  | Some a, _ ->
      line "ip as-path access-list AS_LIST permit _%d$" a;
      matches := "match as-path AS_LIST" :: !matches
  | None, Some a ->
      line "ip as-path access-list AS_LIST permit _%d_" a;
      matches := "match as-path AS_LIST" :: !matches
  | None, None -> ());
  (match i.local_pref with
  | Some n -> matches := Printf.sprintf "match local-preference %d" n :: !matches
  | None -> ());
  (match i.metric_match with
  | Some n -> matches := Printf.sprintf "match metric %d" n :: !matches
  | None -> ());
  (match i.tag_match with
  | Some n -> matches := Printf.sprintf "match tag %d" n :: !matches
  | None -> ());
  line "route-map %s %s 10" (snippet_map_name i)
    (Config.Action.to_string i.action);
  List.iter (fun m -> line " %s" m) (List.rev !matches);
  List.iter (fun s -> line " %s" (Config.Route_map.string_of_set s)) i.sets;
  Buffer.contents buf

let render_acl (i : Intent.acl_intent) =
  let rule =
    Config.Acl.rule ~seq:10 ~protocol:i.protocol ~src:i.src
      ~src_port:i.src_port ~dst:i.dst ~dst_port:i.dst_port
      ~established:i.established i.acl_action
  in
  Printf.sprintf "ip access-list extended SYNTH_ACL\n %s\n"
    (Config.Acl.string_of_rule rule)

let render = function
  | Intent.Route_map i -> render_route_map i
  | Intent.Acl i -> render_acl i
