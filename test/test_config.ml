open Config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let pfx = Netaddr.Prefix.of_string_exn
let ip = Netaddr.Ipv4.of_string_exn
let comm = Bgp.Community.of_string_exn

(* The paper's running example (Section 2.1). *)
let isp_out_config =
  {|
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
|}

let parse_ok src =
  match Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

let db () = parse_ok isp_out_config
let isp_out d = Option.get (Database.route_map d "ISP_OUT")

(* ------------------------------------------------------------------ *)
(* Parsing structure                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_structure () =
  let d = db () in
  let rm = isp_out d in
  check_int "three stanzas" 3 (List.length rm.Route_map.stanzas);
  let seqs = List.map (fun (s : Route_map.stanza) -> s.seq) rm.Route_map.stanzas in
  Alcotest.(check (list int)) "stanza seqs" [ 10; 20; 30 ] seqs;
  let actions =
    List.map (fun (s : Route_map.stanza) -> s.action) rm.Route_map.stanzas
  in
  check "deny deny permit" true
    (actions = [ Action.Deny; Action.Deny; Action.Permit ]);
  let d1 = Option.get (Database.prefix_list d "D1") in
  check_int "D1 entries" 3 (List.length d1.Prefix_list.entries);
  check "D0 exists" true (Database.as_path_list d "D0" <> None)

let test_parse_acl () =
  let d =
    parse_ok
      {|
ip access-list extended FW
 permit tcp 10.0.0.0/8 any eq 443
 deny udp any 192.168.0.0 0.0.255.255 range 100 200
 permit icmp host 1.2.3.4 any
 deny ip any any
|}
  in
  let acl = Option.get (Database.acl d "FW") in
  check_int "four rules" 4 (List.length acl.Acl.rules);
  let seqs = List.map (fun (r : Acl.rule) -> r.seq) acl.Acl.rules in
  Alcotest.(check (list int)) "auto seqs" [ 10; 20; 30; 40 ] seqs

let test_parse_numbered_acl () =
  let d =
    parse_ok
      {|
access-list 101 permit tcp any any eq 80
access-list 101 deny ip any any
|}
  in
  let acl = Option.get (Database.acl d "101") in
  check_int "two rules" 2 (List.length acl.Acl.rules)

(* An unnumbered rule takes 10 past the highest sequence number so far,
   not past the previous rule's, as prefix-list entries do. *)
let test_parse_acl_auto_seq_past_highest () =
  let d = parse_ok "ip access-list extended A\n 20 permit ip any any\n 10 deny ip any any\n permit tcp any any\n" in
  let acl = Option.get (Database.acl d "A") in
  Alcotest.(check (list int))
    "seqs" [ 10; 20; 30 ]
    (List.map (fun (r : Acl.rule) -> r.seq) acl.Acl.rules);
  check "the unnumbered rule is seq 30" true
    ((List.nth acl.Acl.rules 2).protocol = Packet.Tcp)

let test_parse_community_lists () =
  let d =
    parse_ok
      {|
ip community-list expanded COM permit _300:3_
ip community-list standard STD permit 100:1 100:2
|}
  in
  (match (Option.get (Database.community_list d "COM")).Community_list.body with
  | Community_list.Expanded [ e ] ->
      check "expanded action" true (e.action = Action.Permit)
  | _ -> Alcotest.fail "COM should be expanded with one entry");
  match (Option.get (Database.community_list d "STD")).Community_list.body with
  | Community_list.Standard [ e ] -> check_int "two comms" 2 (List.length e.communities)
  | _ -> Alcotest.fail "STD should be standard with one entry"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
  in
  List.iter expect_error
    [
      "route-map X permit notanumber";
      "ip prefix-list P permit 10.0.0.0/8 le 99";
      "match local-preference 300";
      "set metric 5";
      "ip access-list extended A\n permit tcp any\n";
      "ip access-list extended A\n permit icmp any eq 3 any\n";
      "ip access-list extended A\n permit udp any any established\n";
      "bogus directive here";
      "ip prefix-list P permit 10.0.0.0/8 ge 4";
    ];
  (* Numbers are decimal, as IOS writes them: OCaml's other integer
     literals (signs, '_', 0x/0o/0b) and overflow are errors located on
     the line that holds them. *)
  List.iter
    (fun (src, want) ->
      match Parser.parse src with
      | Error m -> check_str src want m
      | Ok _ -> Alcotest.failf "expected parse error for %S" src)
    [
      ( "ip prefix-list A seq 0x10 permit 0x1.1_0.+2.-0/8 le 0b11111",
        "line 1: expected seq, found \"0x10\"" );
      ( "!\nip prefix-list A seq 10 permit 0x1.1_0.+2.-0/8 le 0b11111",
        "line 2: expected prefix a.b.c.d/len, found \"0x1.1_0.+2.-0/8\"" );
      ( "!\n!\nip prefix-list A seq 10 permit 1.0.0.0/8 le 0b11111",
        "line 3: expected le bound, found \"0b11111\"" );
      ("route-map M permit -5", "line 1: expected sequence number, found \"-5\"");
      ("route-map M permit 10\n set metric 0o17", "line 2: expected metric, found \"0o17\"");
      ( "ip prefix-list A permit 1.0.0.0/8\naccess-list 101 permit tcp any eq 0x50 any",
        "line 2: expected port, found \"0x50\"" );
      ( "route-map M permit 10\n set metric 5\nroute-map M permit 18446744073709551616",
        "line 3: expected sequence number, found \"18446744073709551616\"" );
      ("ip access-list extended A\n permit tcp any any eq -1", "line 2: port -1 is out of range 0-65535");
    ]

(* Two lists that fail [finalize]'s checks, A on line 2 and a later
   list on line 4: the error on the earliest line wins, whatever the
   order or kind of the lists. *)
let two_failing_lists =
  [
    "route-map A permit 10\nroute-map A permit 10\nroute-map B permit 5\nroute-map B permit 5";
    "route-map A permit 10\nroute-map A permit 10\nip prefix-list P seq 5 permit 10.0.0.0/8\n\
     ip prefix-list P seq 5 deny 11.0.0.0/8";
  ]

(* Errors found only once every line is read (a duplicate sequence
   number, a community list mixing kinds, a bad standard community, a
   malformed regex) are located too, at the offending entry's line
   (the second of a duplicate pair), with the text they had before they
   had a line; and [parse_exn] raises them as [Syntax_error]. *)
let test_parse_list_errors () =
  List.iter
    (fun (src, line, message) ->
      (match Parser.parse src with
      | Error m -> check_str src (Printf.sprintf "line %d: %s" line message) m
      | Ok _ -> Alcotest.failf "expected parse error for %S" src);
      match Parser.parse_exn src with
      | exception Parser.Syntax_error e ->
          check_int "line" line e.line;
          check_str "message" message e.message
      | exception e -> Alcotest.failf "%S raised %s" src (Printexc.to_string e)
      | _ -> Alcotest.failf "expected Syntax_error for %S" src)
    ([
      ( "route-map M permit 10\nroute-map M deny 10",
        2, "Route_map.make: duplicate seq 10 in M" );
      ( "route-map M permit 20\nroute-map M permit 10\n match tag 1\nroute-map M deny 20\nroute-map M deny 10",
        5, "Route_map.make: duplicate seq 10 in M" );
      ( "ip prefix-list P seq 5 permit 10.0.0.0/8\nip prefix-list P seq 5 deny 11.0.0.0/8",
        2, "Prefix_list.make: duplicate seq 5 in P" );
      ( "ip prefix-list P permit 10.0.0.0/8\nip prefix-list P seq 10 permit 11.0.0.0/8",
        2, "Prefix_list.make: duplicate seq 10 in P" );
      ( "ip access-list extended A\n 10 permit ip any any\n 10 deny ip any any",
        3, "Acl.make: duplicate seq 10 in A" );
      ( "ip community-list standard C permit 1:1\nip community-list expanded C permit _1:.*_",
        2, "community-list C mixes standard and expanded entries" );
      ( "ip community-list standard C permit 1:1\nip community-list standard C permit 1:2 foo",
        2, "Community.of_string_exn: \"foo\"" );
      ("ip community-list standard C permit 70000:1", 1, "Community.of_string_exn: \"70000:1\"");
      ( "ip as-path access-list A permit _32$\nip as-path access-list A permit (32",
        2, "as-path regex: expected ')'" );
      ( "ip community-list expanded C permit _1:2_\nip community-list expanded C permit (1:2",
        2, "community regex: expected ')' in \"(1:2\"" );
    ]
    @ List.map (fun src -> (src, 2, "Route_map.make: duplicate seq 10 in A")) two_failing_lists)

(* Numbers the symbolic encodings hold in a fixed width (ports in 16
   bits, local-preference, metric and tag in 32) are checked when
   parsed: the bound is accepted, and one past it or a negative number
   is an error located on its line, not an exception when the rule is
   first compiled. *)
let test_parse_bounded_numbers () =
  let acl rule = "ip access-list extended A\n permit tcp any any " ^ rule in
  let stanza clause = "route-map M permit 10\n " ^ clause in
  let port = ("65535", "65536") and u32 = ("4294967295", "4294967296") in
  let located src =
    match Parser.parse src with
    | Error m ->
        if not (String.starts_with ~prefix:"line 2: " m) then
          Alcotest.failf "error for %S is not located on line 2: %s" src m
    | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  in
  List.iter
    (fun (text, (bound, past)) ->
      (match Parser.parse (text bound) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "bound rejected in %S: %s" (text bound) m);
      located (text past);
      located (text "-1"))
    [
      ((fun n -> acl ("eq " ^ n)), port);
      ((fun n -> acl ("neq " ^ n)), port);
      ((fun n -> acl ("lt " ^ n)), port);
      ((fun n -> acl ("gt " ^ n)), port);
      ((fun n -> acl ("range 0 " ^ n)), port);
      ((fun n -> acl ("range " ^ n ^ " 65535")), port);
      ((fun n -> "ip access-list extended A\n permit udp any eq " ^ n ^ " any"), port);
      ((fun n -> stanza ("match local-preference " ^ n)), u32);
      ((fun n -> stanza ("match metric " ^ n)), u32);
      ((fun n -> stanza ("match tag 7 " ^ n)), u32);
      ((fun n -> stanza ("set local-preference " ^ n)), u32);
      ((fun n -> stanza ("set metric " ^ n)), u32);
      ((fun n -> stanza ("set tag " ^ n)), u32);
    ];
  located (acl "range 100 50")

let test_print_parse_roundtrip () =
  let d = db () in
  let printed = Parser.to_string d in
  let d2 = parse_ok printed in
  let rm = isp_out d and rm2 = isp_out d2 in
  check "same stanzas" true (rm.Route_map.stanzas = rm2.Route_map.stanzas);
  check "same prefix lists" true
    (Database.prefix_list d "D1" = Database.prefix_list d2 "D1")

(* ------------------------------------------------------------------ *)
(* Concrete route-map semantics (the paper's ISP_OUT behaviour)       *)
(* ------------------------------------------------------------------ *)

let eval_isp_out route = Semantics.eval_route_map (db ()) (isp_out (db ())) route

let test_deny_by_as_path () =
  (* Routes originating from ASN 32 hit stanza 10. *)
  let r = Bgp.Route.make ~as_path:[ 100; 32 ] ~local_pref:300 (pfx "50.0.0.0/16") in
  check "denied" true (eval_isp_out r = Semantics.Reject)

let test_deny_by_prefix () =
  let r = Bgp.Route.make ~local_pref:300 (pfx "10.5.0.0/16") in
  check "denied by D1" true (eval_isp_out r = Semantics.Reject);
  (* /25 is outside "10.0.0.0/8 le 24", so stanza 20 does not match. *)
  let r = Bgp.Route.make ~local_pref:300 (pfx "10.5.5.0/25") in
  check "permitted (too long for D1)" true
    (match eval_isp_out r with Semantics.Accept _ -> true | _ -> false)

let test_permit_by_local_pref () =
  let r = Bgp.Route.make ~local_pref:300 (pfx "99.0.0.0/8") in
  (match eval_isp_out r with
  | Semantics.Accept r' -> check "unchanged" true (Bgp.Route.equal r r')
  | Semantics.Reject -> Alcotest.fail "should be permitted");
  let r = Bgp.Route.make ~local_pref:100 (pfx "99.0.0.0/8") in
  check "implicit deny" true (eval_isp_out r = Semantics.Reject)

let test_first_match_order () =
  (* A route matching both stanza 10 (as-path) and stanza 30
     (local-pref) is handled by the earlier stanza. *)
  let r = Bgp.Route.make ~as_path:[ 32 ] ~local_pref:300 (pfx "99.0.0.0/8") in
  check "stanza 10 wins" true (eval_isp_out r = Semantics.Reject);
  let d = db () in
  match Semantics.matching_stanza d (isp_out d) r with
  | Some s -> check_int "seq 10" 10 s.seq
  | None -> Alcotest.fail "expected a match"

(* ------------------------------------------------------------------ *)
(* Set clauses                                                        *)
(* ------------------------------------------------------------------ *)

let paper_snippet =
  {|
ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
|}

let test_paper_snippet_semantics () =
  let d = parse_ok paper_snippet in
  let rm = Option.get (Database.route_map d "SET_METRIC") in
  (* The paper's differential-example route. *)
  let r =
    Bgp.Route.make ~as_path:[ 32 ] ~communities:[ comm "300:3" ]
      (pfx "100.0.0.0/16")
  in
  (match Semantics.eval_route_map d rm r with
  | Semantics.Accept r' ->
      check_int "metric set to 55" 55 r'.Bgp.Route.metric;
      check "others unchanged" true
        (Bgp.Route.equal { r' with Bgp.Route.metric = 0 } r)
  | Semantics.Reject -> Alcotest.fail "should be permitted");
  (* Without the community it must fall to the implicit deny. *)
  let r = Bgp.Route.make (pfx "100.0.0.0/16") in
  check "no community -> deny" true
    (Semantics.eval_route_map d rm r = Semantics.Reject);
  (* Mask length 24 is outside "le 23". *)
  let r =
    Bgp.Route.make ~communities:[ comm "300:3" ] (pfx "100.0.5.0/24")
  in
  check "/24 -> deny" true (Semantics.eval_route_map d rm r = Semantics.Reject)

let test_set_clauses () =
  let d =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map T permit 10
 match ip address prefix-list ALL
 set local-preference 250
 set community 65000:1 65000:2 additive
 set as-path prepend 65000 65000
 set ip next-hop 10.9.9.9
 set tag 777
 set weight 50
 set origin incomplete
|}
  in
  let rm = Option.get (Database.route_map d "T") in
  let r = Bgp.Route.make ~communities:[ comm "1:1" ] (pfx "8.8.8.0/24") in
  match Semantics.eval_route_map d rm r with
  | Semantics.Accept r' ->
      check_int "local-pref" 250 r'.Bgp.Route.local_pref;
      check "communities additive" true
        (Bgp.Route.has_community r' (comm "1:1")
        && Bgp.Route.has_community r' (comm "65000:1")
        && Bgp.Route.has_community r' (comm "65000:2"));
      Alcotest.(check (list int)) "prepend" [ 65000; 65000 ] r'.Bgp.Route.as_path;
      check_str "next hop" "10.9.9.9" (Netaddr.Ipv4.to_string r'.Bgp.Route.next_hop);
      check_int "tag" 777 r'.Bgp.Route.tag;
      check_int "weight" 50 r'.Bgp.Route.weight;
      check "origin" true (r'.Bgp.Route.origin = Bgp.Route.Incomplete)
  | Semantics.Reject -> Alcotest.fail "should be permitted"

let test_set_community_replace () =
  let d =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map T permit 10
 match ip address prefix-list ALL
 set community 65000:9
|}
  in
  let rm = Option.get (Database.route_map d "T") in
  let r = Bgp.Route.make ~communities:[ comm "1:1"; comm "2:2" ] (pfx "8.0.0.0/8") in
  match Semantics.eval_route_map d rm r with
  | Semantics.Accept r' ->
      check "replaced" true (r'.Bgp.Route.communities = [ comm "65000:9" ])
  | Semantics.Reject -> Alcotest.fail "should be permitted"

let test_comm_list_delete () =
  let d =
    parse_ok
      {|
ip community-list expanded SCRUB permit _65000:.*_
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map T permit 10
 match ip address prefix-list ALL
 set comm-list SCRUB delete
|}
  in
  let rm = Option.get (Database.route_map d "T") in
  let r =
    Bgp.Route.make
      ~communities:[ comm "65000:1"; comm "65000:77"; comm "300:3" ]
      (pfx "8.0.0.0/8")
  in
  match Semantics.eval_route_map d rm r with
  | Semantics.Accept r' ->
      check "scrubbed" true (r'.Bgp.Route.communities = [ comm "300:3" ])
  | Semantics.Reject -> Alcotest.fail "should be permitted"

(* ------------------------------------------------------------------ *)
(* ACL semantics                                                      *)
(* ------------------------------------------------------------------ *)

let fw_config =
  {|
ip access-list extended FW
 permit tcp 10.0.0.0/8 any eq 443
 deny udp any 192.168.0.0 0.0.255.255 range 100 200
 permit icmp host 1.2.3.4 any
 deny tcp any any established
 permit tcp any any
|}

let fw () = Option.get (Database.acl (parse_ok fw_config) "FW")

let test_acl_eval () =
  let acl = fw () in
  let p ?(protocol = Packet.Tcp) ?(sport = 1000) ?(dport = 443)
      ?(established = false) src dst =
    Packet.make ~protocol ~src_port:sport ~dst_port:dport ~established
      ~src:(ip src) ~dst:(ip dst) ()
  in
  check "permit 443 from 10/8" true
    (Semantics.eval_acl acl (p "10.1.2.3" "200.0.0.1") = Action.Permit);
  check "udp in range denied" true
    (Semantics.eval_acl acl
       (p ~protocol:Packet.Udp ~dport:150 "10.1.2.3" "192.168.4.5")
    = Action.Deny);
  check "udp out of range falls through to implicit deny" true
    (Semantics.eval_acl acl
       (p ~protocol:Packet.Udp ~dport:99 "10.1.2.3" "192.168.4.5")
    = Action.Deny);
  check "icmp from host" true
    (Semantics.eval_acl acl
       (p ~protocol:Packet.Icmp ~dport:0 "1.2.3.4" "9.9.9.9")
    = Action.Permit);
  check "established denied" true
    (Semantics.eval_acl acl (p ~dport:80 ~established:true "11.0.0.1" "9.9.9.9")
    = Action.Deny);
  check "fresh tcp permitted" true
    (Semantics.eval_acl acl (p ~dport:80 "11.0.0.1" "9.9.9.9") = Action.Permit)

let test_acl_first_match () =
  let acl = fw () in
  (* 10/8 + tcp 443 + established matches rule 10 before rule 40. *)
  let p =
    Packet.make ~protocol:Packet.Tcp ~dst_port:443 ~established:true
      ~src:(ip "10.0.0.1") ~dst:(ip "8.8.8.8") ()
  in
  match Acl.first_match acl p with
  | Some r -> check_int "rule 10" 10 r.Acl.seq
  | None -> Alcotest.fail "expected match"

(* ------------------------------------------------------------------ *)
(* Insertion / renaming helpers                                       *)
(* ------------------------------------------------------------------ *)

let test_route_map_insert_at () =
  let d = db () in
  let rm = isp_out d in
  let s = Route_map.stanza ~seq:99 Action.Permit in
  let rm0 = Route_map.insert_at rm 0 s in
  let seqs rm = List.map (fun (s : Route_map.stanza) -> s.Route_map.seq) rm.Route_map.stanzas in
  Alcotest.(check (list int)) "top insert resequenced" [ 10; 20; 30; 40 ] (seqs rm0);
  check "new first" true
    ((List.hd rm0.Route_map.stanzas).Route_map.matches = []);
  let rm3 = Route_map.insert_at rm 3 s in
  check "new last" true
    ((List.nth rm3.Route_map.stanzas 3).Route_map.matches = []);
  Alcotest.check_raises "out of range" (Invalid_argument "Route_map.insert_at")
    (fun () -> ignore (Route_map.insert_at rm 4 s))

let test_rename_references () =
  let d = parse_ok paper_snippet in
  let rm = Option.get (Database.route_map d "SET_METRIC") in
  let rm' =
    Route_map.rename_references rm
      [ ("COM_LIST", "D2"); ("PREFIX_100", "D3") ]
  in
  let refs = Route_map.referenced_lists rm' in
  check "renamed" true
    (List.mem (`Community_list, "D2") refs
    && List.mem (`Prefix_list, "D3") refs
    && not (List.mem (`Community_list, "COM_LIST") refs))

let test_undefined_references () =
  let d = Database.empty in
  let rm =
    Route_map.make "X"
      [
        Route_map.stanza ~seq:10
          ~matches:[ Route_map.Match_prefix_list [ "NOPE" ] ]
          Action.Permit;
      ]
  in
  check "undefined detected" true
    (Database.undefined_references d rm = [ (`Prefix_list, "NOPE") ])

(* ------------------------------------------------------------------ *)
(* Container helpers                                                  *)
(* ------------------------------------------------------------------ *)

let test_append_and_next_seq () =
  let rm = Route_map.make "M" [ Route_map.stanza ~seq:10 Action.Permit ] in
  check_int "next seq" 20 (Route_map.next_seq rm);
  let rm' = Route_map.append rm (Route_map.stanza Action.Deny) in
  check_int "appended at 20" 20
    (List.nth rm'.Route_map.stanzas 1).Route_map.seq;
  let acl = Acl.make "A" [ Acl.rule ~seq:10 Action.Permit ] in
  let acl' = Acl.append acl (Acl.rule Action.Deny) in
  check_int "acl appended at 20" 20 (List.nth acl'.Acl.rules 1).Acl.seq;
  let pl =
    Prefix_list.make "P"
      [ Prefix_list.entry ~seq:10 ~action:Action.Permit
          (Netaddr.Prefix_range.exact (pfx "10.0.0.0/8")) ]
  in
  let pl' =
    Prefix_list.append pl
      (Prefix_list.entry ~action:Action.Deny
         (Netaddr.Prefix_range.exact (pfx "11.0.0.0/8")))
  in
  check_int "pl appended at 20" 20
    (List.nth pl'.Prefix_list.entries 1).Prefix_list.seq

let test_duplicate_seq_rejected () =
  Alcotest.check_raises "route-map dup seq"
    (Invalid_argument "Route_map.make: duplicate seq 10 in M")
    (fun () ->
      ignore
        (Route_map.make "M"
           [ Route_map.stanza ~seq:10 Action.Permit;
             Route_map.stanza ~seq:10 Action.Deny ]))

let test_database_merge () =
  let a =
    Database.add_route_map Database.empty
      (Route_map.make "SHARED" [ Route_map.stanza ~seq:10 Action.Permit ])
  in
  let b =
    Database.add_route_map
      (Database.add_acl Database.empty (Acl.make "ONLY_B" []))
      (Route_map.make "SHARED" [ Route_map.stanza ~seq:10 Action.Deny ])
  in
  let m = Database.merge a b in
  (* Right bias: b's SHARED wins; both sides' unique entries survive. *)
  check "b shadows a" true
    ((Option.get (Database.route_map m "SHARED")).Route_map.stanzas
    |> List.hd |> fun (s : Route_map.stanza) -> s.action = Action.Deny);
  check "b-only present" true (Database.acl m "ONLY_B" <> None)

let test_parser_more_forms () =
  (* Explicit sequence numbers inside a named ACL; prefix-list entries
     without seq auto-number past the highest; comment lines close
     blocks. *)
  let d =
    parse_ok
      {|
ip access-list extended A
 100 permit tcp any any eq 80
 deny ip any any
!
ip prefix-list P permit 10.0.0.0/8
ip prefix-list P permit 11.0.0.0/8
ip prefix-list P seq 100 permit 12.0.0.0/8
ip prefix-list P permit 13.0.0.0/8
|}
  in
  let acl = Option.get (Database.acl d "A") in
  Alcotest.(check (list int)) "explicit then auto" [ 100; 110 ]
    (List.map (fun (r : Acl.rule) -> r.seq) acl.Acl.rules);
  let pl = Option.get (Database.prefix_list d "P") in
  Alcotest.(check (list int)) "auto skips past explicit" [ 10; 20; 100; 110 ]
    (List.map (fun (e : Prefix_list.entry) -> e.seq) pl.Prefix_list.entries)

(* Clauses keep their source order, and a repeated stanza header is
   still a duplicate sequence number, whichever stanza the clauses
   after it attach to. *)
let test_parser_clause_order () =
  let d =
    parse_ok
      {|
route-map M permit 10
 match ip address prefix-list A
 set metric 5
 match tag 7
 set local-preference 200
 set tag 9
route-map M deny 20
 match metric 3
|}
  in
  let rm = Option.get (Database.route_map d "M") in
  let s = List.hd rm.Route_map.stanzas in
  check "matches in order" true
    (s.Route_map.matches
    = [ Route_map.Match_prefix_list [ "A" ]; Route_map.Match_tag [ 7 ] ]);
  check "sets in order" true
    (s.Route_map.sets
    = [ Route_map.Set_metric 5; Route_map.Set_local_pref 200; Route_map.Set_tag 9 ]);
  match Parser.parse "route-map M permit 10\n match tag 1\nroute-map M permit 10\n set tag 2\n" with
  | Ok _ -> Alcotest.fail "a repeated stanza header parsed"
  | Error m ->
      Alcotest.(check string) "duplicate header"
        "line 3: Route_map.make: duplicate seq 10 in M" m

(* Parsing is linear in the config: twice the stanzas allocate at most
   2.5 times the words (Gc.minor_words is deterministic). *)
let test_parser_linear () =
  let config n =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf
             "ip prefix-list L permit 10.%d.%d.0/24\nroute-map M permit %d\n match ip address prefix-list L\n match tag %d\n set metric %d\n"
             (i / 256) (i mod 256) ((i + 1) * 10) i i))
  in
  let words n =
    let text = config n in
    let before = Gc.minor_words () in
    ignore (Parser.parse_exn text);
    Gc.minor_words () -. before
  in
  let n = 256 in
  let ratio = words (2 * n) /. words n in
  if ratio > 2.5 then
    Alcotest.failf "parsing %d stanzas allocates %.2fx what %d do" (2 * n) ratio n

let test_parser_tabs_and_blanks () =
  let d = parse_ok "
ip prefix-list	T permit 10.0.0.0/8


" in
  check "tab separated" true (Database.prefix_list d "T" <> None)

(* ------------------------------------------------------------------ *)
(* Transform canonicalization                                         *)
(* ------------------------------------------------------------------ *)

let test_transform_override () =
  let d = Database.empty in
  let t =
    Transform.of_sets d [ Route_map.Set_metric 5; Route_map.Set_metric 7 ]
  in
  check "later metric wins" true (t.Transform.metric = Some 7)

let test_transform_community_pipeline () =
  let d = Database.empty in
  (* replace then additive collapses to a constant *)
  let t =
    Transform.of_sets d
      [
        Route_map.Set_community { communities = [ comm "1:1" ]; additive = false };
        Route_map.Set_community { communities = [ comm "2:2" ]; additive = true };
      ]
  in
  (match t.Transform.communities with
  | Transform.Comm_const cs ->
      check "both" true (cs = [ comm "1:1"; comm "2:2" ])
  | _ -> Alcotest.fail "expected constant pipeline");
  (* pure additive stays an update *)
  let t =
    Transform.of_sets d
      [ Route_map.Set_community { communities = [ comm "2:2" ]; additive = true } ]
  in
  match t.Transform.communities with
  | Transform.Comm_update { delete = []; add } -> check "add" true (add = [ comm "2:2" ])
  | _ -> Alcotest.fail "expected update pipeline"

let test_transform_equal () =
  let d = Database.empty in
  let t1 = Transform.of_sets d [ Route_map.Set_metric 55 ] in
  let t2 = Transform.of_sets d [ Route_map.Set_metric 55; Route_map.Set_metric 55 ] in
  let t3 = Transform.of_sets d [ Route_map.Set_metric 56 ] in
  check "equal" true (Transform.equal ~db1:d ~db2:d t1 t2);
  check "not equal" false (Transform.equal ~db1:d ~db2:d t1 t3)

(* ------------------------------------------------------------------ *)
(* Round-trip property over generated configurations                  *)
(* ------------------------------------------------------------------ *)

let gen_action = QCheck.Gen.oneofl [ Action.Permit; Action.Deny ]

let gen_acl_rule =
  QCheck.Gen.(
    let gen_addr =
      oneof
        [
          return Acl.Any;
          map (fun n -> Acl.Host (Netaddr.Ipv4.of_int n)) (int_range 0 0xffffffff);
          map2
            (fun n len -> Acl.addr_of_prefix (Netaddr.Prefix.make (Netaddr.Ipv4.of_int n) len))
            (int_range 0 0xffffffff) (int_range 1 31);
        ]
    in
    let gen_port =
      oneof
        [
          return Acl.Any_port;
          map (fun p -> Acl.Eq p) (int_range 0 65535);
          map (fun p -> Acl.Gt p) (int_range 0 65534);
          map (fun p -> Acl.Lt p) (int_range 1 65535);
          map2 (fun a b -> Acl.Range (min a b, max a b)) (int_range 0 65535) (int_range 0 65535);
        ]
    in
    gen_action >>= fun action ->
    oneofl [ Packet.Ip; Packet.Tcp; Packet.Udp; Packet.Icmp ] >>= fun protocol ->
    gen_addr >>= fun src ->
    gen_addr >>= fun dst ->
    (if Packet.has_ports protocol then pair gen_port gen_port
     else return (Acl.Any_port, Acl.Any_port))
    >>= fun (src_port, dst_port) ->
    (if protocol = Packet.Tcp then bool else return false) >>= fun established ->
    return (Acl.rule ~protocol ~src ~src_port ~dst ~dst_port ~established action))

let gen_acl =
  QCheck.Gen.(
    map
      (fun rules ->
        Acl.make "GEN" (List.mapi (fun i (r : Acl.rule) -> { r with seq = (i + 1) * 10 }) rules))
      (list_size (int_range 1 8) gen_acl_rule))

let arb_acl =
  QCheck.make ~print:(fun a -> Format.asprintf "%a" Acl.pp a) gen_acl

let prop_acl_roundtrip =
  QCheck.Test.make ~name:"ACL print/parse roundtrip" ~count:200 arb_acl
    (fun acl ->
      let d = Database.add_acl Database.empty acl in
      match Parser.parse (Parser.to_string d) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok d2 -> (
          match Database.acl d2 "GEN" with
          | Some acl2 -> acl2.Acl.rules = acl.Acl.rules
          | None -> false))

let gen_route_map_with_lists =
  QCheck.Gen.(
    let gen_range =
      int_range 0 0xffffffff >>= fun n ->
      int_range 0 24 >>= fun len ->
      let p = Netaddr.Prefix.make (Netaddr.Ipv4.of_int n) len in
      int_range len 32 >>= fun lo ->
      int_range lo 32 >>= fun hi ->
      return (Netaddr.Prefix_range.make p ~ge:(Some lo) ~le:(Some hi))
    in
    list_size (int_range 1 3) (pair gen_action gen_range) >>= fun pl_entries ->
    list_size (int_range 1 3)
      (pair gen_action (oneofl [ "_32$"; "^44_"; "_100_"; ".*" ]))
    >>= fun apl_entries ->
    list_size (int_range 1 3)
      (pair gen_action (oneofl [ "_300:3_"; "^65000:"; "_12:34_" ]))
    >>= fun cl_entries ->
    let pl =
      Prefix_list.make "PL"
        (List.mapi
           (fun i (action, range) ->
             Prefix_list.entry ~seq:((i + 1) * 10) ~action range)
           pl_entries)
    in
    let apl = As_path_list.make "APL" apl_entries in
    let cl = Community_list.expanded "CL" cl_entries in
    list_size (int_range 1 4)
      (triple gen_action
         (oneofl
            [
              [ Route_map.Match_prefix_list [ "PL" ] ];
              [ Route_map.Match_as_path [ "APL" ] ];
              [ Route_map.Match_community [ "CL" ] ];
              [ Route_map.Match_local_pref 300 ];
              [ Route_map.Match_metric 20 ];
              [ Route_map.Match_tag [ 5; 6 ] ];
              [
                Route_map.Match_prefix_list [ "PL" ];
                Route_map.Match_community [ "CL" ];
              ];
            ])
         (oneofl
            [
              [];
              [ Route_map.Set_metric 55 ];
              [ Route_map.Set_local_pref 200; Route_map.Set_tag 9 ];
              [
                Route_map.Set_community
                  { communities = [ comm "65000:1" ]; additive = true };
              ];
              [ Route_map.Set_as_path_prepend [ 65000 ] ];
            ]))
    >>= fun stanzas ->
    let rm =
      Route_map.make "GEN"
        (List.mapi
           (fun i (action, matches, sets) ->
             Route_map.stanza ~seq:((i + 1) * 10) ~matches ~sets action)
           stanzas)
    in
    let d =
      Database.add_route_map
        (Database.add_community_list
           (Database.add_as_path_list
              (Database.add_prefix_list Database.empty pl)
              apl)
           cl)
        rm
    in
    return d)

let arb_db =
  QCheck.make ~print:Parser.to_string gen_route_map_with_lists

let prop_route_map_roundtrip =
  QCheck.Test.make ~name:"route-map print/parse roundtrip" ~count:200 arb_db
    (fun d ->
      match Parser.parse (Parser.to_string d) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok d2 ->
          Database.route_map d2 "GEN" = Database.route_map d "GEN"
          && Database.prefix_list d2 "PL" = Database.prefix_list d "PL"
          && Database.as_path_list d2 "APL" = Database.as_path_list d "APL"
          && Database.community_list d2 "CL" = Database.community_list d "CL")

let gen_route =
  QCheck.Gen.(
    int_range 0 0xffffffff >>= fun ipn ->
    int_range 0 32 >>= fun len ->
    list_size (int_range 0 3) (oneofl [ 32; 44; 100; 65000 ]) >>= fun as_path ->
    list_size (int_range 0 2)
      (oneofl
         [ comm "300:3"; comm "65000:1"; comm "12:34"; comm "9:9" ])
    >>= fun communities ->
    oneofl [ 100; 300 ] >>= fun local_pref ->
    oneofl [ 0; 20; 55 ] >>= fun metric ->
    oneofl [ 0; 5; 6; 9 ] >>= fun tag ->
    return
      (Bgp.Route.make ~as_path ~communities ~local_pref ~metric ~tag
         (Netaddr.Prefix.make (Netaddr.Ipv4.of_int ipn) len)))

let arb_db_route =
  QCheck.make
    ~print:(fun (d, r) ->
      Parser.to_string d ^ "\n--\n" ^ Format.asprintf "%a" Bgp.Route.pp r)
    QCheck.Gen.(pair gen_route_map_with_lists gen_route)

let prop_roundtrip_preserves_semantics =
  QCheck.Test.make ~name:"print/parse preserves route-map behaviour" ~count:300
    arb_db_route
    (fun (d, r) ->
      match Parser.parse (Parser.to_string d) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok d2 ->
          let rm = Option.get (Database.route_map d "GEN") in
          let rm2 = Option.get (Database.route_map d2 "GEN") in
          Semantics.route_result_equal
            (Semantics.eval_route_map d rm r)
            (Semantics.eval_route_map d2 rm2 r))

(* ------------------------------------------------------------------ *)
(* The scanner and the Buffer printer against the old ones            *)
(* ------------------------------------------------------------------ *)

module Ref = Config_reference

(* "line N: text" as (N, text). *)
let split_located m =
  match String.index_opt m ':' with
  | Some i when String.starts_with ~prefix:"line " m && i + 1 < String.length m
                && m.[i + 1] = ' ' ->
      Option.map
        (fun n -> (n, String.sub m (i + 2) (String.length m - i - 2)))
        (int_of_string_opt (String.sub m 5 (i - 5)))
  | _ -> None

(* A token, or a part of one between '.', '/' and ':', that
   [int_of_string] reads and that is not plain decimal digits: a number
   the old readers took and IOS does not write. *)
let has_non_decimal line =
  let is_digit c = c >= '0' && c <= '9' in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (fun t ->
         t
         :: List.concat_map (String.split_on_char ':')
              (List.concat_map (String.split_on_char '/') (String.split_on_char '.' t)))
  |> List.exists (fun t -> int_of_string_opt t <> None && not (String.for_all is_digit t))

(* [Parser.parse] returns the reference's database, which both printers
   print byte for byte, or the reference's error text. It may differ in
   two ways only, each a located error: on a line holding a number the
   old readers took and IOS does not write, no later than any line the
   reference located; or where the old [finalize] gave no line. There
   the text is the reference's, or, when several lists fail, that of
   the list whose error is on the earliest line: the error the
   reference gives on the config's lines up to that one. *)
let agrees_with_reference text =
  let fail fmt = QCheck.Test.fail_reportf "%s@.reference: %s@.scanner:   %s@.input:@.%s" fmt in
  let show = function Ok _ -> "Ok" | Error m -> "Error " ^ m in
  let reference = Ref.parse text and got = Parser.parse text in
  let differ why = fail why (show reference) (show got) text in
  match (reference, got) with
  | Ok a, Ok b ->
      if a <> b then differ "databases differ"
      else if Parser.to_string b <> Ref.to_string b then differ "printed texts differ"
      else true
  | Error m, Error m' when m = m' -> true
  | Error _, Ok _ -> differ "the scanner accepts what the reference rejects"
  | _, Error m' -> (
      match split_located m' with
      | None -> differ "unlocated error"
      | Some (line, text') ->
          let non_decimal =
            match List.nth_opt (String.split_on_char '\n' text) (line - 1) with
            | Some l -> has_non_decimal l
            | None -> false
          in
          let no_later =
            match reference with
            | Error m -> (
                match split_located m with Some (r, _) -> line <= r | None -> true)
            | Ok _ -> true
          in
          let through line =
            String.split_on_char '\n' text
            |> List.filteri (fun i _ -> i < line)
            |> String.concat "\n"
          in
          let unlocated_text =
            match reference with
            | Error m ->
                split_located m = None
                && (m = text' || Ref.parse (through line) = Error text')
            | Ok _ -> false
          in
          if (non_decimal && no_later) || unlocated_text then true
          else differ "errors differ")

let prints_like_reference db =
  let got = Parser.to_string db and want = Ref.to_string db in
  got = want
  || QCheck.Test.fail_reportf "printed texts differ:@.%s@.reference:@.%s" got want

let prop_reference_mutated =
  QCheck.Test.make ~name:"mutated configs parse as the reference" ~count:20_000
    (QCheck.make ~print:Fun.id Config_mutations.gen)
    agrees_with_reference

(* Every round-trip generator's databases: printed alike, and their
   text parsed alike. *)
let prop_reference_generated =
  let of_rng f = QCheck.Gen.(map (fun seed -> f (Random.State.make [| seed |])) (int_bound 1_000_000)) in
  let acl_db acl = Database.add_acl Database.empty acl in
  let gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map acl_db gen_acl;
        gen_route_map_with_lists;
        of_rng (fun rng ->
            acl_db
              (Workload.Random_corpus.acl ~rng ~name:"RT_ACL"
                 ~rules:(1 + Random.State.int rng 15)
                 ~overlap_density:(Random.State.float rng 1.)));
        of_rng (fun rng ->
            acl_db
              (Workload.Acl_gen.make ~rng ~name:"RT_GEN" ~plain:(Random.State.int rng 7)
                 ~crossing:(Random.State.int rng 5) ~trailing_deny_any:(Random.State.bool rng)));
        of_rng (fun rng ->
            fst
              (Workload.Random_corpus.route_map ~rng ~db:Database.empty ~name:"RT_MAP"
                 ~stanzas:(1 + Random.State.int rng 10)
                 ~overlap_density:(Random.State.float rng 1.)));
      ]
  in
  QCheck.Test.make ~name:"generated configs print and parse as the reference"
    ~count:1_000
    (QCheck.make ~print:Ref.to_string gen)
    (fun db -> prints_like_reference db && agrees_with_reference (Ref.to_string db))

(* The configs the examples ship, the configs and completions their
   recorded sessions hold, this file's own, and one whose lines
   interleave lists, maps and ACL blocks. *)
let test_reference_examples () =
  let recorded path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match Json.parse line with
           | Ok event ->
               Option.bind (Json.member "data" event) (fun data ->
                   List.find_map
                     (fun field -> Option.bind (Json.member field data) Json.to_str)
                     [ "config"; "text" ])
           | Error _ -> None)
  in
  (* Lists, maps and ACL blocks whose lines are interleaved: a name is
     met again after others. *)
  let interleaved =
    {|ip prefix-list B permit 10.0.0.0/8
ip prefix-list A permit 11.0.0.0/8 le 24
ip prefix-list B permit 12.0.0.0/8
route-map M permit 10
 match ip address prefix-list A
route-map N deny 10
route-map M deny 20
 match ip address prefix-list B
ip access-list extended E
 permit tcp any any eq 22
access-list 101 deny ip any any
ip access-list extended E
 deny ip any any
|}
  in
  let texts =
    [
      interleaved;
      Config_mutations.read_file "../examples/lab_edge.txt";
      Config_mutations.read_file "../examples/batch_demo.conf";
      Evaluation.E1_running_example.isp_out_config;
      isp_out_config;
    ]
    @ recorded "../examples/acl_session.jsonl"
    @ recorded "../examples/batch_session.jsonl"
  in
  check "recorded texts found" true (List.length texts > 8);
  List.iter
    (fun text ->
      check "parses as the reference" true (agrees_with_reference text);
      match Parser.parse text with
      | Ok db -> check "prints as the reference" true (prints_like_reference db)
      | Error m -> Alcotest.failf "example does not parse: %s" m)
    texts

(* The reference reports the later list's error with no line; the
   scanner reports A's, the error the reference gives on lines 1-2. *)
let test_reference_earliest_error () =
  List.iter
    (fun text ->
      (match (Ref.parse text, Parser.parse text) with
      | Error m, Error m' -> check "texts differ" false (String.ends_with ~suffix:m m')
      | _ -> Alcotest.failf "expected both to reject %S" text);
      check "parses as the reference" true (agrees_with_reference text))
    two_failing_lists

(* A 512-stanza map and its 512 prefix lists, the wide shape the bench
   times, with deny stanzas, ge/le ranges and every set clause form. *)
let test_reference_wide () =
  let n = 512 in
  let db = ref Database.empty in
  let stanzas =
    List.init n (fun i ->
        let name = Printf.sprintf "W%d" i in
        let p = Netaddr.Prefix.make (Netaddr.Ipv4.of_int (0x0A00_0000 lor (i lsl 12))) 20 in
        db :=
          Database.add_prefix_list !db
            (Prefix_list.make name
               [
                 Prefix_list.entry ~seq:10 ~action:Action.Permit
                   (Netaddr.Prefix_range.make p ~ge:(Some (20 + (i mod 5))) ~le:(Some 28));
                 Prefix_list.entry ~seq:20 ~action:Action.Deny (Netaddr.Prefix_range.exact p);
               ]);
        let sets =
          match i mod 4 with
          | 0 -> [ Route_map.Set_metric i ]
          | 1 -> [ Route_map.Set_local_pref (100 + i); Route_map.Set_tag i ]
          | 2 -> [ Route_map.Set_community { communities = [ comm "65000:1" ]; additive = i mod 8 = 2 } ]
          | _ -> [ Route_map.Set_as_path_prepend [ 65000; i ]; Route_map.Set_next_hop (ip "192.0.2.1") ]
        in
        Route_map.stanza ~seq:((i + 1) * 10)
          ~matches:[ Route_map.Match_prefix_list [ name ] ]
          ~sets
          (if i mod 5 = 0 then Action.Deny else Action.Permit))
  in
  let db = Database.add_route_map !db (Route_map.make "WIDE" stanzas) in
  let text = Ref.to_string db in
  check "prints as the reference" true (prints_like_reference db);
  check "parses as the reference" true (agrees_with_reference text);
  let parsed = parse_ok text in
  check "round-trips" true
    (Database.Smap.bindings parsed.prefix_lists = Database.Smap.bindings db.prefix_lists
    && Database.Smap.bindings parsed.route_maps = Database.Smap.bindings db.route_maps)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "config"
    [
      ( "parser",
        [
          Alcotest.test_case "ISP_OUT structure" `Quick test_parse_structure;
          Alcotest.test_case "named ACL" `Quick test_parse_acl;
          Alcotest.test_case "numbered ACL" `Quick test_parse_numbered_acl;
          Alcotest.test_case "ACL auto seq" `Quick test_parse_acl_auto_seq_past_highest;
          Alcotest.test_case "community lists" `Quick test_parse_community_lists;
          Alcotest.test_case "rejects malformed input" `Quick test_parse_errors;
          Alcotest.test_case "bounded numbers" `Quick test_parse_bounded_numbers;
          Alcotest.test_case "list errors are located" `Quick test_parse_list_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
          q prop_acl_roundtrip;
          q prop_route_map_roundtrip;
          q prop_roundtrip_preserves_semantics;
        ] );
      ( "route-map semantics",
        [
          Alcotest.test_case "deny by as-path" `Quick test_deny_by_as_path;
          Alcotest.test_case "deny by prefix-list" `Quick test_deny_by_prefix;
          Alcotest.test_case "permit by local-pref" `Quick test_permit_by_local_pref;
          Alcotest.test_case "first-match order" `Quick test_first_match_order;
          Alcotest.test_case "paper snippet" `Quick test_paper_snippet_semantics;
          Alcotest.test_case "set clauses" `Quick test_set_clauses;
          Alcotest.test_case "set community replace" `Quick test_set_community_replace;
          Alcotest.test_case "comm-list delete" `Quick test_comm_list_delete;
        ] );
      ( "acl semantics",
        [
          Alcotest.test_case "eval" `Quick test_acl_eval;
          Alcotest.test_case "first match" `Quick test_acl_first_match;
        ] );
      ( "editing",
        [
          Alcotest.test_case "insert_at" `Quick test_route_map_insert_at;
          Alcotest.test_case "rename references" `Quick test_rename_references;
          Alcotest.test_case "undefined references" `Quick test_undefined_references;
        ] );
      ( "containers",
        [
          Alcotest.test_case "append/next_seq" `Quick test_append_and_next_seq;
          Alcotest.test_case "duplicate seq rejected" `Quick
            test_duplicate_seq_rejected;
          Alcotest.test_case "database merge" `Quick test_database_merge;
          Alcotest.test_case "parser extra forms" `Quick test_parser_more_forms;
          Alcotest.test_case "tabs and blanks" `Quick test_parser_tabs_and_blanks;
          Alcotest.test_case "clause order" `Quick test_parser_clause_order;
          Alcotest.test_case "linear parse" `Quick test_parser_linear;
        ] );
      ( "transform",
        [
          Alcotest.test_case "override" `Quick test_transform_override;
          Alcotest.test_case "community pipeline" `Quick test_transform_community_pipeline;
          Alcotest.test_case "equality" `Quick test_transform_equal;
        ] );
      ( "reference",
        [
          Alcotest.test_case "example configs" `Quick test_reference_examples;
          Alcotest.test_case "512-stanza map" `Quick test_reference_wide;
          Alcotest.test_case "earliest list error" `Quick test_reference_earliest_error;
          q prop_reference_generated;
          q prop_reference_mutated;
        ] );
    ]
