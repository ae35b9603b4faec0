let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let pfx = Netaddr.Prefix.of_string_exn
let comm = Bgp.Community.of_string_exn

(* ------------------------------------------------------------------ *)
(* Community                                                          *)
(* ------------------------------------------------------------------ *)

let test_community_parse () =
  check "roundtrip" true
    (Bgp.Community.to_string (comm "300:3") = "300:3");
  check "max halves" true (Bgp.Community.of_string "65535:65535" <> None);
  List.iter
    (fun s -> check ("reject " ^ s) true (Bgp.Community.of_string s = None))
    [ ""; "300"; "300:"; ":3"; "a:b"; "65536:1"; "1:65536"; "-1:2"; "1:2:3";
      "0x1:1"; "1:+2"; "-0:5"; "1_0:1" ]

let test_community_well_known () =
  check_str "no-export" "65535:65281"
    (Bgp.Community.to_string Bgp.Community.no_export);
  check_str "no-advertise" "65535:65282"
    (Bgp.Community.to_string Bgp.Community.no_advertise)

let test_community_order () =
  check "ordering" true (Bgp.Community.compare (comm "1:9") (comm "2:0") < 0);
  check "value tiebreak" true
    (Bgp.Community.compare (comm "1:1") (comm "1:2") < 0);
  check "equal" true (Bgp.Community.equal (comm "1:1") (comm "1:1"))

let prop_community_roundtrip =
  QCheck.Test.make ~name:"community string roundtrip" ~count:300
    QCheck.(pair (int_range 0 65535) (int_range 0 65535))
    (fun (a, b) ->
      let c = Bgp.Community.make a b in
      Bgp.Community.of_string (Bgp.Community.to_string c) = Some c)

(* ------------------------------------------------------------------ *)
(* Route                                                              *)
(* ------------------------------------------------------------------ *)

let test_route_defaults () =
  let r = Bgp.Route.make (pfx "10.0.0.0/8") in
  check_int "local pref" 100 r.Bgp.Route.local_pref;
  check_int "metric" 0 r.Bgp.Route.metric;
  check_int "weight" 0 r.Bgp.Route.weight;
  check "empty path" true (r.Bgp.Route.as_path = []);
  check "no communities" true (r.Bgp.Route.communities = []);
  check_str "next hop" "0.0.0.1" (Netaddr.Ipv4.to_string r.Bgp.Route.next_hop);
  check "origin igp" true (r.Bgp.Route.origin = Bgp.Route.Igp)

let test_route_community_set_semantics () =
  let r =
    Bgp.Route.make ~communities:[ comm "2:2"; comm "1:1"; comm "2:2" ]
      (pfx "10.0.0.0/8")
  in
  (* Normalized: sorted, deduplicated. *)
  check "sorted dedup" true (r.Bgp.Route.communities = [ comm "1:1"; comm "2:2" ]);
  let r2 = Bgp.Route.add_communities r [ comm "0:9"; comm "1:1" ] in
  check "additive" true
    (r2.Bgp.Route.communities = [ comm "0:9"; comm "1:1"; comm "2:2" ]);
  let r3 = Bgp.Route.delete_communities r2 (fun c -> Bgp.Community.to_pair c = (1, 1)) in
  check "delete" true (r3.Bgp.Route.communities = [ comm "0:9"; comm "2:2" ]);
  check "has" true (Bgp.Route.has_community r2 (comm "0:9"));
  check "has not" false (Bgp.Route.has_community r3 (comm "1:1"))

let test_route_prepend () =
  let r = Bgp.Route.make ~as_path:[ 100 ] (pfx "10.0.0.0/8") in
  let r' = Bgp.Route.prepend_as_path r [ 65000; 65000 ] in
  Alcotest.(check (list int)) "prepended" [ 65000; 65000; 100 ] r'.Bgp.Route.as_path

let test_route_pp_paper_style () =
  (* The differential examples in the paper render these fields. *)
  let r =
    Bgp.Route.make ~as_path:[ 32 ] ~communities:[ comm "300:3" ]
      (pfx "100.0.0.0/16")
  in
  let s = Format.asprintf "%a" Bgp.Route.pp r in
  List.iter
    (fun needle ->
      check ("contains " ^ needle) true
        (let rec find i =
           i + String.length needle <= String.length s
           && (String.sub s i (String.length needle) = needle || find (i + 1))
         in
         find 0))
    [
      "Network: 100.0.0.0/16"; "AS Path: [32]"; "Communities: [\"300:3\"]";
      "Local Preference: 100"; "Metric: 0"; "Next Hop IP: 0.0.0.1";
      "Tag: 0"; "Weight: 0";
    ]

let prop_route_community_ops_normalized =
  QCheck.Test.make ~name:"community operations keep the set normalized"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 5) (pair (int_range 0 10) (int_range 0 10)))
           (list_size (int_range 0 5) (pair (int_range 0 10) (int_range 0 10)))))
    (fun (cs1, cs2) ->
      let mk = List.map (fun (a, b) -> Bgp.Community.make a b) in
      let r = Bgp.Route.make ~communities:(mk cs1) (pfx "10.0.0.0/8") in
      let r' = Bgp.Route.add_communities r (mk cs2) in
      let sorted l = List.sort_uniq Bgp.Community.compare l = l in
      sorted r.Bgp.Route.communities && sorted r'.Bgp.Route.communities)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "bgp"
    [
      ( "community",
        [
          Alcotest.test_case "parse" `Quick test_community_parse;
          Alcotest.test_case "well-known" `Quick test_community_well_known;
          Alcotest.test_case "ordering" `Quick test_community_order;
          q prop_community_roundtrip;
        ] );
      ( "route",
        [
          Alcotest.test_case "defaults" `Quick test_route_defaults;
          Alcotest.test_case "community set semantics" `Quick
            test_route_community_set_semantics;
          Alcotest.test_case "prepend" `Quick test_route_prepend;
          Alcotest.test_case "paper-style rendering" `Quick
            test_route_pp_paper_style;
          q prop_route_community_ops_normalized;
        ] );
    ]
