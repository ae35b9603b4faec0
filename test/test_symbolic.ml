open Config
module Ps = Symbolic.Packet_space
module Ctx = Symbolic.Route_ctx
open Symbdd

let check = Alcotest.(check bool)
let pfx = Netaddr.Prefix.of_string_exn
let comm = Bgp.Community.of_string_exn

let parse_ok src =
  match Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

(* ------------------------------------------------------------------ *)
(* Packet space                                                       *)
(* ------------------------------------------------------------------ *)

let env_of_packet (p : Packet.t) v =
  let field bv value =
    let vars = Symbdd.Bvec.vars bv in
    let rec idx i = function
      | [] -> None
      | x :: rest -> if x = v then Some i else idx (i + 1) rest
    in
    Option.map
      (fun i -> value land (1 lsl (List.length vars - 1 - i)) <> 0)
      (idx 0 vars)
  in
  match
    List.find_map Fun.id
      [
        field Ps.src (Netaddr.Ipv4.to_int p.src);
        field Ps.dst (Netaddr.Ipv4.to_int p.dst);
        field Ps.protocol (Packet.protocol_number p.protocol);
        field Ps.src_port p.src_port;
        field Ps.dst_port p.dst_port;
      ]
  with
  | Some b -> b
  | None -> if v = Ps.established_var then p.established else false

(* Reuse the generators from the config tests by redefining small ones. *)
let gen_action = QCheck.Gen.oneofl [ Action.Permit; Action.Deny ]

let gen_acl_rule =
  QCheck.Gen.(
    let gen_addr =
      oneof
        [
          return Acl.Any;
          map (fun n -> Acl.Host (Netaddr.Ipv4.of_int n)) (int_range 0 0xffffffff);
          map2
            (fun n len ->
              Acl.addr_of_prefix (Netaddr.Prefix.make (Netaddr.Ipv4.of_int n) len))
            (int_range 0 0xffffffff) (int_range 1 31);
          (* Discontiguous wildcard masks too. *)
          map2
            (fun n w -> Acl.Wildcard (Netaddr.Ipv4.of_int n, Netaddr.Ipv4.of_int w))
            (int_range 0 0xffffffff) (int_range 0 0xffffffff);
        ]
    in
    let gen_port =
      oneof
        [
          return Acl.Any_port;
          map (fun p -> Acl.Eq p) (int_range 0 65535);
          map (fun p -> Acl.Neq p) (int_range 0 65535);
          map (fun p -> Acl.Gt p) (int_range 0 65535);
          map (fun p -> Acl.Lt p) (int_range 0 65535);
          map2 (fun a b -> Acl.Range (min a b, max a b)) (int_range 0 65535)
            (int_range 0 65535);
        ]
    in
    gen_action >>= fun action ->
    oneofl [ Packet.Ip; Packet.Tcp; Packet.Udp; Packet.Icmp ] >>= fun protocol ->
    gen_addr >>= fun src ->
    gen_addr >>= fun dst ->
    (if Packet.has_ports protocol then pair gen_port gen_port
     else return (Acl.Any_port, Acl.Any_port))
    >>= fun (src_port, dst_port) ->
    (if protocol = Packet.Tcp then bool else return false)
    >>= fun established ->
    return (Acl.rule ~protocol ~src ~src_port ~dst ~dst_port ~established action))

let gen_acl =
  QCheck.Gen.(
    map (fun rules -> Acl.resequence (Acl.make "GEN" rules))
      (list_size (int_range 1 8) gen_acl_rule))

let gen_packet =
  QCheck.Gen.(
    int_range 0 0xffffffff >>= fun src ->
    int_range 0 0xffffffff >>= fun dst ->
    oneofl [ Packet.Tcp; Packet.Udp; Packet.Icmp; Packet.Proto 89 ]
    >>= fun protocol ->
    int_range 0 65535 >>= fun src_port ->
    (* Bias toward interesting ports. *)
    oneof [ int_range 0 65535; oneofl [ 80; 443; 22; 100; 200 ] ]
    >>= fun dst_port ->
    bool >>= fun established ->
    return
      (Packet.make ~protocol ~src_port ~dst_port
         ~established:(established && protocol = Packet.Tcp)
         ~src:(Netaddr.Ipv4.of_int src) ~dst:(Netaddr.Ipv4.of_int dst) ()))

let arb_acl_packet =
  QCheck.make
    ~print:(fun (a, p) ->
      Format.asprintf "%a@ %a" Acl.pp a Packet.pp p)
    QCheck.Gen.(pair gen_acl gen_packet)

let prop_rule_bdd_matches =
  QCheck.Test.make ~name:"rule BDD agrees with concrete rule match" ~count:1000
    arb_acl_packet
    (fun (acl, p) ->
      List.for_all
        (fun r -> Bdd.eval (env_of_packet p) (Ps.of_rule r) = Acl.match_rule r p)
        acl.Acl.rules)

let prop_exec_partition =
  QCheck.Test.make ~name:"exec cells partition the packet space" ~count:200
    (QCheck.make ~print:(Format.asprintf "%a" Acl.pp) gen_acl)
    (fun acl ->
      let cells = Ps.exec acl in
      (* Pairwise disjoint and jointly exhaustive. *)
      let rec pairwise = function
        | [] -> true
        | (c : Ps.cell) :: rest ->
            List.for_all
              (fun (c' : Ps.cell) -> Bdd.is_zero (Bdd.conj c.guard c'.guard))
              rest
            && pairwise rest
      in
      pairwise cells
      && Bdd.is_one (Bdd.disj_list (List.map (fun (c : Ps.cell) -> c.guard) cells)))

let prop_exec_agrees_with_eval =
  QCheck.Test.make ~name:"symbolic ACL cell = concrete first match" ~count:1000
    arb_acl_packet
    (fun (acl, p) ->
      let cells = Ps.exec acl in
      let cell =
        List.find (fun (c : Ps.cell) -> Bdd.eval (env_of_packet p) c.guard) cells
      in
      let concrete = Acl.first_match acl p in
      match (cell.rule_seq, concrete) with
      | None, None -> cell.action = Action.Deny
      | Some seq, Some r -> seq = r.Acl.seq && cell.action = r.Acl.action
      | _ -> false)

let prop_to_packet_sound =
  QCheck.Test.make ~name:"extracted packets satisfy their region" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Acl.pp) gen_acl)
    (fun acl ->
      List.for_all
        (fun (c : Ps.cell) ->
          match Ps.to_packet c.guard with
          | None -> Bdd.is_zero c.guard
          | Some p -> Bdd.eval (env_of_packet p) c.guard)
        (Ps.exec acl))

let prop_permitted_agrees =
  QCheck.Test.make ~name:"permitted space = concrete permit" ~count:500
    arb_acl_packet
    (fun (acl, p) ->
      Bdd.eval (env_of_packet p) (Ps.permitted acl)
      = (Semantics.eval_acl acl p = Action.Permit))

(* ------------------------------------------------------------------ *)
(* Route space                                                        *)
(* ------------------------------------------------------------------ *)

let rich_config =
  {|
ip as-path access-list AP1 permit _32$
ip as-path access-list AP2 deny ^44_
ip as-path access-list AP2 permit _100_
ip prefix-list PL1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list PL1 seq 20 deny 10.1.0.0/16 le 32
ip prefix-list PL1 seq 30 permit 0.0.0.0/0 le 32
ip prefix-list PL2 seq 10 permit 100.0.0.0/16 le 23
ip community-list expanded CL1 permit _300:3_
ip community-list expanded CL2 deny _65000:1_
ip community-list expanded CL2 permit _65000:.*_
ip community-list standard CL3 permit 9:9 8:8
route-map RICH deny 10
 match as-path AP1
route-map RICH permit 20
 match ip address prefix-list PL1
 match community CL1
 set metric 55
route-map RICH deny 30
 match community CL2 CL3
route-map RICH permit 40
 match local-preference 300
 set local-preference 250
 set community 65000:1 additive
route-map RICH permit 50
 match ip address prefix-list PL2
 match as-path AP2
 set as-path prepend 65000
|}

let rich_db () = parse_ok rich_config
let rich_rm d = Option.get (Database.route_map d "RICH")

let gen_rich_route =
  (* Communities restricted to values in or near the context universe so
     the routes are representable. *)
  QCheck.Gen.(
    oneofl
      [ pfx "10.0.0.0/8"; pfx "10.1.2.0/24"; pfx "10.1.0.0/16";
        pfx "100.0.0.0/16"; pfx "100.0.0.0/20"; pfx "100.0.0.0/24";
        pfx "50.0.0.0/8"; pfx "10.2.0.0/25" ]
    >>= fun prefix ->
    list_size (int_range 0 3) (oneofl [ 32; 44; 100; 65000 ]) >>= fun as_path ->
    list_size (int_range 0 3)
      (oneofl [ comm "300:3"; comm "65000:1"; comm "65000:2"; comm "9:9"; comm "8:8" ])
    >>= fun communities ->
    oneofl [ 100; 300 ] >>= fun local_pref ->
    oneofl [ 0; 55 ] >>= fun metric ->
    oneofl [ 0; 7 ] >>= fun tag ->
    return (Bgp.Route.make ~as_path ~communities ~local_pref ~metric ~tag prefix))

let arb_rich_route =
  QCheck.make ~print:(Format.asprintf "%a" Bgp.Route.pp) gen_rich_route

let prop_stanza_bdd_agrees =
  QCheck.Test.make ~name:"stanza BDD agrees with concrete stanza match"
    ~count:500 arb_rich_route
    (fun r ->
      let d = rich_db () in
      let rm = rich_rm d in
      let ctx = Ctx.create [ (d, [ rm ]) ] in
      QCheck.assume (Ctx.representable ctx r);
      let env = Ctx.route_env ctx r in
      List.for_all
        (fun (s : Route_map.stanza) ->
          Bdd.eval env (Ctx.of_stanza ctx d s) = Semantics.stanza_matches d s r)
        rm.Route_map.stanzas)

let prop_route_cells_agree =
  QCheck.Test.make ~name:"symbolic route-map cell = concrete first match"
    ~count:500 arb_rich_route
    (fun r ->
      let d = rich_db () in
      let rm = rich_rm d in
      let ctx = Ctx.create [ (d, [ rm ]) ] in
      QCheck.assume (Ctx.representable ctx r);
      let env = Ctx.route_env ctx r in
      let cell =
        List.find (fun (c : Ctx.cell) -> Bdd.eval env c.guard) (Ctx.exec ctx d rm)
      in
      match (cell.stanza_seq, Semantics.matching_stanza d rm r) with
      | None, None -> cell.action = Action.Deny
      | Some seq, Some s -> seq = s.Route_map.seq
      | _ -> false)

let prop_extracted_routes_sound =
  QCheck.Test.make ~name:"extracted routes lie in their region" ~count:20
    QCheck.unit
    (fun () ->
      let d = rich_db () in
      let rm = rich_rm d in
      let ctx = Ctx.create [ (d, [ rm ]) ] in
      List.for_all
        (fun (c : Ctx.cell) ->
          match Ctx.to_route ctx c.guard with
          | None -> true (* emptiness is checked separately below *)
          | Some r ->
              (* The extracted route, re-encoded, must satisfy the guard
                 and be handled by the very stanza of this cell. *)
              Bdd.eval (Ctx.route_env ctx r) c.guard
              && (match (c.stanza_seq, Semantics.matching_stanza d rm r) with
                 | None, None -> true
                 | Some seq, Some s -> seq = s.Route_map.seq
                 | _ -> false))
        (Ctx.exec ctx d rm))

let test_every_rich_stanza_reachable () =
  let d = rich_db () in
  let rm = rich_rm d in
  let ctx = Ctx.create [ (d, [ rm ]) ] in
  List.iter
    (fun (c : Ctx.cell) ->
      match Ctx.to_route ctx c.guard with
      | Some _ -> ()
      | None ->
          Alcotest.failf "stanza %s unreachable"
            (match c.stanza_seq with
            | Some s -> string_of_int s
            | None -> "implicit-deny"))
    (Ctx.exec ctx d rm)

let test_as_path_feasibility () =
  (* AP1 (= _32$) and "not AP2" (AP2 permits paths containing 100 unless
     they start with 44): find a route in AP1 ∧ ¬AP2 and check it. *)
  let d = rich_db () in
  let rm = rich_rm d in
  let ctx = Ctx.create [ (d, [ rm ]) ] in
  let ap1 = Option.get (Database.as_path_list d "AP1") in
  let ap2 = Option.get (Database.as_path_list d "AP2") in
  let b =
    Bdd.conj (Ctx.of_as_path_list ctx ap1) (Bdd.neg (Ctx.of_as_path_list ctx ap2))
  in
  match Ctx.to_route ctx b with
  | Some r ->
      check "in AP1" true (As_path_list.matches ap1 r.Bgp.Route.as_path);
      check "not in AP2" false (As_path_list.matches ap2 r.Bgp.Route.as_path)
  | None -> Alcotest.fail "expected a feasible route"

let test_as_path_infeasible_blocked () =
  (* A single-entry list L: atom(L) ∧ ¬atom(L) must be infeasible. *)
  let d = rich_db () in
  let rm = rich_rm d in
  let ctx = Ctx.create [ (d, [ rm ]) ] in
  let ap1 = Option.get (Database.as_path_list d "AP1") in
  let v = Ctx.of_as_path_list ctx ap1 in
  check "contradiction empty" true (Ctx.to_route ctx (Bdd.conj v (Bdd.neg v)) = None)

let test_community_universe_covers () =
  (* Universe contains a witness for each expanded regex and the
     standard list communities. *)
  let d = rich_db () in
  let rm = rich_rm d in
  let ctx = Ctx.create [ (d, [ rm ]) ] in
  let u = Array.to_list ctx.Ctx.comm_universe in
  check "9:9 present" true (List.exists (Bgp.Community.equal (comm "9:9")) u);
  check "8:8 present" true (List.exists (Bgp.Community.equal (comm "8:8")) u);
  check "300:3 witness" true
    (List.exists
       (fun c ->
         Sre.Community_regex.matches
           (Sre.Community_regex.compile "_300:3_")
           (Bgp.Community.to_pair c))
       u);
  check "65000 witness not 65000:1" true
    (List.exists
       (fun c ->
         Sre.Community_regex.matches
           (Sre.Community_regex.compile "_65000:.*_")
           (Bgp.Community.to_pair c)
         && not (Bgp.Community.equal c (comm "65000:1")))
       u)

let test_prefix_range_bdd () =
  let d = rich_db () in
  let ctx = Ctx.create [ (d, [ rich_rm d ]) ] in
  let range =
    Netaddr.Prefix_range.make (pfx "100.0.0.0/16") ~ge:None ~le:(Some 23)
  in
  let b = Ctx.of_prefix_range range in
  let good = Bgp.Route.make (pfx "100.0.128.0/20") in
  let bad_len = Bgp.Route.make (pfx "100.0.0.0/24") in
  let bad_bits = Bgp.Route.make (pfx "101.0.0.0/20") in
  check "inside" true (Bdd.eval (Ctx.route_env ctx good) b);
  check "too long" false (Bdd.eval (Ctx.route_env ctx bad_len) b);
  check "wrong bits" false (Bdd.eval (Ctx.route_env ctx bad_bits) b)

(* ------------------------------------------------------------------ *)
(* Mutated configs                                                    *)
(* ------------------------------------------------------------------ *)

(* A malformed config is a located parse error, never an exception out
   of the compiler: every config the parser accepts compiles. The seeds
   are the configs the examples and E1 ship; each case applies 1-3
   mutations (a deletion, a fragment insertion, or a number already
   there replaced by one at either side of a field's width), parses the
   result, and compiles every ACL and route-map it holds. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let mutation_seeds =
  lazy
    [|
      read_file "../examples/lab_edge.txt";
      read_file "../examples/batch_demo.conf";
      Evaluation.E1_running_example.isp_out_config;
    |]

let fragments =
  [|
    "\n"; " "; "permit "; "deny "; " eq "; " range "; " le "; " ge ";
    " lt "; " gt "; " neq "; " any"; " host "; " tcp"; " udp"; " ip"; "/";
    "."; " 0.0.0.255"; " established"; "route-map T permit 5\n";
    " match ip address prefix-list D1\n"; " match metric ";
    " match tag "; " match local-preference "; " set local-preference ";
    " set metric "; " match community C\n";
    "ip prefix-list D1 seq 5 permit 0.0.0.0/0 le 32\n";
    "ip community-list expanded C permit _300:[0-9]+_\n";
    "ip access-list extended A\n";
  |]

let splice_numbers =
  [|
    "0"; "32"; "33"; "63"; "64"; "255"; "256"; "65535"; "65536";
    "4294967295"; "4294967296"; "18446744073709551616";
  |]

let gen_mutated : string QCheck.Gen.t =
  let mutate rng text =
    let n = String.length text in
    let at = if n = 0 then 0 else Random.State.int rng (n + 1) in
    let cut a b = String.sub text 0 a ^ String.sub text b (n - b) in
    let put a b middle = String.sub text 0 a ^ middle ^ String.sub text b (n - b) in
    match Random.State.int rng 3 with
    | 0 -> cut at (min n (at + 1 + Random.State.int rng 12))
    | 1 -> put at at fragments.(Random.State.int rng (Array.length fragments))
    | _ -> (
        let is_digit i = text.[i] >= '0' && text.[i] <= '9' in
        let rec first i = if i >= n then None else if is_digit i then Some i else first (i + 1) in
        match (match first at with None -> first 0 | found -> found) with
        | None -> text
        | Some a ->
            let rec stop b = if b < n && is_digit b then stop (b + 1) else b in
            put a (stop a)
              splice_numbers.(Random.State.int rng (Array.length splice_numbers)))
  in
  fun rng ->
    let seeds = Lazy.force mutation_seeds in
    let text = ref seeds.(Random.State.int rng (Array.length seeds)) in
    for _ = 1 to 1 + Random.State.int rng 3 do
      text := mutate rng !text
    done;
    !text

let prop_mutated_configs =
  QCheck.Test.make ~name:"mutated configs parse to errors or compile"
    ~count:20_000
    (QCheck.make ~print:Fun.id gen_mutated)
    (fun text ->
      match Parser.parse text with
      | Error _ -> true
      | Ok db ->
          Bdd.with_manager (Bdd.Manager.create ()) (fun () ->
              List.iter (fun acl -> ignore (Ps.exec acl)) (Database.acls db);
              let rms = Database.route_maps db in
              let ctx = Ctx.create [ (db, rms) ] in
              List.iter (fun rm -> ignore (Ctx.exec ctx db rm)) rms);
          true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "symbolic"
    [
      ( "packet-space",
        [
          q prop_rule_bdd_matches;
          q prop_exec_partition;
          q prop_exec_agrees_with_eval;
          q prop_to_packet_sound;
          q prop_permitted_agrees;
        ] );
      ( "route-space",
        [
          q prop_stanza_bdd_agrees;
          q prop_route_cells_agree;
          q prop_extracted_routes_sound;
          Alcotest.test_case "every stanza reachable" `Quick
            test_every_rich_stanza_reachable;
          Alcotest.test_case "as-path feasibility" `Quick test_as_path_feasibility;
          Alcotest.test_case "as-path contradiction" `Quick
            test_as_path_infeasible_blocked;
          Alcotest.test_case "community universe" `Quick
            test_community_universe_covers;
          Alcotest.test_case "prefix-range encoding" `Quick test_prefix_range_bdd;
        ] );
      ("mutations", [ q prop_mutated_configs ]);
    ]
