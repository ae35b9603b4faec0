(* Property-based differential testing of the symbolic engines against
   the concrete interpreter. For random ACLs and packets, the BDD
   encoding used by [Engine.Search_filters] must agree with
   [Config.Semantics.eval_acl] packet by packet, and every witness the
   symbolic search produces must check out concretely. For random
   route-maps, every witness of the first-match partition must be
   handled by its cell's stanza, which is what lets the boundary sweep
   answer each position from two stanzas. *)

let case_count = 200

(* ------------------------------------------------------------------ *)
(* Packet <-> BDD assignment, per the Packet_space variable layout:
   src 0-31, dst 32-63, protocol 64-71, src port 72-87, dst port
   88-103, established 104 — MSB-first within each field. *)
(* ------------------------------------------------------------------ *)

let int_bit ~width value i = value land (1 lsl (width - 1 - i)) <> 0

let assignment (p : Config.Packet.t) v =
  if v < 32 then Netaddr.Ipv4.bit p.src v
  else if v < 64 then Netaddr.Ipv4.bit p.dst (v - 32)
  else if v < 72 then
    int_bit ~width:8 (Config.Packet.protocol_number p.protocol) (v - 64)
  else if v < 88 then int_bit ~width:16 p.src_port (v - 72)
  else if v < 104 then int_bit ~width:16 p.dst_port (v - 88)
  else if v = 104 then p.established
  else Alcotest.failf "unexpected BDD variable %d" v

let matches space p = Symbdd.Bdd.eval (assignment p) space

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

let gen_packet =
  QCheck.Gen.(
    let addr =
      map
        (fun i -> Netaddr.Ipv4.of_int (i land 0xFFFF_FFFF))
        (int_bound max_int)
    in
    let* protocol =
      frequency
        [
          (4, return Config.Packet.Tcp);
          (3, return Config.Packet.Udp);
          (2, return Config.Packet.Icmp);
          (1, return (Config.Packet.Proto 47));
        ]
    in
    let* src = addr and* dst = addr in
    let* src_port, dst_port, established =
      if Config.Packet.has_ports protocol then
        let* sp = int_bound 65535 and* dp = int_bound 65535 in
        let* est =
          if protocol = Config.Packet.Tcp then bool else return false
        in
        return (sp, dp, est)
      else return (0, 0, false)
    in
    return
      (Config.Packet.make ~protocol ~src_port ~dst_port ~established ~src ~dst
         ()))

(* Two ACL shapes: the fully random corpus generator (density-swept) and
   the closed-form overlap generator, both driven from a qcheck seed so
   shrinking reduces to replaying a smaller seed. *)
let gen_acl =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 and* shape = int_bound 2 in
    let rng = Random.State.make [| seed |] in
    match shape with
    | 0 | 1 ->
        let* rules = int_range 1 12 and* d = int_bound 10 in
        return
          (Workload.Random_corpus.acl ~rng ~name:"DIFF" ~rules
             ~overlap_density:(float_of_int d /. 10.))
    | _ ->
        let* plain = int_bound 4
        and* crossing = int_bound 3
        and* trailing = bool in
        return
          (Workload.Acl_gen.make ~rng ~name:"DIFF" ~plain ~crossing
             ~trailing_deny_any:trailing))

let gen_acl_and_packets =
  QCheck.Gen.(
    let* acl = gen_acl in
    (* Random packets rarely hit narrow rules, so also probe with one
       packet drawn from each cell of the ACL's first-match partition —
       those exercise every decision region by construction. *)
    let cell_packets =
      List.filter_map
        (fun (c : Symbolic.Packet_space.cell) ->
          Symbolic.Packet_space.to_packet c.guard)
        (Symbolic.Packet_space.exec acl)
    in
    let* random_packets = list_size (int_range 1 8) gen_packet in
    return (acl, cell_packets @ random_packets))

let arb_acl_and_packets =
  QCheck.make gen_acl_and_packets ~print:(fun (acl, packets) ->
      Format.asprintf "%a@.packets:@.%a" Config.Acl.pp acl
        (Format.pp_print_list Config.Packet.pp)
        packets)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* The heart of the differential suite: the symbolic action space and
   the concrete interpreter agree on every probed packet. *)
let prop_action_space_agrees =
  QCheck.Test.make ~count:case_count ~name:"action_space agrees with eval_acl"
    arb_acl_and_packets (fun (acl, packets) ->
      let permit_space =
        Engine.Search_filters.action_space acl Config.Action.Permit
      in
      let deny_space =
        Engine.Search_filters.action_space acl Config.Action.Deny
      in
      List.for_all
        (fun p ->
          let concrete = Config.Semantics.eval_acl acl p in
          matches permit_space p = (concrete = Config.Action.Permit)
          && matches deny_space p = (concrete = Config.Action.Deny))
        packets)

(* Permit and deny spaces partition the full packet space. *)
let prop_spaces_partition =
  QCheck.Test.make ~count:case_count ~name:"permit/deny spaces partition"
    arb_acl_and_packets (fun (acl, _) ->
      let permit_space =
        Engine.Search_filters.action_space acl Config.Action.Permit
      in
      let deny_space =
        Engine.Search_filters.action_space acl Config.Action.Deny
      in
      Symbdd.Bdd.(
        equal (conj permit_space deny_space) zero
        && equal (disj permit_space deny_space) one))

(* Every witness [search] returns satisfies the query concretely. *)
let prop_search_witness_is_concrete =
  QCheck.Test.make ~count:case_count ~name:"search witnesses check concretely"
    arb_acl_and_packets (fun (acl, _) ->
      List.for_all
        (fun action ->
          match
            Engine.Search_filters.search acl
              (Engine.Search_filters.any_query action)
          with
          | None ->
              (* No witness: no probed packet may take that action
                 either; verify on one cell per region. *)
              List.for_all
                (fun (c : Symbolic.Packet_space.cell) ->
                  match Symbolic.Packet_space.to_packet c.guard with
                  | None -> true
                  | Some p -> Config.Semantics.eval_acl acl p <> action)
                (Symbolic.Packet_space.exec acl)
          | Some p -> Config.Semantics.eval_acl acl p = action)
        [ Config.Action.Permit; Config.Action.Deny ])

(* An ACL never differs from itself, and when [differ] produces a
   counterexample for two distinct ACLs it is a real one. *)
let prop_differ =
  QCheck.Test.make ~count:case_count ~name:"differ soundness"
    (QCheck.pair arb_acl_and_packets arb_acl_and_packets)
    (fun ((a, _), (b, _)) ->
      Engine.Search_filters.differ a a = None
      && Engine.Search_filters.differ b b = None
      &&
      match Engine.Search_filters.differ a b with
      | None ->
          (* Symbolically equivalent: the concrete interpreters must
             agree on probe packets from both partitions. *)
          List.for_all
            (fun acl ->
              List.for_all
                (fun (c : Symbolic.Packet_space.cell) ->
                  match Symbolic.Packet_space.to_packet c.guard with
                  | None -> true
                  | Some p ->
                      Config.Semantics.eval_acl a p
                      = Config.Semantics.eval_acl b p)
                (Symbolic.Packet_space.exec acl))
            [ a; b ]
      | Some p ->
          Config.Semantics.eval_acl a p <> Config.Semantics.eval_acl b p)

(* ------------------------------------------------------------------ *)
(* Route-maps. The boundary sweep answers position [i] from the two
   stanzas that handle its witness (the candidate when inserted at [i],
   stanza [i] when inserted at [i + 1]) instead of evaluating either
   map. That is exact only while the symbolic first-match partition
   agrees with the concrete interpreter on every witness it yields. *)
(* ------------------------------------------------------------------ *)

module Ctx = Symbolic.Route_ctx
module Rm = Config.Route_map

(* Every list a random stanza may name: prefix lists with deny entries
   and ge/le windows, standard and expanded community lists, and as-path
   lists whose atoms constrain each other. *)
let route_db =
  Config.Parser.parse_exn
    {|
ip prefix-list PL0 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list PL1 seq 10 deny 10.1.0.0/16 le 32
ip prefix-list PL1 seq 20 permit 10.0.0.0/8 le 32
ip prefix-list PL2 seq 10 permit 10.1.0.0/16 ge 20 le 28
ip prefix-list PL3 seq 10 permit 10.2.0.0/16 le 32
ip community-list standard CS0 permit 65000:1
ip community-list standard CS1 deny 65000:2
ip community-list standard CS1 permit 65001:1 300:3
ip community-list expanded CE0 permit _65000:.*_
ip community-list expanded CE1 deny _65000:1_
ip community-list expanded CE1 permit _300:3_
ip as-path access-list AP0 permit _100_
ip as-path access-list AP1 deny ^200_
ip as-path access-list AP1 permit _100$
ip as-path access-list AP2 permit _300$
|}

let gen_match =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Rm.Match_prefix_list [ Printf.sprintf "PL%d" k ])
          (int_bound 3);
        map (fun n -> Rm.Match_community [ n ])
          (oneofl [ "CS0"; "CS1"; "CE0"; "CE1" ]);
        map (fun k -> Rm.Match_as_path [ Printf.sprintf "AP%d" k ])
          (int_bound 2);
        map (fun n -> Rm.Match_local_pref n) (oneofl [ 100; 200 ]);
        map (fun n -> Rm.Match_metric n) (oneofl [ 0; 50 ]);
        map (fun tags -> Rm.Match_tag tags)
          (oneofl [ [ 0 ]; [ 7 ]; [ 0; 7 ] ]);
      ])

let gen_set =
  let comm = Bgp.Community.make in
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Rm.Set_local_pref n) (oneofl [ 100; 150; 200 ]);
        map (fun n -> Rm.Set_metric n) (oneofl [ 0; 50; 70 ]);
        map2
          (fun communities additive ->
            Rm.Set_community { communities; additive })
          (oneofl
             [ [ comm 65000 1 ]; [ comm 65000 2; comm 300 3 ]; [ comm 9 9 ] ])
          bool;
        map (fun n -> Rm.Set_comm_list_delete n)
          (oneofl [ "CS0"; "CE0"; "CE1" ]);
        map (fun n -> Rm.Set_tag n) (oneofl [ 0; 7; 9 ]);
        return (Rm.Set_as_path_prepend [ 65000 ]);
      ])

let gen_stanza =
  QCheck.Gen.(
    let* matches =
      frequency [ (1, return 0); (3, return 1); (2, return 2) ] >>= fun k ->
      list_repeat k gen_match
    in
    let* sets = list_size (int_bound 2) gen_set in
    let* action = oneofl [ Config.Action.Permit; Config.Action.Deny ] in
    return (Rm.stanza ~matches ~sets action))

(* A target of 1-8 stanzas and a candidate to insert into it. *)
let arb_route_map_case =
  QCheck.make
    ~print:(fun (target, candidate) ->
      Format.asprintf "%a@.candidate:@.%a" Rm.pp target
        (fun fmt s -> Rm.pp_stanza fmt "NEW" s)
        candidate)
    QCheck.Gen.(
      let* stanzas = list_size (int_range 1 8) gen_stanza in
      let* candidate = gen_stanza in
      return
        ( Rm.make "T"
            (List.mapi (fun i s -> { s with Rm.seq = (i + 1) * 10 }) stanzas),
          { candidate with Rm.seq = 5 } ))

(* The context and partition the sweep builds: the candidate is in
   scope, so its lists shape the universe. *)
let route_partition target candidate =
  let ctx =
    Ctx.create
      [ (route_db, [ Rm.insert_at target 0 candidate; target ]) ]
  in
  (ctx, Ctx.exec ctx route_db target)

let handled_by (s : Rm.stanza) route =
  Config.Semantics.apply_action route_db s.action s.sets route

let eval_at target candidate i route =
  Config.Semantics.eval_route_map route_db
    (Rm.insert_at target i candidate)
    route

(* Every witness of a cell is handled concretely by that cell's stanza
   (or by none, for the implicit deny). *)
let prop_route_cell_witnesses =
  QCheck.Test.make ~count:case_count
    ~name:"route-map cell witnesses are handled by their stanza"
    arb_route_map_case (fun (target, candidate) ->
      let ctx, cells = route_partition target candidate in
      List.for_all
        (fun (c : Ctx.cell) ->
          match Ctx.to_route ctx c.guard with
          | None -> true
          | Some route -> (
              match
                (c.stanza_seq, Config.Semantics.matching_stanza route_db target route)
              with
              | None, None -> true
              | Some seq, Some s -> seq = s.Rm.seq
              | _ -> false))
        cells)

(* On every witness of [cell_i.guard ∧ match(candidate)], the two
   stanzas' own outcomes are those of the maps with the candidate
   inserted at [i] and at [i + 1]; and every boundary the sweep reports
   carries exactly those maps' outcomes. *)
let prop_route_two_stanza_results =
  QCheck.Test.make ~count:case_count
    ~name:"two-stanza results = insert_at evaluation" arb_route_map_case
    (fun (target, candidate) ->
      let ctx, cells = route_partition target candidate in
      let match_new = Ctx.of_stanza ctx route_db candidate in
      let agree a b = Config.Semantics.route_result_equal a b in
      List.for_all2
        (fun i (s : Rm.stanza) ->
          let c = List.nth cells i in
          match Ctx.to_route ctx (Symbdd.Bdd.conj c.Ctx.guard match_new) with
          | None -> true
          | Some route ->
              agree (handled_by candidate route)
                (eval_at target candidate i route)
              && agree (handled_by s route)
                   (eval_at target candidate (i + 1) route))
        (List.init (List.length target.Rm.stanzas) Fun.id)
        target.Rm.stanzas
      && List.for_all
           (fun (i, (d : Engine.Compare_route_policies.difference)) ->
             agree d.result_a (eval_at target candidate i d.route)
             && agree d.result_b (eval_at target candidate (i + 1) d.route))
           (Engine.Compare_route_policies.adjacent_insertions ~naive:false
              ~db:route_db ~target candidate))

let () =
  Alcotest.run "differential"
    [
      ( "symbolic-vs-concrete",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_action_space_agrees;
            prop_spaces_partition;
            prop_search_witness_is_concrete;
            prop_differ;
          ] );
      ( "route-maps",
        List.map QCheck_alcotest.to_alcotest
          [ prop_route_cell_witnesses; prop_route_two_stanza_results ] );
    ]
