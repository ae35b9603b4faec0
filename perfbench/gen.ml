(* Workload inputs, all drawn from the seed. The program under test
   only ever sees the generated config text, prompts and the simulated
   user; references and sample inputs feed the correctness checks. *)

module P = Netaddr.Prefix
module PR = Netaddr.Prefix_range
module RM = Config.Route_map
module A = Config.Action
module I = Llm.Intent

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]
let pick rng a = a.(Random.State.int rng (Array.length a))
let ip a b c d = Netaddr.Ipv4.of_octets a b c d
let pfx a b c d len = P.make (ip a b c d) len
let upto le p = PR.make p ~ge:None ~le:(Some le)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let stanzas_of ~name ss =
  RM.make name (List.mapi (fun i (s : RM.stanza) -> { s with RM.seq = (i + 1) * 10 }) ss)

let acl_of ~name rs =
  Config.Acl.make name
    (List.mapi (fun i (r : Config.Acl.rule) -> { r with Config.Acl.seq = (i + 1) * 10 }) rs)

let prefix_list_of ~name es =
  Config.Prefix_list.make name
    (List.mapi
       (fun i (e : Config.Prefix_list.entry) -> { e with Config.Prefix_list.seq = (i + 1) * 10 })
       es)

(* The stanza an intent denotes, written by hand against its own
   prefix list: what the reference config holds. *)
let reference_stanza ~list_name (i : I.route_map_intent) =
  let matches = if i.prefixes = [] then [] else [ RM.Match_prefix_list [ list_name ] ] in
  RM.stanza ~matches ~sets:(if i.action = A.Permit then i.sets else []) i.action

let reference_list ~list_name (i : I.route_map_intent) =
  Config.Prefix_list.make list_name
    (List.mapi
       (fun k r -> Config.Prefix_list.entry ~seq:((k + 1) * 10) ~action:A.Permit r)
       i.prefixes)

let rm_intent ?(sets = []) prefixes action =
  match I.route_map_intent ~prefixes ~sets action with
  | I.Route_map i -> i
  | I.Acl _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sample inputs for the concrete checks                               *)
(* ------------------------------------------------------------------ *)

let random_prefix rng firsts =
  let len = 8 + Random.State.int rng 25 in
  pfx (pick rng firsts) (Random.State.int rng 256) (Random.State.int rng 256)
    (Random.State.int rng 256) len

let sample_routes rng ~n ?(communities = [||]) firsts =
  List.init n (fun _ ->
      let communities =
        if Array.length communities > 0 && Random.State.bool rng then
          [ pick rng communities ]
        else []
      in
      Bgp.Route.make ~communities
        ~local_pref:(pick rng [| 100; 100; 200 |])
        ~metric:(Random.State.int rng 3)
        (random_prefix rng firsts))

(* ------------------------------------------------------------------ *)
(* wide-update                                                         *)
(* ------------------------------------------------------------------ *)

let widths = [| 64; 128; 256; 256; 512 |]
let wide_target = "WIDE"

type wide = {
  width : int;
  text : string; (* the config file the session starts from *)
  prompt : string;
  reference : string; (* hand-built config: the intent at a drawn position *)
  routes : Bgp.Route.t list;
}

(* Stanza [i] matches its own /18, inside 10/8 when the new intent
   overlaps it and inside 20/8 otherwise. *)
let wide_session rng width =
  let share = 0.4 +. Random.State.float rng 0.2 in
  let db = ref Config.Database.empty in
  let stanzas =
    List.init width (fun i ->
        let inside = Random.State.float rng 1. < share in
        let name = Printf.sprintf "P%d" i in
        let p = pfx (if inside then 10 else 20) (i / 4) (i mod 4 * 64) 0 18 in
        db :=
          Config.Database.add_prefix_list !db
            (Config.Prefix_list.make name
               [ Config.Prefix_list.entry ~seq:10 ~action:A.Permit (upto 24 p) ]);
        let matches = [ RM.Match_prefix_list [ name ] ] in
        if Random.State.int rng 5 = 0 then RM.stanza ~matches A.Deny
        else RM.stanza ~matches ~sets:[ RM.Set_metric (i + 1) ] A.Permit)
  in
  let target = stanzas_of ~name:wide_target stanzas in
  let db = Config.Database.add_route_map !db target in
  let intent =
    rm_intent ~sets:[ RM.Set_metric 7777 ] [ upto 32 (pfx 10 0 0 0 8) ] A.Permit
  in
  let intended = Random.State.int rng (width + 1) in
  let reference =
    let list_name = "REFNEW" in
    let db = Config.Database.add_prefix_list db (reference_list ~list_name intent) in
    Config.Database.add_route_map db
      (RM.insert_at target intended (reference_stanza ~list_name intent))
  in
  {
    width;
    text = Config.Parser.to_string db;
    prompt = I.to_prompt (I.Route_map intent);
    reference = Config.Parser.to_string reference;
    routes = sample_routes rng ~n:48 [| 10; 10; 10; 20; 20; 30 |];
  }

(* Rounds of five sessions, one per width (256 twice, so the median
   session sits inside a width class rather than between two) in a
   seeded order: every run sees the same width mix, and only the order,
   the overlap share (40 to 60%) and the intended position vary with
   the seed. *)
let wide ~seed ~rounds =
  let rng = rng ~seed ~salt:1 in
  List.concat
    (List.init rounds (fun _ ->
         List.map (wide_session rng) (Array.to_list (shuffle rng (Array.copy widths)))))

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)
(* ------------------------------------------------------------------ *)

let fleet_routers = 2048


(* Routes that exercise every fleet policy: bogons, the reserved
   space, the service prefix, edge prefixes and public space, with and
   without the router's site community. *)
let fleet_routes rng ~community =
  let fixed =
    [ Netgen.service_prefix; Netgen.bogon_probe; Netgen.reserved_prefix;
      Netgen.edge_prefix (Random.State.int rng 64) ]
  in
  List.map (fun p -> Bgp.Route.make p) fixed
  @ sample_routes rng ~n:8 ~communities:[| community |] [| 10; 60; 192; 172; 50; 224 |]

(* ------------------------------------------------------------------ *)
(* batch-mixed                                                         *)
(* ------------------------------------------------------------------ *)

type batch = {
  btext : string; (* the config file the batch starts from *)
  items : Clarify.Batch.item list;
  prefix_items : Clarify.Batch.prefix_item list;
  faults : Llm.Fault_injector.fault list;
  breference : Config.Database.t; (* every intent at its intended place *)
  broutes : Bgp.Route.t list;
  packets : Config.Packet.t list;
  prefixes : P.t list;
}

(* The batch's shape. [Batch.run] gets six intents, the batch size of
   the repo's own batch bench (bench/main.ml, batch/batch-of-6); the
   route-map has the 16 stanzas of that bench's target, the ACL the 31
   rules of the bench's overlap/acl-31-rules ACL, and the fault schedule
   the two faulty attempts of the README's [--inject-faults 2] example.
   No measurement backs the rest: the even split of the six between the
   route-map and the ACL, the three-entry prefix-list segment on a
   16-entry list, the one-in-two repeat in [target_intents] and the
   shapes of the intents. *)
let rm_target = "RM"
let acl_target = "FW"
let pl_target = "PL"
let rm_width = 16
let acl_width = 31
let pl_width = 16
let faulty_attempts = 2

(* Existing route-map stanzas sit on /16s of 10/8 and 172.16/12;
   intents cover windows of those, so intents overlap stanzas and each
   other. Route-map intents stay community- and as-path-free. *)
let batch_route_map rng ~name ~width =
  let lists = ref [] in
  let stanzas =
    List.init width (fun i ->
        let list_name = Printf.sprintf "%s_L%d" name i in
        let p =
          if Random.State.int rng 3 = 0 then pfx 172 (16 + (i mod 16)) 0 0 16
          else pfx 10 (i mod 256) 0 0 16
        in
        lists :=
          Config.Prefix_list.make list_name
            [ Config.Prefix_list.entry ~seq:10 ~action:A.Permit (upto 24 p) ]
          :: !lists;
        let matches = [ RM.Match_prefix_list [ list_name ] ] in
        if Random.State.int rng 4 = 0 then RM.stanza ~matches A.Deny
        else RM.stanza ~matches ~sets:[ RM.Set_local_pref (100 + i) ] A.Permit)
  in
  (!lists, stanzas_of ~name stanzas)

let batch_rm_intent rng ~width ~metric =
  let prefixes =
    match Random.State.int rng 4 with
    | 0 -> [ upto 24 (pfx 10 0 0 0 8) ]
    | 1 -> [ upto 24 (pfx 10 (Random.State.int rng width) 0 0 16) ]
    | 2 -> [ upto 24 (pfx 10 0 0 0 9) ]
    | _ -> [ upto 20 (pfx 172 16 0 0 12) ]
  in
  if Random.State.int rng 4 = 0 then rm_intent prefixes A.Deny
  else rm_intent ~sets:[ RM.Set_metric metric ] prefixes A.Permit

let acl_rule_of_intent (i : I.acl_intent) =
  Config.Acl.rule ~seq:10 ~protocol:i.protocol ~src:i.src ~src_port:i.src_port ~dst:i.dst
    ~dst_port:i.dst_port ~established:i.established i.acl_action

let batch_acl rng ~width =
  acl_of ~name:acl_target
    (List.init width (fun i ->
         let dst = Config.Acl.addr_of_prefix (pfx 192 168 (i mod 256) 0 24) in
         let protocol = pick rng [| Config.Packet.Tcp; Config.Packet.Udp |] in
         let dst_port =
           if Random.State.bool rng then Config.Acl.Eq (1000 + i) else Config.Acl.Any_port
         in
         Config.Acl.rule ~protocol ~dst ~dst_port (pick rng [| A.Permit; A.Deny |])))

let batch_acl_intent rng ~width =
  let any = Config.Acl.Any in
  let net a b c d l = Config.Acl.addr_of_prefix (pfx a b c d l) in
  let i =
    match Random.State.int rng 4 with
    | 0 ->
        I.acl_intent ~protocol:Config.Packet.Tcp ~dst:(net 192 168 0 0 16)
          ~dst_port:(Config.Acl.Eq 22) A.Deny
    | 1 ->
        I.acl_intent ~protocol:Config.Packet.Udp ~src:(net 10 20 0 0 16) ~dst:any
          ~dst_port:(Config.Acl.Eq 53) A.Permit
    | 2 ->
        I.acl_intent ~protocol:Config.Packet.Tcp
          ~dst:(net 192 168 (Random.State.int rng width) 0 24)
          (pick rng [| A.Permit; A.Deny |])
    | _ ->
        I.acl_intent ~protocol:Config.Packet.Tcp ~dst:(net 192 168 0 0 17)
          ~dst_port:(Config.Acl.Range (1000, 1100)) A.Permit
  in
  match i with I.Acl a -> a | I.Route_map _ -> assert false

let batch_prefix_list rng ~width =
  prefix_list_of ~name:pl_target
    (List.init width (fun i ->
         let p = if i mod 3 = 2 then pfx 172 (16 + i) 0 0 16 else pfx 10 i 0 0 16 in
         Config.Prefix_list.entry ~action:(pick rng [| A.Permit; A.Deny |]) (upto 24 p)))

let batch_prefix_entry rng ~width =
  let range =
    match Random.State.int rng 4 with
    | 0 -> upto 24 (pfx 10 0 0 0 8)
    | 1 -> upto 32 (pfx 10 (Random.State.int rng width) 0 0 16)
    | 2 -> PR.make (pfx 10 0 0 0 8) ~ge:(Some 25) ~le:None
    | _ -> upto 20 (pfx 172 16 0 0 12)
  in
  Config.Prefix_list.entry ~action:(pick rng [| A.Permit; A.Deny |]) range

(* Three intents per target, drawn by [make]. With probability one half
   the third repeats the second and both are meant at the bottom, so the
   repeat's questions recur verbatim and the answer cache is used.
   Returns (intent, meant at the bottom) pairs in submission order. *)
let target_intents rng make =
  let a = make () in
  let b = make () in
  if Random.State.bool rng then [ (a, false); (b, true); (b, true) ]
  else [ (a, false); (b, false); (make (), false) ]

(* Where the user means an intent to go in the reference policy built
   so far. [kinds] mirrors that policy, [None] for an existing entry and
   [Some x] for an earlier intent. The position is drawn below every
   earlier intent the new one overlaps (so each conflict is meant to be
   won by the earlier intent, and the reference's answer to any question
   depends on the question alone), then moved down to the next
   placement boundary: positions between two boundaries behave alike,
   and Clarify places at a boundary. Returns the position and the
   updated mirror. *)
let meant rng ~bottom ~overlaps kinds ~boundaries x =
  let len = List.length kinds in
  let lo =
    List.fold_left max 0
      (List.mapi (fun i k -> match k with Some y when overlaps x y -> i + 1 | _ -> 0) kinds)
  in
  let q =
    if bottom then len
    else
      let p = lo + Random.State.int rng (len - lo + 1) in
      match List.find_opt (fun b -> b >= p) (boundaries ()) with Some b -> b | None -> len
  in
  (q, List.filteri (fun i _ -> i < q) kinds @ (Some x :: List.filteri (fun i _ -> i >= q) kinds))

let batch_one rng =
  Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) @@ fun () ->
  let metric = ref 500 in
  let next_metric () =
    incr metric;
    !metric
  in
  let db = ref Config.Database.empty and reference = ref Config.Database.empty in
  let add_both f =
    db := f !db;
    reference := f !reference
  in
  (* The route-map target. *)
  let rm_items =
    let name = rm_target and width = rm_width in
    let lists, target = batch_route_map rng ~name ~width in
    List.iter (fun l -> add_both (fun d -> Config.Database.add_prefix_list d l)) lists;
    add_both (fun d -> Config.Database.add_route_map d target);
    let kinds = ref (List.map (fun _ -> None) target.RM.stanzas) in
    target_intents rng (fun () -> batch_rm_intent rng ~width ~metric:(next_metric ()))
    |> List.mapi (fun k ((i : I.route_map_intent), bottom) ->
           let list_name = Printf.sprintf "%s_REF%d" name k in
           reference := Config.Database.add_prefix_list !reference (reference_list ~list_name i);
           let current = Option.get (Config.Database.route_map !reference name) in
           let stanza = reference_stanza ~list_name i in
           let q, kinds' =
             meant rng ~bottom !kinds i
               ~overlaps:(fun (a : I.route_map_intent) b ->
                 PR.overlap (List.hd a.prefixes) (List.hd b.prefixes))
               ~boundaries:(fun () ->
                 List.map
                   (fun (b : Clarify.Disambiguator.question) -> b.position)
                   (Clarify.Disambiguator.boundaries ~db:!reference ~target:current stanza))
           in
           kinds := kinds';
           reference := Config.Database.add_route_map !reference (RM.insert_at current q stanza);
           Clarify.Batch.Route_map_update { target = name; prompt = I.to_prompt (I.Route_map i) })
  in
  (* The ACL target. *)
  let acl = batch_acl rng ~width:acl_width in
  add_both (fun d -> Config.Database.add_acl d acl);
  let acl_items =
    let kinds = ref (List.map (fun _ -> None) acl.Config.Acl.rules) in
    let space r = Symbolic.Packet_space.of_rule r in
    target_intents rng (fun () -> batch_acl_intent rng ~width:acl_width)
    |> List.map (fun (i, bottom) ->
           let current = Option.get (Config.Database.acl !reference acl_target) in
           let rule = acl_rule_of_intent i in
           let q, kinds' =
             meant rng ~bottom !kinds rule
               ~overlaps:(fun a b -> Symbdd.Bdd.is_sat (Symbdd.Bdd.conj (space a) (space b)))
               ~boundaries:(fun () ->
                 List.map
                   (fun (b : Clarify.Acl_disambiguator.question) -> b.position)
                   (Clarify.Acl_disambiguator.boundaries ~target:current rule))
           in
           kinds := kinds';
           reference := Config.Database.add_acl !reference (Config.Acl.insert_at current q rule);
           Clarify.Batch.Acl_update { target = acl_target; prompt = I.to_prompt (I.Acl i) })
  in
  (* Interleave route-map and ACL intents: the LLM sees them in this
     order, and faults land wherever the schedule puts them. *)
  let items =
    let rec weave a b =
      match (a, b) with
      | [], r | r, [] -> r
      | x :: a', y :: b' -> x :: y :: weave a' b'
    in
    weave rm_items acl_items
  in
  (* The prefix-list segment. *)
  let pl = batch_prefix_list rng ~width:pl_width in
  add_both (fun d -> Config.Database.add_prefix_list d pl);
  let prefix_items =
    let kinds = ref (List.map (fun _ -> None) pl.Config.Prefix_list.entries) in
    target_intents rng (fun () -> batch_prefix_entry rng ~width:pl_width)
    |> List.map (fun ((entry : Config.Prefix_list.entry), bottom) ->
           let current = Option.get (Config.Database.prefix_list !reference pl_target) in
           let q, kinds' =
             meant rng ~bottom !kinds entry
               ~overlaps:(fun (a : Config.Prefix_list.entry) b -> PR.overlap a.range b.range)
               ~boundaries:(fun () ->
                 List.map
                   (fun (b : Clarify.Prefix_list_disambiguator.question) -> b.position)
                   (Clarify.Prefix_list_disambiguator.boundaries ~target:current entry))
           in
           kinds := kinds';
           reference :=
             Config.Database.add_prefix_list !reference
               (Clarify.Prefix_list_disambiguator.insert_entry_at current q entry);
           { Clarify.Batch.target = pl_target; entry })
  in
  let packets =
    List.init 64 (fun _ ->
        let protocol = pick rng [| Config.Packet.Tcp; Config.Packet.Udp; Config.Packet.Icmp |] in
        let src = ip (pick rng [| 10; 10; 99 |]) (pick rng [| 20; 1 |]) (Random.State.int rng 256) 1 in
        let dst = ip (pick rng [| 192; 192; 8 |]) 168 (Random.State.int rng (acl_width + 2)) 9 in
        let dst_port = pick rng [| 22; 53; 443; 1000 + Random.State.int rng acl_width; 1050 |] in
        Config.Packet.make ~protocol ~src_port:(40000 + Random.State.int rng 100) ~dst_port
          ~established:(Random.State.bool rng) ~src ~dst ())
  in
  {
    btext = Config.Parser.to_string !db;
    items;
    prefix_items;
    faults = Llm.Fault_injector.schedule ~seed:(Random.State.bits rng) ~faulty_attempts;
    breference = !reference;
    broutes = sample_routes rng ~n:64 [| 10; 10; 172; 99 |];
    packets;
    prefixes = List.init 64 (fun _ -> random_prefix rng [| 10; 10; 172; 99 |]);
  }

let batches ~seed ~n =
  let rng = rng ~seed ~salt:3 in
  List.init n (fun _ -> batch_one rng)
