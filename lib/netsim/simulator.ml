(** Synchronous BGP propagation to fixpoint: eBGP between ASes, iBGP
    full-mesh semantics within an AS.

    Each round every router advertises, for every prefix, its current
    best route to each neighbor through its export chain (prepending its
    ASN and rewriting the next hop); receivers run their import chain,
    drop loops, and re-select best paths. Rounds repeat until no RIB
    changes. Decision order: highest weight, highest local preference,
    shortest AS path, lowest origin (IGP < EGP < incomplete), lowest
    MED, lowest sender address. *)

type rib_entry = {
  route : Bgp.Route.t;
  learned_from : string option; (* None = locally originated *)
}

module Smap = Map.Make (String)
module Pmap = Map.Make (struct
  type t = Netaddr.Prefix.t

  let compare = Netaddr.Prefix.compare
end)

type state = {
  topology : Topology.t;
  ribs : rib_entry Pmap.t Smap.t; (* router -> prefix -> best *)
  rounds : int; (* rounds to convergence *)
  converged : bool;
}

let origin_rank = function
  | Bgp.Route.Igp -> 0
  | Bgp.Route.Egp -> 1
  | Bgp.Route.Incomplete -> 2

(* true when [a] is strictly preferred over [b]. *)
let better (a : rib_entry) (b : rib_entry) =
  let ra = a.route and rb = b.route in
  let cmp =
    List.find_opt
      (fun c -> c <> 0)
      [
        Int.compare rb.weight ra.weight;
        Int.compare rb.local_pref ra.local_pref;
        Int.compare (List.length ra.as_path) (List.length rb.as_path);
        Int.compare (origin_rank ra.origin) (origin_rank rb.origin);
        Int.compare ra.metric rb.metric;
        compare a.learned_from b.learned_from;
      ]
  in
  match cmp with Some c -> c < 0 | None -> false

let best_of candidates =
  List.fold_left
    (fun acc c ->
      match acc with
      | None -> Some c
      | Some b -> if better c b then Some c else Some b)
    None candidates

let initial_rib (r : Topology.router) =
  List.fold_left
    (fun acc p ->
      let route =
        Bgp.Route.make ~as_path:[] ~local_pref:100 ~next_hop:r.router_ip p
      in
      Pmap.add p { route; learned_from = None } acc)
    Pmap.empty r.originated

(* Advertise [entry] from [sender] to [receiver]: export chain, AS
   prepend, next-hop rewrite, then the receiver's import chain.

   A session between routers of the same ASN is iBGP: the AS path is
   not prepended, local preference is propagated, and (enforced by the
   caller) routes learned from an iBGP peer are not re-advertised to
   other iBGP peers — the classic full-mesh requirement. *)
let offer ~(sender : Topology.router) ~(receiver : Topology.router)
    ~(out : Topology.neighbor) entry =
  let ibgp = sender.Topology.asn = receiver.Topology.asn in
  let export_chain =
    List.filter_map (Config.Database.route_map sender.config) out.export
  in
  match
    Config.Semantics.eval_chain sender.config export_chain entry.route
  with
  | Config.Semantics.Reject -> None
  | Config.Semantics.Accept r -> (
      let sent =
        if ibgp then
          { r with Bgp.Route.next_hop = sender.router_ip; weight = 0 }
        else
          {
            (Bgp.Route.prepend_as_path r [ sender.asn ]) with
            Bgp.Route.next_hop = sender.router_ip;
            (* local pref and weight are not transitive across eBGP *)
            local_pref = 100;
            weight = 0;
          }
      in
      (* Loop prevention: receiver drops routes carrying its own ASN. *)
      if List.mem receiver.asn sent.Bgp.Route.as_path then None
      else
        let back =
          List.find_opt
            (fun (nb : Topology.neighbor) -> nb.peer = sender.name)
            receiver.neighbors
        in
        match back with
        | None -> None
        | Some inb -> (
            let import_chain =
              List.filter_map
                (Config.Database.route_map receiver.config)
                inb.import
            in
            match
              Config.Semantics.eval_chain receiver.config import_chain sent
            with
            | Config.Semantics.Reject -> None
            | Config.Semantics.Accept accepted ->
                Some { route = accepted; learned_from = Some sender.name }))

let default_max_rounds = 64

let run ?(max_rounds = default_max_rounds) (t : Topology.t) =
  (* Every session's receiver and every learned-from router are looked
     up each round, so index the routers by name once. *)
  let by_name = Hashtbl.create (List.length t.routers) in
  List.iter
    (fun (r : Topology.router) ->
      if not (Hashtbl.mem by_name r.name) then Hashtbl.add by_name r.name r)
    t.routers;
  let find name =
    match Hashtbl.find_opt by_name name with
    | Some r -> r
    | None -> raise (Topology.Invalid_topology ("no router named " ^ name))
  in
  let ribs =
    ref
      (List.fold_left
         (fun acc r -> Smap.add r.Topology.name (initial_rib r) acc)
         Smap.empty t.routers)
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    let snapshot = !ribs in
    (* Collect every offer against the previous round's snapshot. *)
    let inbox : (string, rib_entry list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (sender : Topology.router) ->
        let rib = Smap.find sender.name snapshot in
        List.iter
          (fun (out : Topology.neighbor) ->
            let receiver = find out.peer in
            let learned_via_ibgp entry =
              match entry.learned_from with
              | None -> false
              | Some l -> (find l).Topology.asn = sender.Topology.asn
            in
            Pmap.iter
              (fun _ entry ->
                (* Split horizon: never back to the router we learned
                   from. Full-mesh rule: iBGP-learned routes are not
                   re-advertised to iBGP peers. *)
                if
                  entry.learned_from <> Some receiver.Topology.name
                  && not
                       (learned_via_ibgp entry
                       && sender.Topology.asn = receiver.Topology.asn)
                then
                  match offer ~sender ~receiver ~out entry with
                  | Some e ->
                      Hashtbl.replace inbox receiver.Topology.name
                        (e
                        ::
                        (match Hashtbl.find_opt inbox receiver.Topology.name with
                        | Some l -> l
                        | None -> []))
                  | None -> ())
              rib)
          sender.neighbors)
      t.routers;
    (* Rebuild each RIB: originated routes plus best of the offers. *)
    let next =
      List.fold_left
        (fun acc (r : Topology.router) ->
          let offers =
            match Hashtbl.find_opt inbox r.name with
            | Some l -> l
            | None -> []
          in
          let by_prefix =
            List.fold_left
              (fun m (e : rib_entry) ->
                let p = e.route.Bgp.Route.prefix in
                Pmap.update p
                  (function None -> Some [ e ] | Some l -> Some (e :: l))
                  m)
              Pmap.empty offers
          in
          let rib =
            Pmap.fold
              (fun p candidates acc ->
                match Pmap.find_opt p acc with
                | Some { learned_from = None; _ } ->
                    acc (* originated routes always win locally *)
                | _ -> (
                    match best_of candidates with
                    | Some b -> Pmap.add p b acc
                    | None -> acc))
              by_prefix (initial_rib r)
          in
          acc |> Smap.add r.name rib)
        Smap.empty t.routers
    in
    if not (Smap.equal (Pmap.equal ( = )) next snapshot) then changed := true;
    ribs := next
  done;
  { topology = t; ribs = !ribs; rounds = !rounds; converged = not !changed }

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let rib state router =
  match Smap.find_opt router state.ribs with
  | Some r -> Pmap.bindings r
  | None -> raise (Topology.Invalid_topology ("no router named " ^ router))

let lookup state ~router ~prefix =
  Option.bind (Smap.find_opt router state.ribs) (Pmap.find_opt prefix)

(** Does [router] have any route covering [prefix] (exact entry)? *)
let reaches state ~router ~prefix = lookup state ~router ~prefix <> None

