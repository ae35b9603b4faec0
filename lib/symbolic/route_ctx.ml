(** Symbolic BGP route space.

    Variable layout: prefix bits 0-31, prefix length 32-37, local-pref
    38-69, metric 70-101, tag 102-133, then one atom variable per
    community in the finite community universe, then one per as-path
    access-list in scope.

    {b Community abstraction.} Expanded community lists match regexes
    against a route's community set, which is unbounded. We restrict the
    modelled routes to those whose communities come from a finite
    universe [U] computed from everything in scope: all concrete
    communities appearing in standard lists, set clauses and
    specifications, plus witnesses of every expanded regex and of every
    pairwise difference of regexes, plus one community matching none of
    them. Every subset of [U] is a real community set, so all examples
    extracted from the space are sound; enriching [U] with difference
    witnesses makes the analysis complete for behavioural differences
    expressible by the regexes in scope.

    {b AS-path abstraction.} Each as-path access-list in scope becomes a
    boolean atom "this list permits the route's path". Not every atom
    valuation is realizable by a concrete path; feasibility is decided
    lazily with the symbolic regex engine (intersections of accept
    languages and their complements) and memoized, feasible ones with a
    concrete witness path used in extracted example routes; each model
    extraction steps past the infeasible valuations it meets. *)

open Symbdd

let pfx_ip = Bvec.sequential ~first:0 ~width:32
let pfx_len = Bvec.sequential ~first:32 ~width:6
let local_pref = Bvec.sequential ~first:38 ~width:32
let metric = Bvec.sequential ~first:70 ~width:32
let tag = Bvec.sequential ~first:102 ~width:32
let atom_base = 134

module Apr = Sre.As_path_regex
module R = Apr.R

type t = {
  comm_universe : Bgp.Community.t array;
  as_path_lists : Config.As_path_list.t array;
  accept_langs : R.re array; (* per as-path list: paths it permits *)
  combo_table : (bool list, int list option) Hashtbl.t;
}

let comm_var ctx c =
  let rec find i =
    if i >= Array.length ctx.comm_universe then None
    else if Bgp.Community.equal ctx.comm_universe.(i) c then
      Some (atom_base + i)
    else find (i + 1)
  in
  find 0

let as_path_atom_count ctx = Array.length ctx.as_path_lists

let as_path_var ctx (al : Config.As_path_list.t) =
  let rec find i =
    if i >= Array.length ctx.as_path_lists then None
    else if ctx.as_path_lists.(i) = al then
      Some (atom_base + Array.length ctx.comm_universe + i)
    else find (i + 1)
  in
  find 0

(* Paths on which the list's first matching entry is a permit. *)
let accept_language (al : Config.As_path_list.t) =
  let rec go earlier = function
    | [] -> R.empty
    | (e : Config.As_path_list.entry) :: rest ->
        let lang = R.inter_list (Apr.regex e.regex :: List.map R.compl earlier) in
        let tail = go (Apr.regex e.regex :: earlier) rest in
        if Config.Action.equal e.action Config.Action.Permit then
          R.alt lang tail
        else tail
  in
  go [] al.Config.As_path_list.entries

(* ------------------------------------------------------------------ *)
(* Context construction                                               *)
(* ------------------------------------------------------------------ *)

(* Everything community-related referenced by a route-map in a database. *)
let scan_route_map db (rm : Config.Route_map.t) =
  let comms = ref [] and regexes = ref [] and as_lists = ref [] in
  let scan_comm_list name =
    match Config.Database.community_list db name with
    | None -> ()
    | Some cl -> (
        match cl.Config.Community_list.body with
        | Config.Community_list.Standard entries ->
            List.iter
              (fun (e : Config.Community_list.standard_entry) ->
                comms := e.communities @ !comms)
              entries
        | Config.Community_list.Expanded entries ->
            List.iter
              (fun (e : Config.Community_list.expanded_entry) ->
                regexes := e.regex :: !regexes)
              entries)
  in
  List.iter
    (fun (s : Config.Route_map.stanza) ->
      List.iter
        (function
          | Config.Route_map.Match_community names ->
              List.iter scan_comm_list names
          | Config.Route_map.Match_as_path names ->
              List.iter
                (fun n ->
                  match Config.Database.as_path_list db n with
                  | Some al -> as_lists := al :: !as_lists
                  | None -> ())
                names
          | _ -> ())
        s.matches;
      List.iter
        (function
          | Config.Route_map.Set_community { communities; _ } ->
              comms := communities @ !comms
          | Config.Route_map.Set_comm_list_delete name -> scan_comm_list name
          | _ -> ())
        s.sets)
    rm.Config.Route_map.stanzas;
  (!comms, !regexes, !as_lists)

(* What [build_comm_universe] adds as the community matching no regex
   when there are none. The witness search costs ~60 µs, more than the
   rest of a context over a narrow map, so it runs once. *)
let any_community = Sre.Community_regex.sat_witness ~pos:[] ~neg:[]

let build_comm_universe concrete regexes =
  let u = ref (List.sort_uniq Bgp.Community.compare concrete) in
  let add = function
    | Some (a, b) ->
        let c = Bgp.Community.make a b in
        if not (List.exists (Bgp.Community.equal c) !u) then u := c :: !u
    | None -> ()
  in
  let regexes = List.sort_uniq Stdlib.compare regexes in
  (* One witness per regex, one per pairwise difference, one matching
     nothing: enough to distinguish any boolean combination in scope. *)
  List.iter (fun r -> add (Sre.Community_regex.sat_witness ~pos:[ r ] ~neg:[])) regexes;
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          if r1 != r2 then
            add (Sre.Community_regex.sat_witness ~pos:[ r1 ] ~neg:[ r2 ]))
        regexes)
    regexes;
  add
    (match regexes with
    | [] -> any_community
    | _ -> Sre.Community_regex.sat_witness ~pos:[] ~neg:regexes);
  Array.of_list (List.sort Bgp.Community.compare !u)

let create ?(extra_communities = []) ?(extra_comm_regexes = [])
    ?(extra_as_path_lists = []) (scope : (Config.Database.t * Config.Route_map.t list) list) =
  let comms = ref extra_communities
  and regexes = ref extra_comm_regexes
  and as_lists = ref extra_as_path_lists in
  List.iter
    (fun (db, route_maps) ->
      List.iter
        (fun rm ->
          let c, r, a = scan_route_map db rm in
          comms := c @ !comms;
          regexes := r @ !regexes;
          as_lists := a @ !as_lists)
        route_maps)
    scope;
  let as_path_lists =
    Array.of_list (List.sort_uniq Stdlib.compare !as_lists)
  in
  {
    comm_universe = build_comm_universe !comms !regexes;
    as_path_lists;
    accept_langs = Array.map accept_language as_path_lists;
    combo_table = Hashtbl.create 16;
  }

(* A private copy for a worker that shares the immutable universe but
   owns the feasibility memo, so concurrent workers layered on one
   compiled context never race. *)
let fork ctx =
  { ctx with combo_table = Hashtbl.copy ctx.combo_table }

(** Routes representable in this context: prefix length at most 32.
    Context-independent, so built once per manager. *)
let valid _ctx =
  Bdd.cached ~key:"route.valid" (fun () -> Bvec.le_const pfx_len 32)

(* ------------------------------------------------------------------ *)
(* Match-condition compilation                                        *)
(* ------------------------------------------------------------------ *)

(* Prefix-range and prefix-list compilations are context-independent
   (they touch only the prefix bit-vectors), so they are memoized in
   the manager's compilation cache under canonical content keys. *)
let range_key (r : Netaddr.Prefix_range.t) =
  Printf.sprintf "%d/%d:%d-%d"
    (Netaddr.Ipv4.to_int r.prefix.Netaddr.Prefix.ip)
    r.prefix.Netaddr.Prefix.len r.lo r.hi

let of_prefix_range (r : Netaddr.Prefix_range.t) =
  Bdd.cached
    ~key:("route.prefix_range;" ^ range_key r)
    (fun () ->
      Bdd.conj
        (Bvec.prefix_match pfx_ip
           ~value:(Netaddr.Ipv4.to_int r.prefix.Netaddr.Prefix.ip)
           ~len:r.prefix.Netaddr.Prefix.len)
        (Bvec.in_range pfx_len r.lo r.hi))

(* Keyed by full content (not name): two lists with equal entries share
   one compilation, and a list reused under the same name but edited
   content never sees a stale BDD. *)
let prefix_list_key (pl : Config.Prefix_list.t) =
  String.concat ";"
    ("route.prefix_list"
    :: List.map
         (fun (e : Config.Prefix_list.entry) ->
           (if Config.Action.equal e.action Config.Action.Permit then "p"
            else "d")
           ^ range_key e.range)
         pl.Config.Prefix_list.entries)

let of_prefix_list (pl : Config.Prefix_list.t) =
  Bdd.cached ~key:(prefix_list_key pl) (fun () ->
      let rec go unmatched = function
        | [] -> Bdd.zero
        | (e : Config.Prefix_list.entry) :: rest ->
            let m = of_prefix_range e.range in
            let here = Bdd.conj unmatched m in
            let tail = go (Bdd.conj unmatched (Bdd.neg m)) rest in
            if Config.Action.equal e.action Config.Action.Permit then
              Bdd.disj here tail
            else tail
      in
      go Bdd.one pl.Config.Prefix_list.entries)

(* "Route carries at least one community in the regex's language",
   relative to the universe. *)
let of_comm_regex ctx regex =
  let acc = ref Bdd.zero in
  Array.iteri
    (fun i c ->
      if Sre.Community_regex.matches regex (Bgp.Community.to_pair c) then
        acc := Bdd.disj (Bdd.var (atom_base + i)) !acc)
    ctx.comm_universe;
  !acc

let of_standard_entry ctx (e : Config.Community_list.standard_entry) =
  List.fold_left
    (fun acc c ->
      match comm_var ctx c with
      | Some v -> Bdd.conj (Bdd.var v) acc
      | None -> Bdd.zero (* community outside the universe: unmatchable *))
    Bdd.one e.communities

let of_community_list ctx (cl : Config.Community_list.t) =
  let entry_bdds =
    match cl.Config.Community_list.body with
    | Config.Community_list.Standard entries ->
        List.map
          (fun (e : Config.Community_list.standard_entry) ->
            (e.action, of_standard_entry ctx e))
          entries
    | Config.Community_list.Expanded entries ->
        List.map
          (fun (e : Config.Community_list.expanded_entry) ->
            (e.action, of_comm_regex ctx e.regex))
          entries
  in
  let rec go unmatched = function
    | [] -> Bdd.zero
    | (action, m) :: rest ->
        let here = Bdd.conj unmatched m in
        let tail = go (Bdd.conj unmatched (Bdd.neg m)) rest in
        if Config.Action.equal action Config.Action.Permit then
          Bdd.disj here tail
        else tail
  in
  go Bdd.one entry_bdds

let of_as_path_list ctx (al : Config.As_path_list.t) =
  match as_path_var ctx al with
  | Some v -> Bdd.var v
  | None ->
      invalid_arg
        (Printf.sprintf
           "Route_ctx: as-path list %s was not in scope when the context was \
            built"
           al.Config.As_path_list.name)

let of_match_clause ctx db = function
  | Config.Route_map.Match_prefix_list names ->
      Bdd.disj_list
        (List.map
           (fun n ->
             match Config.Database.prefix_list db n with
             | Some pl -> of_prefix_list pl
             | None -> Bdd.zero)
           names)
  | Config.Route_map.Match_community names ->
      Bdd.disj_list
        (List.map
           (fun n ->
             match Config.Database.community_list db n with
             | Some cl -> of_community_list ctx cl
             | None -> Bdd.zero)
           names)
  | Config.Route_map.Match_as_path names ->
      Bdd.disj_list
        (List.map
           (fun n ->
             match Config.Database.as_path_list db n with
             | Some al -> of_as_path_list ctx al
             | None -> Bdd.zero)
           names)
  | Config.Route_map.Match_local_pref n -> Bvec.eq_const local_pref n
  | Config.Route_map.Match_metric n -> Bvec.eq_const metric n
  | Config.Route_map.Match_tag tags ->
      Bdd.disj_list (List.map (Bvec.eq_const tag) tags)

let of_stanza ctx db (s : Config.Route_map.stanza) =
  Bdd.conj_list (List.map (of_match_clause ctx db) s.matches)

(* ------------------------------------------------------------------ *)
(* Symbolic execution of a route-map                                  *)
(* ------------------------------------------------------------------ *)

type cell = {
  guard : Bdd.t;
  action : Config.Action.t;
  sets : Config.Route_map.set_clause list;
  stanza_seq : int option; (* [None] for the implicit trailing deny *)
}

(* Over-approximations of a stanza's match region, one per prefix-list
   clause: the permit ranges of every list the clause names. Deny
   entries only remove routes and an undefined list matches none. *)
let prefix_covers db (s : Config.Route_map.stanza) =
  List.filter_map
    (function
      | Config.Route_map.Match_prefix_list names ->
          Some
            (List.concat_map
               (fun name ->
                 match Config.Database.prefix_list db name with
                 | None -> []
                 | Some pl ->
                     List.filter_map
                       (fun (e : Config.Prefix_list.entry) ->
                         if Config.Action.equal e.action Config.Action.Permit
                         then Some e.range
                         else None)
                       pl.Config.Prefix_list.entries)
               names)
      | _ -> None)
    s.matches

(* No route matches both stanzas: some prefix-list clause of one admits
   no prefix that some prefix-list clause of the other admits. A range
   pair's regions intersect exactly when the ranges overlap, so this
   never holds of stanzas that share a route. *)
let apart covers_a covers_b =
  List.exists
    (fun ra ->
      List.exists
        (fun rb ->
          not
            (List.exists
               (fun r -> List.exists (Netaddr.Prefix_range.overlap r) rb)
               ra))
        covers_b)
    covers_a

(** Ordered first-match partition of the route space; guards are
    pairwise disjoint and cover everything, the last cell being the
    implicit deny. With [candidates], the partition of their match
    region only: the fall-through starts there, so each guard is the
    full partition's guard conjoined with it. A stanza apart from every
    candidate, or reached by nothing, gets an empty guard without being
    compiled. *)
let exec ?candidates ctx db (rm : Config.Route_map.t) =
  let start, may_meet =
    match candidates with
    | None -> (Bdd.one, fun _ -> true)
    | Some cands ->
        let covers = List.map (prefix_covers db) cands in
        ( Bdd.disj_list (List.map (of_stanza ctx db) cands),
          fun s ->
            let c = prefix_covers db s in
            not (List.for_all (apart c) covers) )
  in
  let rec go unmatched = function
    | [] ->
        [
          {
            guard = unmatched;
            action = Config.Action.Deny;
            sets = [];
            stanza_seq = None;
          };
        ]
    | (s : Config.Route_map.stanza) :: rest ->
        let cell guard =
          { guard; action = s.action; sets = s.sets; stanza_seq = Some s.seq }
        in
        if Bdd.is_zero unmatched || not (may_meet s) then
          cell Bdd.zero :: go unmatched rest
        else
          let m = of_stanza ctx db s in
          cell (Bdd.conj unmatched m) :: go (Bdd.conj unmatched (Bdd.neg m)) rest
  in
  go start rm.Config.Route_map.stanzas

(** Routes the map accepts (any permit stanza). *)
let accepted ctx db rm =
  Bdd.disj_list
    (List.filter_map
       (fun c ->
         if Config.Action.equal c.action Config.Action.Permit then Some c.guard
         else None)
       (exec ctx db rm))

(* ------------------------------------------------------------------ *)
(* Model extraction                                                   *)
(* ------------------------------------------------------------------ *)

(* Witness path for a full as-path atom valuation, or None if
   infeasible; memoized. *)
let combo_witness ctx combo =
  match Hashtbl.find_opt ctx.combo_table combo with
  | Some w -> w
  | None ->
      let lang =
        R.inter_list
          (List.mapi
             (fun i b ->
               if b then ctx.accept_langs.(i) else R.compl ctx.accept_langs.(i))
             combo)
      in
      let w = R.shortest_witness lang in
      Hashtbl.add ctx.combo_table combo w;
      w

(* All completions of a partial atom valuation, most-significant first. *)
let rec completions = function
  | [] -> [ [] ]
  | Some b :: rest -> List.map (fun c -> b :: c) (completions rest)
  | None :: rest ->
      let cs = completions rest in
      List.map (fun c -> false :: c) cs @ List.map (fun c -> true :: c) cs

(* The witness path of a feasible as-path valuation extending the
   assignment, if there is one. *)
let feasible_path ctx vals =
  let base = atom_base + Array.length ctx.comm_universe in
  let partial =
    List.init (as_path_atom_count ctx) (fun i -> Bvec.value vals (base + i))
  in
  List.find_map (combo_witness ctx) (completions partial)

(* The cube of the atoms a valuation assigns. *)
let atom_cube ctx vals =
  let base = atom_base + Array.length ctx.comm_universe in
  Bdd.conj_list
    (List.filter_map
       (fun i ->
         match Bvec.value vals (base + i) with
         | Some true -> Some (Bdd.var (base + i))
         | Some false -> Some (Bdd.nvar (base + i))
         | None -> None)
       (List.init (as_path_atom_count ctx) Fun.id))

(* Bias unconstrained attributes toward BGP defaults (local-pref 100,
   metric/tag 0) so extracted examples look like real advertisements.
   The cubes are built once per manager. Most regions admit all three
   defaults at once, and then one conjunction with their conjunction
   gives what conjoining them one by one would. *)
let prefer_defaults b =
  let default key bv n = Bdd.cached ~key (fun () -> Bvec.eq_const bv n) in
  let cubes () =
    [
      default "route.default.local_pref" local_pref 100;
      default "route.default.metric" metric 0;
      default "route.default.tag" tag 0;
    ]
  in
  let all =
    Bdd.conj b (Bdd.cached ~key:"route.defaults" (fun () -> Bdd.conj_list (cubes ())))
  in
  if Bdd.is_sat all then all
  else
    List.fold_left
      (fun b c ->
        let b' = Bdd.conj b c in
        if Bdd.is_sat b' then b' else b)
      b (cubes ())

(** Extract a concrete route from a region of the space, or [None] if
    the region is empty (after removing infeasible as-path valuations).
    A valuation with no feasible completion is stepped past for this
    call only, so the route is a function of the region alone, whatever
    was extracted from the context before. *)
let to_route ctx bdd =
  let rec go b =
    if Bdd.is_zero b then None
    else
      (* Every field and atom is read from one indexing of the path. *)
      let a = Bvec.valuation (Bdd.any_sat (prefer_defaults b)) in
      match feasible_path ctx a with
      | None -> go (Bdd.conj b (Bdd.neg (atom_cube ctx a)))
      | Some path ->
          let len = Bvec.read pfx_len a in
          let ip = Netaddr.Ipv4.of_int (Bvec.read pfx_ip a) in
          let communities =
            List.filteri
              (fun i _ ->
                Option.value ~default:false (Bvec.value a (atom_base + i)))
              (Array.to_list ctx.comm_universe)
          in
          Some
            (Bgp.Route.make
               ~as_path:path ~communities
               ~local_pref:(Bvec.read local_pref a)
               ~metric:(Bvec.read metric a) ~tag:(Bvec.read tag a)
               (Netaddr.Prefix.make ip len))
  in
  go (Bdd.conj bdd (valid ctx))

(** Satisfiability of a region under the feasibility constraints,
    i.e. "does a real route live here". *)
let is_sat ctx bdd = to_route ctx bdd <> None

(* ------------------------------------------------------------------ *)
(* Concrete-route encoding                                            *)
(* ------------------------------------------------------------------ *)

(** The BDD environment describing a concrete route, for evaluating
    region membership with {!Symbdd.Bdd.eval}. Sound for any route whose
    communities all lie in the context universe; communities outside the
    universe are not representable (their membership reads as false). *)
let route_env ctx (r : Bgp.Route.t) =
  let bit_of bv value v =
    (* Position of [v] within the bit-vector, MSB first. *)
    let vars = Bvec.vars bv in
    let rec idx i = function
      | [] -> None
      | x :: rest -> if x = v then Some i else idx (i + 1) rest
    in
    Option.map
      (fun i -> value land (1 lsl (List.length vars - 1 - i)) <> 0)
      (idx 0 vars)
  in
  fun v ->
    let try_fields =
      List.find_map Fun.id
        [
          bit_of pfx_ip (Netaddr.Ipv4.to_int r.prefix.Netaddr.Prefix.ip) v;
          bit_of pfx_len r.prefix.Netaddr.Prefix.len v;
          bit_of local_pref r.local_pref v;
          bit_of metric r.metric v;
          bit_of tag r.tag v;
        ]
    in
    match try_fields with
    | Some b -> b
    | None ->
        let ncomm = Array.length ctx.comm_universe in
        if v >= atom_base && v < atom_base + ncomm then
          List.exists
            (Bgp.Community.equal ctx.comm_universe.(v - atom_base))
            r.communities
        else if
          v >= atom_base + ncomm
          && v < atom_base + ncomm + Array.length ctx.as_path_lists
        then
          Config.As_path_list.matches
            ctx.as_path_lists.(v - atom_base - ncomm)
            r.as_path
        else false

(** All of a route's communities lie in the context universe. *)
let representable ctx (r : Bgp.Route.t) =
  List.for_all
    (fun c ->
      Array.exists (Bgp.Community.equal c) ctx.comm_universe)
    r.communities
