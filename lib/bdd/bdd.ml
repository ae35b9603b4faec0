(* Hash-consed ROBDDs over an int-packed node store.

   A BDD value is an [int] handle: 0 is the constant false, 1 the
   constant true, and handles >= 2 name interior nodes owned by some
   manager. Two backends implement the store:

   - The default {e arena} backend packs each node as a (var, lo, hi)
     triple of ints in a flat growable [Bigarray.Array1], hash-conses
     through an open-addressing unique table (linear probing over a
     packed [int array], no allocation on the probe path) and memoizes
     the binary operators in open-addressing tables with
     generation-tagged eviction, so long runs stop growing memos
     without a full [reset].

   - The {e boxed} oracle backend (CLARIFY_BOXED_BDD=1, or
     [Manager.create ~boxed:true]) keeps the historical representation:
     boxed [Node] records hash-consed through polymorphic [Hashtbl]s,
     including the original triple-negation [disj] detour. Because both
     backends build canonical ROBDDs, every derived result
     (satisfying assignments, counts, pipeline outputs) is identical;
     CI diffs golden outputs across the two stores.

   Managers can be {e frozen} into read-only bases: a frozen manager
   refuses fresh allocations, and [Manager.create_delta] layers a
   private writable manager on top whose lookups fall through
   base -> delta. Worker domains share one compiled base (corpus,
   partition, prefix encodings) and allocate only in their own deltas,
   which eliminates per-domain recompilation in parallel sweeps.
   [Manager.frozen_during] freezes a live manager for one scope only,
   and bumps its freeze epoch so that deltas built over one freeze are
   never mistaken for deltas of the next. *)

type t = int

let zero = 0
let one = 1

(* ------------------------------------------------------------------ *)
(* Open-addressing operation memos with generation-tagged eviction     *)
(* ------------------------------------------------------------------ *)

(* Fixed-size-entry memo: key = two ints, value = one int, stored in
   parallel packed arrays. A slot is live iff its generation tag equals
   the table's current generation, so [clear] (and wholesale eviction
   when a bounded table fills up) is a single counter bump — no
   clearing pass, no allocation. Within one generation the standard
   linear-probing invariant holds (the probe chain from a key's home
   slot to its entry contains only live slots), so lookups can stop at
   the first stale slot. Losing memo entries is correctness-neutral:
   the tables only cache deterministic recomputations. *)
module Memo = struct
  type t = {
    mutable keys : int array; (* 2 ints per slot *)
    mutable vals : int array;
    mutable gens : int array; (* slot live iff gens.(i) = gen *)
    mutable mask : int; (* capacity - 1, capacity a power of two *)
    mutable count : int; (* live entries in the current generation *)
    mutable gen : int;
    max_cap : int; (* growth ceiling; beyond it, evict by generation *)
    mutable evictions : int;
  }

  let pow2_ge n =
    let rec go c = if c >= n then c else go (c * 2) in
    go 16

  let create ~bound =
    let max_cap = pow2_ge bound in
    let cap = min 256 max_cap in
    {
      keys = Array.make (2 * cap) 0;
      vals = Array.make cap 0;
      gens = Array.make cap 0;
      mask = cap - 1;
      count = 0;
      gen = 1;
      max_cap;
      evictions = 0;
    }

  let[@inline] hash2 k1 k2 =
    let h = (k1 * 0x9E3779B1) lxor (k2 * 0x85EBCA77) in
    h lxor (h lsr 16)

  let rec find_loop m k1 k2 i =
    if Array.unsafe_get m.gens i <> m.gen then -1
    else if
      Array.unsafe_get m.keys (2 * i) = k1
      && Array.unsafe_get m.keys ((2 * i) + 1) = k2
    then Array.unsafe_get m.vals i
    else find_loop m k1 k2 ((i + 1) land m.mask)

  (* Returns the memoized handle, or -1 on a miss. *)
  let[@inline] find m k1 k2 = find_loop m k1 k2 (hash2 k1 k2 land m.mask)

  let rec insert_loop m k1 k2 v i =
    if Array.unsafe_get m.gens i <> m.gen then begin
      Array.unsafe_set m.keys (2 * i) k1;
      Array.unsafe_set m.keys ((2 * i) + 1) k2;
      Array.unsafe_set m.vals i v;
      Array.unsafe_set m.gens i m.gen;
      m.count <- m.count + 1
    end
    else if
      Array.unsafe_get m.keys (2 * i) = k1
      && Array.unsafe_get m.keys ((2 * i) + 1) = k2
    then ()
    else insert_loop m k1 k2 v ((i + 1) land m.mask)

  let grow m =
    let ocap = m.mask + 1 in
    let okeys = m.keys and ovals = m.vals and ogens = m.gens in
    let ogen = m.gen in
    let ncap = ocap * 2 in
    m.keys <- Array.make (2 * ncap) 0;
    m.vals <- Array.make ncap 0;
    m.gens <- Array.make ncap 0;
    m.mask <- ncap - 1;
    m.gen <- 1;
    m.count <- 0;
    for i = 0 to ocap - 1 do
      if Array.unsafe_get ogens i = ogen then begin
        let k1 = okeys.(2 * i) and k2 = okeys.((2 * i) + 1) in
        insert_loop m k1 k2 ovals.(i) (hash2 k1 k2 land m.mask)
      end
    done

  let add m k1 k2 v =
    let cap = m.mask + 1 in
    (* Keep the load factor under 3/4: grow while allowed, otherwise
       evict the whole generation in O(1). *)
    if m.count >= cap - (cap lsr 2) then
      if cap < m.max_cap then grow m
      else begin
        m.gen <- m.gen + 1;
        m.count <- 0;
        m.evictions <- m.evictions + 1
      end;
    insert_loop m k1 k2 v (hash2 k1 k2 land m.mask)

  let clear m =
    m.gen <- m.gen + 1;
    m.count <- 0
end

(* ------------------------------------------------------------------ *)
(* Arena backend: int-packed nodes, open-addressing unique table       *)
(* ------------------------------------------------------------------ *)

module Arena = struct
  type store = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let make_store cap : store =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (3 * cap)

  let empty_store : store = make_store 0

  type t = {
    start : int; (* first own handle; base handles are < start *)
    mutable store : store; (* own triples at (h - start) * 3 *)
    mutable cap : int; (* own node capacity *)
    mutable next : int; (* next fresh handle *)
    (* Frozen base arena, flattened to avoid an option deref per node
       access. Root arenas use an empty base with base_limit = 2, so
       the base branch is never taken. *)
    base_store : store;
    base_start : int;
    base_limit : int; (* handles in [2, base_limit) live in the base *)
    base_uniq : int array;
    base_umask : int;
    (* Own unique table: open addressing, slot holds a handle, 0 means
       empty (0 is the terminal false, never an interior node). *)
    mutable uniq : int array;
    mutable umask : int;
    mutable ucount : int;
    mutable probes : int; (* slots inspected across unique lookups *)
    mutable lookups : int;
    neg_memo : Memo.t;
    and_memo : Memo.t;
    or_memo : Memo.t;
    xor_memo : Memo.t;
    restrict_memo : Memo.t;
    mutable frozen : bool;
    mutable alloc_hook : (unit -> unit) option;
  }

  let create ~memo_bound () =
    {
      start = 2;
      store = make_store 4096;
      cap = 4096;
      next = 2;
      base_store = empty_store;
      base_start = 2;
      base_limit = 2;
      base_uniq = [||];
      base_umask = 0;
      uniq = Array.make 8192 0;
      umask = 8191;
      ucount = 0;
      probes = 0;
      lookups = 0;
      neg_memo = Memo.create ~bound:memo_bound;
      and_memo = Memo.create ~bound:memo_bound;
      or_memo = Memo.create ~bound:memo_bound;
      xor_memo = Memo.create ~bound:memo_bound;
      restrict_memo = Memo.create ~bound:memo_bound;
      frozen = false;
      alloc_hook = None;
    }

  (* A delta shares the base's store and unique table by reference;
     both are immutable once the base is frozen, so concurrent deltas
     in different domains read them without synchronization. *)
  let create_delta ~memo_bound (b : t) =
    {
      start = b.next;
      store = make_store 1024;
      cap = 1024;
      next = b.next;
      base_store = b.store;
      base_start = b.start;
      base_limit = b.next;
      base_uniq = b.uniq;
      base_umask = b.umask;
      uniq = Array.make 2048 0;
      umask = 2047;
      ucount = 0;
      probes = 0;
      lookups = 0;
      neg_memo = Memo.create ~bound:memo_bound;
      and_memo = Memo.create ~bound:memo_bound;
      or_memo = Memo.create ~bound:memo_bound;
      xor_memo = Memo.create ~bound:memo_bound;
      restrict_memo = Memo.create ~bound:memo_bound;
      frozen = false;
      alloc_hook = None;
    }

  let[@inline] node_v a h =
    if h >= a.start then Bigarray.Array1.unsafe_get a.store (3 * (h - a.start))
    else Bigarray.Array1.unsafe_get a.base_store (3 * (h - a.base_start))

  let[@inline] node_lo a h =
    if h >= a.start then
      Bigarray.Array1.unsafe_get a.store ((3 * (h - a.start)) + 1)
    else Bigarray.Array1.unsafe_get a.base_store ((3 * (h - a.base_start)) + 1)

  let[@inline] node_hi a h =
    if h >= a.start then
      Bigarray.Array1.unsafe_get a.store ((3 * (h - a.start)) + 2)
    else Bigarray.Array1.unsafe_get a.base_store ((3 * (h - a.base_start)) + 2)

  let[@inline] level a h = if h <= 1 then max_int else node_v a h

  let[@inline] hash3 v lo hi =
    let h = (v * 0x65CC5C97) lxor (lo * 0x9E3779B1) lxor (hi * 0x85EBCA77) in
    h lxor (h lsr 16)

  let rec probe_base a v lo hi i =
    let h = Array.unsafe_get a.base_uniq i in
    if h = 0 then -1
    else if node_v a h = v && node_lo a h = lo && node_hi a h = hi then h
    else probe_base a v lo hi ((i + 1) land a.base_umask)

  (* Returns the found handle, or [lnot slot] (< 0) for the empty slot
     where the node should be inserted. *)
  let rec probe_own a v lo hi i steps =
    let h = Array.unsafe_get a.uniq i in
    if h = 0 then begin
      a.probes <- a.probes + steps;
      lnot i
    end
    else if node_v a h = v && node_lo a h = lo && node_hi a h = hi then begin
      a.probes <- a.probes + steps;
      h
    end
    else probe_own a v lo hi ((i + 1) land a.umask) (steps + 1)

  let rehash_own a =
    let ncap = (a.umask + 1) * 2 in
    let nu = Array.make ncap 0 in
    let nmask = ncap - 1 in
    for h = a.start to a.next - 1 do
      let v = node_v a h and lo = node_lo a h and hi = node_hi a h in
      let rec place i =
        if Array.unsafe_get nu i = 0 then Array.unsafe_set nu i h
        else place ((i + 1) land nmask)
      in
      place (hash3 v lo hi land nmask)
    done;
    a.uniq <- nu;
    a.umask <- nmask

  let grow_store a =
    let ncap = a.cap * 2 in
    let ns = make_store ncap in
    let used = 3 * (a.next - a.start) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub a.store 0 used)
      (Bigarray.Array1.sub ns 0 used);
    a.store <- ns;
    a.cap <- ncap

  let mk a v lo hi =
    if lo = hi then lo
    else begin
      a.lookups <- a.lookups + 1;
      let hsh = hash3 v lo hi in
      (* A node whose children both live in the base can itself live in
         the base; probe there first so deltas reuse shared structure
         instead of duplicating it. *)
      let based =
        if a.base_limit > 2 && lo < a.base_limit && hi < a.base_limit then
          probe_base a v lo hi (hsh land a.base_umask)
        else -1
      in
      if based >= 0 then based
      else
        let r = probe_own a v lo hi (hsh land a.umask) 1 in
        if r >= 0 then r
        else begin
          if a.frozen then
            invalid_arg "Bdd: node allocation in a frozen manager";
          let slot = lnot r in
          let h = a.next in
          if h - a.start >= a.cap then grow_store a;
          let off = 3 * (h - a.start) in
          Bigarray.Array1.unsafe_set a.store off v;
          Bigarray.Array1.unsafe_set a.store (off + 1) lo;
          Bigarray.Array1.unsafe_set a.store (off + 2) hi;
          Array.unsafe_set a.uniq slot h;
          a.next <- h + 1;
          a.ucount <- a.ucount + 1;
          (match a.alloc_hook with None -> () | Some f -> f ());
          let cap = a.umask + 1 in
          if a.ucount >= cap - (cap lsr 2) then rehash_own a;
          h
        end
    end

  let rec neg a t =
    if t <= 1 then 1 - t
    else
      let r = Memo.find a.neg_memo t 0 in
      if r >= 0 then r
      else begin
        let v = node_v a t in
        let lo = neg a (node_lo a t) in
        let hi = neg a (node_hi a t) in
        let r = mk a v lo hi in
        Memo.add a.neg_memo t 0 r;
        r
      end

  let rec conj a x y =
    if x = y then x
    else if x = 0 || y = 0 then 0
    else if x = 1 then y
    else if y = 1 then x
    else begin
      let k1 = if x < y then x else y in
      let k2 = if x < y then y else x in
      let r = Memo.find a.and_memo k1 k2 in
      if r >= 0 then r
      else begin
        let vx = node_v a x and vy = node_v a y in
        let v = if vx < vy then vx else vy in
        let xlo = if vx = v then node_lo a x else x in
        let xhi = if vx = v then node_hi a x else x in
        let ylo = if vy = v then node_lo a y else y in
        let yhi = if vy = v then node_hi a y else y in
        let lo = conj a xlo ylo in
        let hi = conj a xhi yhi in
        let r = mk a v lo hi in
        Memo.add a.and_memo k1 k2 r;
        r
      end
    end

  (* Direct disjunction with its own memo — no triple-negation detour,
     no transient complement nodes. *)
  let rec disj a x y =
    if x = y then x
    else if x = 1 || y = 1 then 1
    else if x = 0 then y
    else if y = 0 then x
    else begin
      let k1 = if x < y then x else y in
      let k2 = if x < y then y else x in
      let r = Memo.find a.or_memo k1 k2 in
      if r >= 0 then r
      else begin
        let vx = node_v a x and vy = node_v a y in
        let v = if vx < vy then vx else vy in
        let xlo = if vx = v then node_lo a x else x in
        let xhi = if vx = v then node_hi a x else x in
        let ylo = if vy = v then node_lo a y else y in
        let yhi = if vy = v then node_hi a y else y in
        let lo = disj a xlo ylo in
        let hi = disj a xhi yhi in
        let r = mk a v lo hi in
        Memo.add a.or_memo k1 k2 r;
        r
      end
    end

  let rec xor a x y =
    if x = y then 0
    else if x = 0 then y
    else if y = 0 then x
    else if x = 1 then neg a y
    else if y = 1 then neg a x
    else begin
      let k1 = if x < y then x else y in
      let k2 = if x < y then y else x in
      let r = Memo.find a.xor_memo k1 k2 in
      if r >= 0 then r
      else begin
        let vx = node_v a x and vy = node_v a y in
        let v = if vx < vy then vx else vy in
        let xlo = if vx = v then node_lo a x else x in
        let xhi = if vx = v then node_hi a x else x in
        let ylo = if vy = v then node_lo a y else y in
        let yhi = if vy = v then node_hi a y else y in
        let lo = xor a xlo ylo in
        let hi = xor a xhi yhi in
        let r = mk a v lo hi in
        Memo.add a.xor_memo k1 k2 r;
        r
      end
    end

  let rec restrict a v b t =
    if t <= 1 then t
    else
      let tv = node_v a t in
      if tv > v then t
      else if tv = v then (if b then node_hi a t else node_lo a t)
      else
        let k2 = (v * 2) + Bool.to_int b in
        let r = Memo.find a.restrict_memo t k2 in
        if r >= 0 then r
        else begin
          let lo = restrict a v b (node_lo a t) in
          let hi = restrict a v b (node_hi a t) in
          let r = mk a tv lo hi in
          Memo.add a.restrict_memo t k2 r;
          r
        end

  let clear_caches a =
    Memo.clear a.neg_memo;
    Memo.clear a.and_memo;
    Memo.clear a.or_memo;
    Memo.clear a.xor_memo;
    Memo.clear a.restrict_memo

  (* Reset drops own nodes only: a delta rewinds to its base boundary
     and the base (shared, frozen) is untouched. *)
  let reset a =
    a.next <- a.start;
    a.ucount <- 0;
    Array.fill a.uniq 0 (Array.length a.uniq) 0;
    clear_caches a
end

(* ------------------------------------------------------------------ *)
(* Boxed oracle backend: the historical node store, kept byte-equal    *)
(* ------------------------------------------------------------------ *)

module Boxed = struct
  type node = Zero | One | Node of { v : int; lo : node; hi : node; id : int }

  let nid = function Zero -> 0 | One -> 1 | Node n -> n.id
  let level = function Zero | One -> max_int | Node n -> n.v

  type t = {
    unique : (int * int * int, node) Hashtbl.t;
    by_id : (int, node) Hashtbl.t; (* handle -> node decode table *)
    start_id : int;
    mutable next_id : int;
    neg_memo : (int, node) Hashtbl.t;
    and_memo : (int * int, node) Hashtbl.t;
    xor_memo : (int * int, node) Hashtbl.t;
    restrict_memo : (int * int * bool, node) Hashtbl.t;
    base : t option;
    mutable frozen : bool;
    mutable alloc_hook : (unit -> unit) option;
  }

  let create () =
    {
      unique = Hashtbl.create 65536;
      by_id = Hashtbl.create 65536;
      start_id = 2;
      next_id = 2;
      neg_memo = Hashtbl.create 4096;
      and_memo = Hashtbl.create 65536;
      xor_memo = Hashtbl.create 4096;
      restrict_memo = Hashtbl.create 4096;
      base = None;
      frozen = false;
      alloc_hook = None;
    }

  let create_delta (b : t) =
    {
      unique = Hashtbl.create 1024;
      by_id = Hashtbl.create 1024;
      start_id = b.next_id;
      next_id = b.next_id;
      neg_memo = Hashtbl.create 1024;
      and_memo = Hashtbl.create 1024;
      xor_memo = Hashtbl.create 1024;
      restrict_memo = Hashtbl.create 1024;
      base = Some b;
      frozen = false;
      alloc_hook = None;
    }

  let decode m h =
    if h = 0 then Zero
    else if h = 1 then One
    else if h < m.start_id then
      match m.base with
      | Some b -> Hashtbl.find b.by_id h
      | None -> invalid_arg "Bdd: unknown node handle"
    else Hashtbl.find m.by_id h

  let mk m v lo hi =
    if lo == hi then lo
    else
      let key = (v, nid lo, nid hi) in
      let based =
        match m.base with
        | Some b -> Hashtbl.find_opt b.unique key
        | None -> None
      in
      match based with
      | Some n -> n
      | None -> (
          match Hashtbl.find_opt m.unique key with
          | Some n -> n
          | None ->
              if m.frozen then
                invalid_arg "Bdd: node allocation in a frozen manager";
              let n = Node { v; lo; hi; id = m.next_id } in
              Hashtbl.add m.by_id m.next_id n;
              m.next_id <- m.next_id + 1;
              Hashtbl.add m.unique key n;
              (match m.alloc_hook with None -> () | Some f -> f ());
              n)

  let rec neg_m m t =
    match t with
    | Zero -> One
    | One -> Zero
    | Node { v; lo; hi; id } -> (
        match Hashtbl.find_opt m.neg_memo id with
        | Some r -> r
        | None ->
            let r = mk m v (neg_m m lo) (neg_m m hi) in
            Hashtbl.add m.neg_memo id r;
            r)

  let branches t v =
    match t with Node n when n.v = v -> (n.lo, n.hi) | _ -> (t, t)

  let rec conj_m m a b =
    match (a, b) with
    | Zero, _ | _, Zero -> Zero
    | One, t | t, One -> t
    | _ when a == b -> a
    | _ -> (
        let ia = nid a and ib = nid b in
        let key = if ia < ib then (ia, ib) else (ib, ia) in
        match Hashtbl.find_opt m.and_memo key with
        | Some r -> r
        | None ->
            let v = min (level a) (level b) in
            let alo, ahi = branches a v and blo, bhi = branches b v in
            let r = mk m v (conj_m m alo blo) (conj_m m ahi bhi) in
            Hashtbl.add m.and_memo key r;
            r)

  (* The historical detour, preserved verbatim in the oracle. *)
  let disj_m m a b = neg_m m (conj_m m (neg_m m a) (neg_m m b))

  let rec xor_m m a b =
    match (a, b) with
    | Zero, t | t, Zero -> t
    | One, t | t, One -> neg_m m t
    | _ when a == b -> Zero
    | _ -> (
        let ia = nid a and ib = nid b in
        let key = if ia < ib then (ia, ib) else (ib, ia) in
        match Hashtbl.find_opt m.xor_memo key with
        | Some r -> r
        | None ->
            let v = min (level a) (level b) in
            let alo, ahi = branches a v and blo, bhi = branches b v in
            let r = mk m v (xor_m m alo blo) (xor_m m ahi bhi) in
            Hashtbl.add m.xor_memo key r;
            r)

  let rec restrict_m m v b t =
    match t with
    | Zero | One -> t
    | Node n when n.v > v -> t
    | Node n when n.v = v -> if b then n.hi else n.lo
    | Node n -> (
        let key = (n.id, v, b) in
        match Hashtbl.find_opt m.restrict_memo key with
        | Some r -> r
        | None ->
            let r = mk m n.v (restrict_m m v b n.lo) (restrict_m m v b n.hi) in
            Hashtbl.add m.restrict_memo key r;
            r)

  let exists_var m v t =
    disj_m m (restrict_m m v false t) (restrict_m m v true t)

  (* Handle-level wrappers. *)
  let h_var m i = nid (mk m i Zero One)
  let h_nvar m i = nid (mk m i One Zero)
  let h_neg m x = nid (neg_m m (decode m x))
  let h_conj m x y = nid (conj_m m (decode m x) (decode m y))
  let h_disj m x y = nid (disj_m m (decode m x) (decode m y))
  let h_xor m x y = nid (xor_m m (decode m x) (decode m y))
  let h_imp m x y = nid (disj_m m (neg_m m (decode m x)) (decode m y))
  let h_iff m x y = nid (neg_m m (xor_m m (decode m x) (decode m y)))

  let h_ite m c t e =
    let c = decode m c and t = decode m t and e = decode m e in
    nid (disj_m m (conj_m m c t) (conj_m m (neg_m m c) e))

  let h_restrict m v b x = nid (restrict_m m v b (decode m x))

  let h_exists m vs x =
    nid (List.fold_left (fun t v -> exists_var m v t) (decode m x) vs)

  (* The historical folds: no short-circuit on the absorbing element. *)
  let h_conj_list m xs =
    nid (List.fold_left (fun acc x -> conj_m m acc (decode m x)) One xs)

  let h_disj_list m xs =
    nid (List.fold_left (fun acc x -> disj_m m acc (decode m x)) Zero xs)

  let h_implies m x y = conj_m m (decode m x) (neg_m m (decode m y)) == Zero

  let h_expand m h =
    match decode m h with
    | Node n -> (n.v, nid n.lo, nid n.hi)
    | Zero | One -> invalid_arg "Bdd: expanding a terminal"

  let h_level m h = if h <= 1 then max_int else level (decode m h)

  let clear_caches m =
    Hashtbl.reset m.neg_memo;
    Hashtbl.reset m.and_memo;
    Hashtbl.reset m.xor_memo;
    Hashtbl.reset m.restrict_memo

  let reset m =
    clear_caches m;
    Hashtbl.reset m.unique;
    Hashtbl.reset m.by_id;
    m.next_id <- m.start_id
end

(* ------------------------------------------------------------------ *)
(* Managers                                                           *)
(* ------------------------------------------------------------------ *)

(* All mutable state of the hash-consing engine lives in an explicit
   manager record wrapping one of the two backends. Node handles (and
   therefore equality of results) are only meaningful relative to the
   manager that built them, so values from different managers must
   never be mixed in one operation — except for a frozen base and its
   deltas, which share one handle space by construction.

   The public operations below act on a domain-local default manager
   (one per [Domain], via [Domain.DLS]), which keeps the historical
   module-level API while making every domain an isolated, race-free
   BDD universe: parallel workers hash-cons into their own tables with
   no locks on the allocation path. *)
module Manager = struct
  type bdd = int

  type impl = Arena_impl of Arena.t | Boxed_impl of Boxed.t

  type t = {
    impl : impl;
    base : t option;
    memo_bound : int;
    mutable frozen : bool;
    (* Bumped each time the manager becomes frozen. A delta captures the
       base's store, unique table and boundary as they were when it was
       created, so a delta cached across a thaw must not be reused:
       keying it by (base, freeze epoch) tells the two freezes apart. *)
    mutable freeze_epoch : int;
    (* Structural-hash-keyed compilation cache: callers memoize
       "source object -> BDD" translations (ACL rules, prefix lists)
       under a canonical string key, so corpus sweeps compile each
       distinct rule once per manager epoch instead of once per use.
       Delta lookups fall through to the frozen base's cache. *)
    compile_cache : (string, int) Hashtbl.t;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable cache_hook : (bool -> unit) option; (* arg: was it a hit? *)
  }

  let boxed_env = "CLARIFY_BOXED_BDD"
  let memo_bound_env = "CLARIFY_BDD_MEMO_BOUND"
  let default_memo_bound = 1 lsl 20

  let env_truthy name =
    match Sys.getenv_opt name with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false

  let memo_bound_from_env () =
    match Sys.getenv_opt memo_bound_env with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 16 -> n
        | _ -> default_memo_bound)
    | None -> default_memo_bound

  let create ?boxed ?memo_bound () =
    let boxed =
      match boxed with Some b -> b | None -> env_truthy boxed_env
    in
    let memo_bound =
      match memo_bound with
      | Some b -> max 16 b
      | None -> memo_bound_from_env ()
    in
    let impl =
      if boxed then Boxed_impl (Boxed.create ())
      else Arena_impl (Arena.create ~memo_bound ())
    in
    {
      impl;
      base = None;
      memo_bound;
      frozen = false;
      freeze_epoch = 0;
      compile_cache = Hashtbl.create 1024;
      cache_hits = 0;
      cache_misses = 0;
      cache_hook = None;
    }

  let frozen m = m.frozen
  let freeze_epoch m = m.freeze_epoch
  let is_delta m = Option.is_some m.base

  let set_frozen m f =
    if f && not m.frozen then m.freeze_epoch <- m.freeze_epoch + 1;
    m.frozen <- f;
    match m.impl with
    | Arena_impl a -> a.Arena.frozen <- f
    | Boxed_impl b -> b.Boxed.frozen <- f

  let freeze m = set_frozen m true

  let frozen_during m f =
    let was = m.frozen in
    set_frozen m true;
    Fun.protect ~finally:(fun () -> set_frozen m was) f

  let create_delta base =
    if not base.frozen then
      invalid_arg "Bdd.Manager.create_delta: base manager must be frozen";
    (match base.base with
    | Some _ ->
        invalid_arg "Bdd.Manager.create_delta: base must be a root manager"
    | None -> ());
    let impl =
      match base.impl with
      | Arena_impl a ->
          Arena_impl (Arena.create_delta ~memo_bound:base.memo_bound a)
      | Boxed_impl b -> Boxed_impl (Boxed.create_delta b)
    in
    {
      impl;
      base = Some base;
      memo_bound = base.memo_bound;
      frozen = false;
      freeze_epoch = 0;
      compile_cache = Hashtbl.create 256;
      cache_hits = 0;
      cache_misses = 0;
      cache_hook = None;
    }

  (* Drop the operation memo tables only; hash-consed nodes (and the
     compilation cache, which pins them) survive. *)
  let clear_caches m =
    match m.impl with
    | Arena_impl a -> Arena.clear_caches a
    | Boxed_impl b -> Boxed.clear_caches b

  (* Full reset: unique table, id allocator, memos and the compilation
     cache. Every BDD built by this manager is invalidated — only call
     between independent analyses when none of them is still live. On a
     delta this rewinds to the base boundary; the shared base survives. *)
  let reset m =
    if m.frozen then invalid_arg "Bdd.Manager.reset: manager is frozen";
    (match m.impl with
    | Arena_impl a -> Arena.reset a
    | Boxed_impl b -> Boxed.reset b);
    Hashtbl.reset m.compile_cache

  type stats = {
    nodes : int; (* live entries in the own unique table *)
    next_id : int;
    neg_memo : int;
    and_memo : int;
    or_memo : int;
    xor_memo : int;
    restrict_memo : int;
    cache_entries : int;
    cache_hits : int;
    cache_misses : int;
    boxed : bool;
    base_nodes : int; (* nodes inherited from a frozen base *)
    arena_capacity : int; (* own node-store capacity (0 when boxed) *)
    uniq_slots : int; (* own unique-table slots (0 when boxed) *)
    uniq_lookups : int;
    uniq_probes : int; (* slots inspected across those lookups *)
    memo_evictions : int; (* generation bumps forced by the memo bound *)
  }

  let stats m =
    let cache_entries = Hashtbl.length m.compile_cache in
    match m.impl with
    | Arena_impl a ->
        {
          nodes = a.Arena.ucount;
          next_id = a.Arena.next;
          neg_memo = a.Arena.neg_memo.Memo.count;
          and_memo = a.Arena.and_memo.Memo.count;
          or_memo = a.Arena.or_memo.Memo.count;
          xor_memo = a.Arena.xor_memo.Memo.count;
          restrict_memo = a.Arena.restrict_memo.Memo.count;
          cache_entries;
          cache_hits = m.cache_hits;
          cache_misses = m.cache_misses;
          boxed = false;
          base_nodes = a.Arena.base_limit - a.Arena.base_start;
          arena_capacity = a.Arena.cap;
          uniq_slots = a.Arena.umask + 1;
          uniq_lookups = a.Arena.lookups;
          uniq_probes = a.Arena.probes;
          memo_evictions =
            a.Arena.neg_memo.Memo.evictions
            + a.Arena.and_memo.Memo.evictions
            + a.Arena.or_memo.Memo.evictions
            + a.Arena.xor_memo.Memo.evictions
            + a.Arena.restrict_memo.Memo.evictions;
        }
    | Boxed_impl b ->
        {
          nodes = Hashtbl.length b.Boxed.unique;
          next_id = b.Boxed.next_id;
          neg_memo = Hashtbl.length b.Boxed.neg_memo;
          and_memo = Hashtbl.length b.Boxed.and_memo;
          or_memo = 0;
          xor_memo = Hashtbl.length b.Boxed.xor_memo;
          restrict_memo = Hashtbl.length b.Boxed.restrict_memo;
          cache_entries;
          cache_hits = m.cache_hits;
          cache_misses = m.cache_misses;
          boxed = true;
          base_nodes =
            (match b.Boxed.base with
            | Some p -> Hashtbl.length p.Boxed.unique
            | None -> 0);
          arena_capacity = 0;
          uniq_slots = 0;
          uniq_lookups = 0;
          uniq_probes = 0;
          memo_evictions = 0;
        }

  let key = Domain.DLS.new_key (fun () -> create ())
  let current () = Domain.DLS.get key
end

let manager = Manager.current

let with_manager m f =
  let saved = Domain.DLS.get Manager.key in
  Domain.DLS.set Manager.key m;
  Fun.protect ~finally:(fun () -> Domain.DLS.set Manager.key saved) f

let set_alloc_hook h =
  match (manager ()).Manager.impl with
  | Manager.Arena_impl a -> a.Arena.alloc_hook <- h
  | Manager.Boxed_impl b -> b.Boxed.alloc_hook <- h

let get_alloc_hook () =
  match (manager ()).Manager.impl with
  | Manager.Arena_impl a -> a.Arena.alloc_hook
  | Manager.Boxed_impl b -> b.Boxed.alloc_hook

let set_cache_hook h = (manager ()).Manager.cache_hook <- h
let get_cache_hook () = (manager ()).Manager.cache_hook
let clear_caches () = Manager.clear_caches (manager ())

(* ------------------------------------------------------------------ *)
(* Public operations: resolve the DLS manager exactly once, dispatch   *)
(* ------------------------------------------------------------------ *)

let[@inline] impl () = (Manager.current ()).Manager.impl

let var i =
  if i < 0 then invalid_arg "Bdd.var";
  match impl () with
  | Manager.Arena_impl a -> Arena.mk a i 0 1
  | Manager.Boxed_impl b -> Boxed.h_var b i

let nvar i =
  if i < 0 then invalid_arg "Bdd.nvar";
  match impl () with
  | Manager.Arena_impl a -> Arena.mk a i 1 0
  | Manager.Boxed_impl b -> Boxed.h_nvar b i

let neg t =
  match impl () with
  | Manager.Arena_impl a -> Arena.neg a t
  | Manager.Boxed_impl b -> Boxed.h_neg b t

let conj x y =
  match impl () with
  | Manager.Arena_impl a -> Arena.conj a x y
  | Manager.Boxed_impl b -> Boxed.h_conj b x y

let disj x y =
  match impl () with
  | Manager.Arena_impl a -> Arena.disj a x y
  | Manager.Boxed_impl b -> Boxed.h_disj b x y

let xor x y =
  match impl () with
  | Manager.Arena_impl a -> Arena.xor a x y
  | Manager.Boxed_impl b -> Boxed.h_xor b x y

let imp x y =
  match impl () with
  | Manager.Arena_impl a -> Arena.disj a (Arena.neg a x) y
  | Manager.Boxed_impl b -> Boxed.h_imp b x y

let iff x y =
  match impl () with
  | Manager.Arena_impl a -> Arena.neg a (Arena.xor a x y)
  | Manager.Boxed_impl b -> Boxed.h_iff b x y

let ite c t e =
  match impl () with
  | Manager.Arena_impl a ->
      Arena.disj a (Arena.conj a c t) (Arena.conj a (Arena.neg a c) e)
  | Manager.Boxed_impl b -> Boxed.h_ite b c t e

(* Both folds short-circuit on the absorbing element: once the
   accumulator is the annihilator there is no need to look at (or
   memoize against) the rest of the list. The boxed oracle keeps the
   historical non-short-circuit folds. *)
let conj_list ts =
  match impl () with
  | Manager.Arena_impl a ->
      let rec go acc = function
        | [] -> acc
        | _ when acc = 0 -> 0
        | x :: rest -> go (Arena.conj a acc x) rest
      in
      go 1 ts
  | Manager.Boxed_impl b -> Boxed.h_conj_list b ts

let disj_list ts =
  match impl () with
  | Manager.Arena_impl a ->
      let rec go acc = function
        | [] -> acc
        | _ when acc = 1 -> 1
        | x :: rest -> go (Arena.disj a acc x) rest
      in
      go 0 ts
  | Manager.Boxed_impl b -> Boxed.h_disj_list b ts

let restrict v b t =
  match impl () with
  | Manager.Arena_impl a -> Arena.restrict a v b t
  | Manager.Boxed_impl bx -> Boxed.h_restrict bx v b t

let exists vs t =
  match impl () with
  | Manager.Arena_impl a ->
      List.fold_left
        (fun t v -> Arena.disj a (Arena.restrict a v false t) (Arena.restrict a v true t))
        t vs
  | Manager.Boxed_impl b -> Boxed.h_exists b vs t

let is_zero t = t = 0
let is_one t = t = 1
let equal (a : int) (b : int) = a = b
let compare = Int.compare
let hash (t : int) = t
let is_sat t = t <> 0

let implies x y =
  match impl () with
  | Manager.Arena_impl a -> Arena.conj a x (Arena.neg a y) = 0
  | Manager.Boxed_impl b -> Boxed.h_implies b x y

(* ------------------------------------------------------------------ *)
(* Symbolic compilation cache                                         *)
(* ------------------------------------------------------------------ *)

let cached ~key f =
  let m = manager () in
  let found =
    match Hashtbl.find_opt m.Manager.compile_cache key with
    | Some _ as s -> s
    | None -> (
        match m.Manager.base with
        | Some b -> Hashtbl.find_opt b.Manager.compile_cache key
        | None -> None)
  in
  match found with
  | Some b ->
      m.Manager.cache_hits <- m.Manager.cache_hits + 1;
      (match m.Manager.cache_hook with None -> () | Some h -> h true);
      b
  | None ->
      m.Manager.cache_misses <- m.Manager.cache_misses + 1;
      (match m.Manager.cache_hook with None -> () | Some h -> h false);
      let b = f () in
      Hashtbl.add m.Manager.compile_cache key b;
      b

(* ------------------------------------------------------------------ *)
(* Traversals (backend-generic over node expansion)                   *)
(* ------------------------------------------------------------------ *)

let[@inline] expand m h =
  match m.Manager.impl with
  | Manager.Arena_impl a -> (Arena.node_v a h, Arena.node_lo a h, Arena.node_hi a h)
  | Manager.Boxed_impl b -> Boxed.h_expand b h

let[@inline] level_of m h =
  match m.Manager.impl with
  | Manager.Arena_impl a -> Arena.level a h
  | Manager.Boxed_impl b -> Boxed.h_level b h

let any_sat t =
  let m = manager () in
  let rec go acc h =
    if h = 0 then raise Not_found
    else if h = 1 then List.rev acc
    else
      let v, lo, hi = expand m h in
      if hi = 0 then go ((v, false) :: acc) lo else go ((v, true) :: acc) hi
  in
  go [] t

let all_sat t =
  let m = manager () in
  let rec go acc h () =
    if h = 0 then Seq.Nil
    else if h = 1 then Seq.Cons (List.rev acc, Seq.empty)
    else
      let v, lo, hi = expand m h in
      Seq.append (go ((v, false) :: acc) lo) (go ((v, true) :: acc) hi) ()
  in
  go [] t

let sat_count ~nvars t =
  let m = manager () in
  let lvl h = if h <= 1 then nvars else let l = level_of m h in l in
  let memo = Hashtbl.create 256 in
  let pow2 n = Float.pow 2. (Float.of_int n) in
  let rec go h =
    if h = 0 then 0.
    else if h = 1 then 1.
    else
      match Hashtbl.find_opt memo h with
      | Some c -> c
      | None ->
          let v, lo, hi = expand m h in
          let c =
            (go lo *. pow2 (lvl lo - v - 1)) +. (go hi *. pow2 (lvl hi - v - 1))
          in
          Hashtbl.add memo h c;
          c
  in
  go t *. pow2 (min (lvl t) nvars)

let size t =
  let m = manager () in
  let seen = Hashtbl.create 64 in
  let rec go h =
    if h > 1 && not (Hashtbl.mem seen h) then begin
      Hashtbl.add seen h ();
      let _, lo, hi = expand m h in
      go lo;
      go hi
    end
  in
  go t;
  Hashtbl.length seen

let support t =
  let m = manager () in
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go h =
    if h > 1 && not (Hashtbl.mem seen h) then begin
      Hashtbl.add seen h ();
      let v, lo, hi = expand m h in
      Hashtbl.replace vars v ();
      go lo;
      go hi
    end
  in
  go t;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let eval env t =
  let m = manager () in
  let rec go h =
    if h = 0 then false
    else if h = 1 then true
    else
      let v, lo, hi = expand m h in
      if env v then go hi else go lo
  in
  go t

let pp fmt t =
  let m = manager () in
  let rec go fmt h =
    if h = 0 then Format.pp_print_string fmt "F"
    else if h = 1 then Format.pp_print_string fmt "T"
    else
      let v, lo, hi = expand m h in
      Format.fprintf fmt "@[<hv 1>(x%d?%a:%a)@]" v go hi go lo
  in
  go fmt t

let node_count () =
  match impl () with
  | Manager.Arena_impl a -> a.Arena.ucount
  | Manager.Boxed_impl b -> Hashtbl.length b.Boxed.unique
