(* Hash-consed ROBDDs over an int-packed node store.

   A BDD value is an [int] handle: 0 is the constant false, 1 the
   constant true, and handles >= 2 name interior nodes owned by some
   manager. Each manager's {e arena} packs each node as a (var, lo, hi)
   triple of ints in a flat growable [Bigarray.Array1], hash-conses
   through an open-addressing unique table (linear probing over a
   packed [int array], no allocation on the probe path) and memoizes
   every operation in one open-addressing computed table with
   generation-tagged eviction, so long runs stop growing it without a
   full [reset].

   Managers can be {e frozen} into read-only bases: a frozen manager
   refuses fresh allocations, and [Manager.create_delta] layers a
   private writable manager on top whose lookups fall through
   base -> delta. Worker domains share one compiled base (corpus,
   partition, prefix encodings) and allocate only in their own deltas,
   which eliminates per-domain recompilation in parallel sweeps.
   Freezing is one-way, so a delta stays valid as long as its base. *)

type t = int

let zero = 0
let one = 1

(* One multiplicative hash for both tables: a node's (var, lo, hi) in
   the unique table, an entry's (operation, k1, k2) in the computed
   table, each term under its own odd constant. *)
let[@inline] hash3 a b c =
  let h = (a * 0x65CC5C97) lxor (b * 0x9E3779B1) lxor (c * 0x85EBCA77) in
  h lxor (h lsr 16)

(* ------------------------------------------------------------------ *)
(* The computed table: every operation's memo in one table            *)
(* ------------------------------------------------------------------ *)

(* One open-addressing table per manager caches the results of every
   operation, as CUDD's computed table does. A slot is four consecutive
   ints (tag, k1, k2, value); the tag packs the generation that wrote
   the entry above the three bits of its operation, and the operation
   enters the hash as its own term. A slot is live iff its tag's
   generation is the table's, so [clear] (and wholesale eviction when a
   bounded table fills up) is a single counter bump: no clearing pass,
   no allocation. Within one generation the linear-probing invariant
   holds (the probe chain from a key's home slot to its entry contains
   only live slots), so lookups stop at the first stale slot. Losing
   entries is correctness-neutral: the table only caches deterministic
   recomputations. *)
module Memo = struct
  type t = {
    mutable slots : int array; (* 4 ints per slot: tag, k1, k2, value *)
    mutable mask : int; (* 4 * (capacity - 1), capacity a power of two *)
    mutable count : int; (* live entries in the current generation *)
    mutable gen : int;
    max_cap : int; (* growth ceiling; beyond it, evict by generation *)
    mutable evictions : int;
  }

  (* Operation tags. [diff] shares [op_and] under the key [(x, lnot y)]:
     a conjunction's keys are both interior handles, so the negative
     key never meets one. *)
  let op_neg = 0
  let op_and = 1
  let op_or = 2
  let op_xor = 3
  let op_restrict = 4

  let pow2_ge n =
    let rec go c = if c >= n then c else go (c * 2) in
    go 16

  let create ~bound ~cap =
    let max_cap = pow2_ge bound in
    let cap = min cap max_cap in
    {
      slots = Array.make (4 * cap) 0;
      mask = 4 * (cap - 1);
      count = 0;
      gen = 1;
      max_cap;
      evictions = 0;
    }

  let[@inline] home m op k1 k2 = (hash3 op k1 k2 lsl 2) land m.mask

  let rec find_loop m tag k1 k2 i =
    let s = Array.unsafe_get m.slots i in
    if
      s = tag
      && Array.unsafe_get m.slots (i + 1) = k1
      && Array.unsafe_get m.slots (i + 2) = k2
    then Array.unsafe_get m.slots (i + 3)
    else if s lsr 3 <> m.gen then -1
    else find_loop m tag k1 k2 ((i + 4) land m.mask)

  (* Returns the memoized handle, or -1 on a miss. *)
  let[@inline] find m op k1 k2 =
    find_loop m ((m.gen lsl 3) lor op) k1 k2 (home m op k1 k2)

  let rec insert_loop m tag k1 k2 v i =
    let s = Array.unsafe_get m.slots i in
    if s lsr 3 <> m.gen then begin
      Array.unsafe_set m.slots i tag;
      Array.unsafe_set m.slots (i + 1) k1;
      Array.unsafe_set m.slots (i + 2) k2;
      Array.unsafe_set m.slots (i + 3) v;
      m.count <- m.count + 1
    end
    else if
      s = tag
      && Array.unsafe_get m.slots (i + 1) = k1
      && Array.unsafe_get m.slots (i + 2) = k2
    then ()
    else insert_loop m tag k1 k2 v ((i + 4) land m.mask)

  (* Live entries keep their tags: the fresh slots read generation 0,
     which no live generation equals. *)
  let grow m =
    let old = m.slots in
    m.slots <- Array.make (2 * Array.length old) 0;
    m.mask <- (2 * m.mask) + 4;
    m.count <- 0;
    for j = 0 to (Array.length old / 4) - 1 do
      let i = 4 * j in
      let tag = old.(i) in
      if tag lsr 3 = m.gen then begin
        let k1 = old.(i + 1) and k2 = old.(i + 2) in
        insert_loop m tag k1 k2 old.(i + 3) (home m (tag land 7) k1 k2)
      end
    done

  let add m op k1 k2 v =
    let cap = (m.mask lsr 2) + 1 in
    (* Keep the load factor under 3/4: grow while allowed, otherwise
       evict the whole generation in O(1). *)
    if m.count >= cap - (cap lsr 2) then
      if cap < m.max_cap then grow m
      else begin
        m.gen <- m.gen + 1;
        m.count <- 0;
        m.evictions <- m.evictions + 1
      end;
    insert_loop m ((m.gen lsl 3) lor op) k1 k2 v (home m op k1 k2)

  let clear m =
    m.gen <- m.gen + 1;
    m.count <- 0
end

(* ------------------------------------------------------------------ *)
(* Arena: int-packed nodes, open-addressing unique table               *)
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
    memo : Memo.t; (* the computed table *)
    mutable frozen : bool; (* the manager's flag: [mk] refuses to allocate *)
    mutable alloc_hook : (unit -> unit) option;
  }

  (* Initial sizes, from [Manager.stats] on the benchmark's jobs;
     tables grow at 3/4 load. A router's delta ([fleet], E5) ends near
     570 nodes (at most 603) and 620 computed entries (at most 693), so
     its 768-node store and 1,024-slot tables never grow. A root manager
     made per batch ([batch-mixed]) holds about 850 computed entries
     when the batch asks its first question (p90 870) and 2,800 at its
     end (p90 3,900). Its table starts at 2,048 slots, so nothing is
     rehashed before the first question; allocating the whole batch's
     8,192 slots up front cost that question more than the rehashes. *)
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
      memo = Memo.create ~bound:memo_bound ~cap:2048;
      frozen = false;
      alloc_hook = None;
    }

  (* A delta shares the base's store and unique table by reference;
     both are immutable once the base is frozen, so concurrent deltas
     in different domains read them without synchronization. *)
  let create_delta ~memo_bound (b : t) =
    {
      start = b.next;
      store = make_store 768;
      cap = 768;
      next = b.next;
      base_store = b.store;
      base_start = b.start;
      base_limit = b.next;
      base_uniq = b.uniq;
      base_umask = b.umask;
      uniq = Array.make 1024 0;
      umask = 1023;
      ucount = 0;
      probes = 0;
      lookups = 0;
      memo = Memo.create ~bound:memo_bound ~cap:1024;
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
      let r = Memo.find a.memo Memo.op_neg t 0 in
      if r >= 0 then r
      else begin
        let v = node_v a t in
        let lo = neg a (node_lo a t) in
        let hi = neg a (node_hi a t) in
        let r = mk a v lo hi in
        Memo.add a.memo Memo.op_neg t 0 r;
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
      let r = Memo.find a.memo Memo.op_and k1 k2 in
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
        Memo.add a.memo Memo.op_and k1 k2 r;
        r
      end
    end

  (* Direct disjunction under its own tag, so no complement nodes are
     built on the way. *)
  let rec disj a x y =
    if x = y then x
    else if x = 1 || y = 1 then 1
    else if x = 0 then y
    else if y = 0 then x
    else begin
      let k1 = if x < y then x else y in
      let k2 = if x < y then y else x in
      let r = Memo.find a.memo Memo.op_or k1 k2 in
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
        Memo.add a.memo Memo.op_or k1 k2 r;
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
      let r = Memo.find a.memo Memo.op_xor k1 k2 in
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
        Memo.add a.memo Memo.op_xor k1 k2 r;
        r
      end
    end

  (* [x ∧ ¬y] without building [¬y], memoized under the conjunction's
     tag with the key [(x, lnot y)] (see [Memo.op_and]). *)
  let rec diff a x y =
    if x = 0 || y = 1 || x = y then 0
    else if y = 0 then x
    else if x = 1 then neg a y
    else begin
      let k2 = lnot y in
      let r = Memo.find a.memo Memo.op_and x k2 in
      if r >= 0 then r
      else begin
        let vx = node_v a x and vy = node_v a y in
        let v = if vx < vy then vx else vy in
        let xlo = if vx = v then node_lo a x else x in
        let xhi = if vx = v then node_hi a x else x in
        let ylo = if vy = v then node_lo a y else y in
        let yhi = if vy = v then node_hi a y else y in
        let lo = diff a xlo ylo in
        let hi = diff a xhi yhi in
        let r = mk a v lo hi in
        Memo.add a.memo Memo.op_and x k2 r;
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
        let r = Memo.find a.memo Memo.op_restrict t k2 in
        if r >= 0 then r
        else begin
          let lo = restrict a v b (node_lo a t) in
          let hi = restrict a v b (node_hi a t) in
          let r = mk a tv lo hi in
          Memo.add a.memo Memo.op_restrict t k2 r;
          r
        end

  let clear_caches a = Memo.clear a.memo

  (* Reset drops own nodes only: a delta rewinds to its base boundary
     and the base (shared, frozen) is untouched. *)
  let reset a =
    a.next <- a.start;
    a.ucount <- 0;
    Array.fill a.uniq 0 (Array.length a.uniq) 0;
    clear_caches a
end

(* ------------------------------------------------------------------ *)
(* Managers                                                           *)
(* ------------------------------------------------------------------ *)

(* All mutable state of the hash-consing engine lives in an explicit
   manager record around its arena. Node handles (and therefore
   equality of results) are only meaningful relative to the manager
   that built them, so values from different managers must never be
   mixed in one operation — except for a frozen base and its deltas,
   which share one handle space by construction.

   The public operations below act on a domain-local default manager
   (one per [Domain], via [Domain.DLS]), which keeps the historical
   module-level API while making every domain an isolated, race-free
   BDD universe: parallel workers hash-cons into their own tables with
   no locks on the allocation path. *)
module Manager = struct
  type bdd = int

  type t = {
    arena : Arena.t; (* holds the frozen flag *)
    base : t option;
    memo_bound : int;
    (* Structural-hash-keyed compilation cache: callers memoize
       "source object -> BDD" translations (ACL rules, route-space
       constants) under a canonical string key, so corpus sweeps
       compile each distinct rule once per manager epoch instead of
       once per use. Delta lookups fall through to the frozen base's
       cache. *)
    compile_cache : (string, int) Hashtbl.t;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable cache_hook : (bool -> unit) option; (* arg: was it a hit? *)
  }

  let default_memo_bound = 1 lsl 20

  let create ?(memo_bound = default_memo_bound) () =
    let memo_bound = max 16 memo_bound in
    {
      arena = Arena.create ~memo_bound ();
      base = None;
      memo_bound;
      compile_cache = Hashtbl.create 1024;
      cache_hits = 0;
      cache_misses = 0;
      cache_hook = None;
    }

  let frozen m = m.arena.Arena.frozen
  let freeze m = m.arena.Arena.frozen <- true

  let create_delta base =
    if not (frozen base) then
      invalid_arg "Bdd.Manager.create_delta: base manager must be frozen";
    if Option.is_some base.base then
      invalid_arg "Bdd.Manager.create_delta: base must be a root manager";
    {
      arena = Arena.create_delta ~memo_bound:base.memo_bound base.arena;
      base = Some base;
      memo_bound = base.memo_bound;
      compile_cache = Hashtbl.create 16;
      cache_hits = 0;
      cache_misses = 0;
      cache_hook = None;
    }

  (* Drop the computed table only; hash-consed nodes (and the
     compilation cache, which pins them) survive. *)
  let clear_caches m = Arena.clear_caches m.arena

  (* Full reset: unique table, id allocator, computed table and the
     compilation cache. Every BDD built by this manager is invalidated —
     only call between independent analyses when none of them is still
     live. On a delta this rewinds to the base boundary; the shared base
     survives. *)
  let reset m =
    if frozen m then invalid_arg "Bdd.Manager.reset: manager is frozen";
    Arena.reset m.arena;
    Hashtbl.reset m.compile_cache

  type stats = {
    nodes : int; (* live entries in the own unique table *)
    next_id : int;
    memo : int; (* live computed-table entries *)
    cache_entries : int;
    cache_hits : int;
    cache_misses : int;
    base_nodes : int; (* nodes inherited from a frozen base *)
    arena_capacity : int; (* own node-store capacity *)
    uniq_slots : int; (* own unique-table slots *)
    uniq_lookups : int;
    uniq_probes : int; (* slots inspected across those lookups *)
    memo_evictions : int; (* generation bumps forced by the memo bound *)
  }

  let stats m =
    let a = m.arena in
    {
      nodes = a.Arena.ucount;
      next_id = a.Arena.next;
      memo = a.Arena.memo.Memo.count;
      cache_entries = Hashtbl.length m.compile_cache;
      cache_hits = m.cache_hits;
      cache_misses = m.cache_misses;
      base_nodes = a.Arena.base_limit - a.Arena.base_start;
      arena_capacity = a.Arena.cap;
      uniq_slots = a.Arena.umask + 1;
      uniq_lookups = a.Arena.lookups;
      uniq_probes = a.Arena.probes;
      memo_evictions = a.Arena.memo.Memo.evictions;
    }

  let key = Domain.DLS.new_key (fun () -> create ())
  let current () = Domain.DLS.get key
end

let manager = Manager.current

let with_manager m f =
  let saved = Domain.DLS.get Manager.key in
  Domain.DLS.set Manager.key m;
  Fun.protect ~finally:(fun () -> Domain.DLS.set Manager.key saved) f

(* ------------------------------------------------------------------ *)
(* Public operations: resolve the DLS manager's arena exactly once     *)
(* ------------------------------------------------------------------ *)

let[@inline] arena () = (Manager.current ()).Manager.arena
let set_alloc_hook h = (arena ()).Arena.alloc_hook <- h
let get_alloc_hook () = (arena ()).Arena.alloc_hook
let set_cache_hook h = (manager ()).Manager.cache_hook <- h
let get_cache_hook () = (manager ()).Manager.cache_hook
let clear_caches () = Manager.clear_caches (manager ())

let var i =
  if i < 0 then invalid_arg "Bdd.var";
  Arena.mk (arena ()) i 0 1

let nvar i =
  if i < 0 then invalid_arg "Bdd.nvar";
  Arena.mk (arena ()) i 1 0

let node v ~lo ~hi =
  let a = arena () in
  if v < 0 || v >= Arena.level a lo || v >= Arena.level a hi then
    invalid_arg "Bdd.node: variable not above both children";
  Arena.mk a v lo hi

let neg t = Arena.neg (arena ()) t
let conj x y = Arena.conj (arena ()) x y
let diff x y = Arena.diff (arena ()) x y
let disj x y = Arena.disj (arena ()) x y
let xor x y = Arena.xor (arena ()) x y

let imp x y =
  let a = arena () in
  Arena.disj a (Arena.neg a x) y

let iff x y =
  let a = arena () in
  Arena.neg a (Arena.xor a x y)

let ite c t e =
  let a = arena () in
  Arena.disj a (Arena.conj a c t) (Arena.diff a e c)

(* Both folds short-circuit on the absorbing element: once the
   accumulator is the annihilator there is no need to look at (or
   memoize against) the rest of the list. *)
let conj_list ts =
  let a = arena () in
  let rec go acc = function
    | [] -> acc
    | _ when acc = 0 -> 0
    | x :: rest -> go (Arena.conj a acc x) rest
  in
  go 1 ts

let disj_list ts =
  let a = arena () in
  let rec go acc = function
    | [] -> acc
    | _ when acc = 1 -> 1
    | x :: rest -> go (Arena.disj a acc x) rest
  in
  go 0 ts

let restrict v b t = Arena.restrict (arena ()) v b t

let exists vs t =
  let a = arena () in
  List.fold_left
    (fun t v -> Arena.disj a (Arena.restrict a v false t) (Arena.restrict a v true t))
    t vs

let is_zero t = t = 0
let is_one t = t = 1
let equal (a : int) (b : int) = a = b
let compare = Int.compare
let hash (t : int) = t
let is_sat t = t <> 0

let implies x y = Arena.diff (arena ()) x y = 0

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
(* Traversals                                                         *)
(* ------------------------------------------------------------------ *)

let[@inline] expand a h =
  (Arena.node_v a h, Arena.node_lo a h, Arena.node_hi a h)

let any_sat t =
  let a = arena () in
  let rec go acc h =
    if h = 0 then raise Not_found
    else if h = 1 then List.rev acc
    else
      let v, lo, hi = expand a h in
      if hi = 0 then go ((v, false) :: acc) lo else go ((v, true) :: acc) hi
  in
  go [] t

let all_sat t =
  let a = arena () in
  let rec go acc h () =
    if h = 0 then Seq.Nil
    else if h = 1 then Seq.Cons (List.rev acc, Seq.empty)
    else
      let v, lo, hi = expand a h in
      Seq.append (go ((v, false) :: acc) lo) (go ((v, true) :: acc) hi) ()
  in
  go [] t

let sat_count ~nvars t =
  let a = arena () in
  let lvl h = if h <= 1 then nvars else Arena.level a h in
  let memo = Hashtbl.create 256 in
  let pow2 n = Float.pow 2. (Float.of_int n) in
  let rec go h =
    if h = 0 then 0.
    else if h = 1 then 1.
    else
      match Hashtbl.find_opt memo h with
      | Some c -> c
      | None ->
          let v, lo, hi = expand a h in
          let c =
            (go lo *. pow2 (lvl lo - v - 1)) +. (go hi *. pow2 (lvl hi - v - 1))
          in
          Hashtbl.add memo h c;
          c
  in
  go t *. pow2 (min (lvl t) nvars)

let size t =
  let a = arena () in
  let seen = Hashtbl.create 64 in
  let rec go h =
    if h > 1 && not (Hashtbl.mem seen h) then begin
      Hashtbl.add seen h ();
      let _, lo, hi = expand a h in
      go lo;
      go hi
    end
  in
  go t;
  Hashtbl.length seen

let support t =
  let a = arena () in
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go h =
    if h > 1 && not (Hashtbl.mem seen h) then begin
      Hashtbl.add seen h ();
      let v, lo, hi = expand a h in
      Hashtbl.replace vars v ();
      go lo;
      go hi
    end
  in
  go t;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let eval env t =
  let a = arena () in
  let rec go h =
    if h = 0 then false
    else if h = 1 then true
    else
      let v, lo, hi = expand a h in
      if env v then go hi else go lo
  in
  go t

let pp fmt t =
  let a = arena () in
  let rec go fmt h =
    if h = 0 then Format.pp_print_string fmt "F"
    else if h = 1 then Format.pp_print_string fmt "T"
    else
      let v, lo, hi = expand a h in
      Format.fprintf fmt "@[<hv 1>(x%d?%a:%a)@]" v go hi go lo
  in
  go fmt t
