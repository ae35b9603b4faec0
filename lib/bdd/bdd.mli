(** Hash-consed reduced ordered binary decision diagrams.

    Variables are non-negative integers ordered by their index: smaller
    indices appear closer to the root. All BDDs built through one
    manager are maximally shared, so structural equality coincides with
    handle equality and is O(1) via {!equal}.

    {b Representation.} A BDD value is an integer handle into its
    manager's node store, an {e arena}: nodes are int-packed (var, lo,
    hi) triples in a flat growable bigarray, hash-consed through
    open-addressing tables that never allocate on the probe path, with
    one bounded generation-tagged computed table memoizing every
    operation (2{^20} slots).

    {b Managers and domains.} All mutable state (the node store, the
    computed table, the compilation cache, the hooks) lives in a
    {!Manager.t}. The module-level operations act on a {e domain-local}
    default manager — one per [Domain], allocated lazily — so every
    domain owns an isolated, race-free BDD universe and parallel
    workers never contend on the allocation path. Node identity is
    manager-relative: never mix BDDs built by different managers (or by
    the same manager across a {!Manager.reset}) in one operation.

    {b Base and delta managers.} {!Manager.freeze} turns a manager into
    a read-only base; {!Manager.create_delta} layers a private writable
    manager on top of a frozen base. A delta resolves handles, unique
    lookups and {!cached} probes through base-then-delta fall-through
    and allocates only in its own arena, so many worker domains can
    share one compiled base (corpus, partition, prefix encodings)
    without recompiling it per domain and without synchronization —
    the base is immutable after the freeze. Handles built by the base
    are valid in every one of its deltas. Freezing is one-way: a
    frozen base never grows, rehashes or resets, so a delta stays
    valid for as long as its base lives. *)

type t

(** The mutable BDD universe: node store, computed table, compilation
    cache and observability hooks. *)
module Manager : sig
  type bdd = t
  type t

  val create : ?memo_bound:int -> unit -> t
  (** [create ()] makes a fresh root manager. [memo_bound] caps its
      computed table, the one memo every operation shares, at that many
      slots (rounded up to a power of two, min 16); once the table holds
      3/4 of the bound it is evicted wholesale by a generation bump
      instead of growing. Default 2{^20}. The table starts at 2,048
      slots (or the bound, if smaller). *)

  val current : unit -> t
  (** The calling domain's default manager (created on first use). *)

  val freeze : t -> unit
  (** Make the manager read-only, for good: any operation that would
      allocate a fresh node afterwards raises [Invalid_argument].
      Required before {!create_delta}; freezing is what makes sharing
      the manager across domains race-free. *)

  val frozen : t -> bool

  val create_delta : t -> t
  (** [create_delta base] is a private writable manager layered on the
      frozen root manager [base]: node and compilation-cache lookups
      fall through [base] first, fresh allocations go only to the
      delta, and [base]'s handles remain valid (and equal) in the
      delta. The delta inherits [base]'s memo bound. It starts sized
      for one E5 router's work (768 nodes, 1,024 unique and
      computed-table slots, 16 compilation-cache buckets), so a
      router's delta never grows.
      @raise Invalid_argument if [base] is not frozen, or is itself a
      delta. *)

  val clear_caches : t -> unit
  (** Drop the computed table only (one generation bump); hash-consed
      nodes and the compilation cache are kept. *)

  val reset : t -> unit
  (** Full reset: unique table, id allocator, computed table and the
      compilation cache. Invalidates {e every} BDD the manager has
      built — only call between independent analyses when none of
      their results is still live. On a delta this rewinds to the base
      boundary and leaves the shared base untouched. Bounds memory
      across large corpus sweeps, which {!val:clear_caches} alone
      cannot (it keeps the unique table).
      @raise Invalid_argument on a frozen manager. *)

  type stats = {
    nodes : int; (* live entries in the own unique table *)
    next_id : int; (* next fresh node handle *)
    memo : int; (* live computed-table entries, every operation's *)
    cache_entries : int; (* own compilation-cache entries *)
    cache_hits : int; (* compilation-cache hits since creation *)
    cache_misses : int;
    base_nodes : int; (* nodes inherited from a frozen base *)
    arena_capacity : int; (* own node-store capacity *)
    uniq_slots : int; (* own unique-table slots *)
    uniq_lookups : int; (* unique-table lookups since creation *)
    uniq_probes : int; (* slots inspected across those lookups *)
    memo_evictions : int; (* generation bumps forced by the memo bound *)
  }

  val stats : t -> stats
end

val manager : unit -> Manager.t
(** Alias for {!Manager.current}. *)

val with_manager : Manager.t -> (unit -> 'a) -> 'a
(** [with_manager m f] runs [f] with [m] installed as the calling
    domain's default manager, restoring the previous one afterwards
    (also on raise). BDDs built inside [f] belong to [m] and must not
    escape into operations under another manager (base handles inside
    one of the base's deltas excepted). *)

val zero : t
(** The constant false. *)

val one : t
(** The constant true. *)

val var : int -> t
(** [var i] is the BDD of the propositional variable [i].
    @raise Invalid_argument if [i < 0]. *)

val nvar : int -> t
(** [nvar i] is the negation of variable [i]. *)

val node : int -> lo:t -> hi:t -> t
(** [node v ~lo ~hi] is the function "if variable [v] then [hi] else
    [lo]", built as one hash-consed node (or [lo] when [lo] and [hi]
    are equal), with no operation and no memo probe. Laying nodes
    bottom up builds a cube or an interval one node per variable.
    @raise Invalid_argument unless [v >= 0] sits above both children:
    [v] is smaller than every variable of [lo] and [hi]. *)

val neg : t -> t
val conj : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is [a ∧ ¬b], computed in one pass without building
    [¬b]. Memoized with the conjunctions. *)

val disj : t -> t -> t
(** Direct recursive disjunction, memoized under its own tag. *)

val xor : t -> t -> t
val imp : t -> t -> t
val iff : t -> t -> t
val ite : t -> t -> t -> t

val conj_list : t list -> t
(** Conjunction of a list, short-circuiting on {!zero}. *)

val disj_list : t list -> t
(** Disjunction of a list, short-circuiting on {!one}. *)

val exists : int list -> t -> t
(** Existentially quantify the given variables. *)

val restrict : int -> bool -> t -> t
(** [restrict i v t] fixes variable [i] to [v]. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_sat : t -> bool
val implies : t -> t -> bool
(** [implies a b] iff [a] entails [b]. *)

val cached : key:string -> (unit -> t) -> t
(** [cached ~key f] is the symbolic compilation cache of the current
    manager: return the BDD memoized under [key], or run [f], store
    its result and return it. Keys must canonically encode the whole
    source object being compiled (two different objects must never
    render to the same key). On a delta manager the probe falls
    through to the frozen base's cache first, so work compiled in the
    base is reused without reallocation. Hit/miss totals appear in
    {!Manager.stats} and fire {!set_cache_hook}.

    Worth it only where rendering the key costs less than the build
    it saves. Hash-consing already gives equal encodings one handle,
    also across a frozen base and its deltas, so an encoding laid
    node by node (a prefix cube, a length interval) is cheaper to
    rebuild than to key. *)

val any_sat : t -> (int * bool) list
(** A partial assignment (variable, value) making the BDD true; variables
    absent from the list are don't-cares. @raise Not_found on [zero]. *)

val all_sat : t -> (int * bool) list Seq.t
(** Lazy sequence of all satisfying partial assignments (BDD paths). *)

val sat_count : nvars:int -> t -> float
(** Number of satisfying total assignments over a universe of [nvars]
    variables (as float: counts can exceed 2{^62}). *)

val size : t -> int
(** Number of distinct internal nodes. *)

val support : t -> int list
(** Variables the function actually depends on, ascending. *)

val eval : (int -> bool) -> t -> bool
(** Evaluate under a total assignment. *)

val set_alloc_hook : (unit -> unit) option -> unit
(** Install (or clear) a callback on the {e current domain's} manager,
    fired once per fresh node allocation. Used by the observability
    layer to count BDD allocations; [None] keeps the allocation path
    hook-free apart from one match. Per-manager, so concurrent domains
    can count allocations without racing on a shared cell. *)

val set_cache_hook : (bool -> unit) option -> unit
(** Install (or clear) a callback on the current domain's manager,
    fired on every {!cached} probe with [true] on a hit and [false] on
    a miss. *)

val get_alloc_hook : unit -> (unit -> unit) option
val get_cache_hook : unit -> (bool -> unit) option
(** The current domain's installed hooks, so a scope that redirects
    them (e.g. a worker pool labelling allocations per domain) can
    restore the previous wiring afterwards. *)

val clear_caches : unit -> unit
(** [Manager.clear_caches] on the current domain's manager: drop
    the computed table (unique table is kept). Useful between large
    independent analyses to bound memo growth; use {!Manager.reset}
    to also bound the unique table. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering as nested if-then-else. *)
