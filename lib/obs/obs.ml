(* Process-global observability registry.

   Domain-safety contract (see DESIGN.md §Multicore and §13): metric
   registration and the span record path are guarded by a mutex, but
   the counter/histogram *recording* hot path is mutex-free. Every
   series owns one shard per domain that ever touched it (allocated via
   [Domain.DLS] on first touch, linked into the series under the
   registry mutex), so an increment is a plain field update on memory
   no other domain writes. Reads ([value], [Snapshot.capture]) merge
   the shards lazily; merging a shard owned by a still-running domain
   is a racy-but-memory-safe int read, so a snapshot taken mid-run sees
   slightly stale values, while post-join snapshots (the bench/eval
   path, which joins worker domains first) are exact. *)

(* ------------------------------------------------------------------ *)
(* State and lifecycle                                                *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false

(* Guards the metric registries (Hashtbl add/iterate, shard lists) and
   the span record path (sequence counter, sink forwarding). Never held
   while user code runs, and never on the increment path. *)
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* Wall-clock, not [Sys.time]: span latencies must include time spent
   blocked on IO or sleeping, which CPU time would hide. *)
let clock = ref Unix.gettimeofday
let state_subscribers : (bool -> unit) list ref = ref []

let enabled () = !enabled_flag

let subscribe_state f =
  state_subscribers := f :: !state_subscribers;
  f !enabled_flag

let set_state b =
  if !enabled_flag <> b then begin
    enabled_flag := b;
    List.iter (fun f -> f b) !state_subscribers
  end

let enable () = set_state true
let disable () = set_state false
let set_clock c = clock := c
let now () = !clock ()

(* Origin for span start offsets: trace exporters want begin timestamps
   relative to a session origin, not absolute wall time. Re-anchored on
   every [reset] so back-to-back runs start from zero. *)
let origin = ref (Unix.gettimeofday ())

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

(* Metric dimensions (router, policy, query kind, fault class, ...).
   A labeled metric is registered under its full name,
   [name{k="v",k2="v2"}] with keys sorted, so the unlabeled API is
   exactly the zero-label case and every existing consumer (snapshots,
   reports, the bench diff) sees labeled series as ordinary metrics
   with a richer name. *)
module Labels = struct
  type t = (string * string) list (* sorted by key *)

  let canon kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

  let escape v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let encode = function
    | [] -> ""
    | kvs ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) kvs)
        ^ "}"

  (* Canonicalize here too, so a name rebuilt from an unsorted label
     list still matches the registered series. *)
  let full_name name kvs = name ^ encode (canon kvs)
end

(* ------------------------------------------------------------------ *)
(* The registry                                                       *)
(* ------------------------------------------------------------------ *)

(* What every series carries, whatever its kind. *)
type meta = {
  name : string; (* full name, labels encoded *)
  base : string;
  labels : Labels.t;
}

(* One registry per metric kind, so counters, histograms and gauges
   keep separate tables. [clear] returns a kept (zero-label) series to
   its initial state on [reset]. *)
module Registry (K : sig
  type t

  val create : meta -> t
  val meta : t -> meta
  val clear : t -> unit
end) =
struct
  let table : (string, K.t) Hashtbl.t = Hashtbl.create 64

  let labeled base kvs =
    let labels = Labels.canon kvs in
    let name = Labels.full_name base labels in
    locked (fun () ->
        match Hashtbl.find_opt table name with
        | Some s -> s
        | None ->
            let s = K.create { name; base; labels } in
            Hashtbl.add table name s;
            s)

  let make name = labeled name []
  let name s = (K.meta s).name
  let base_name s = (K.meta s).base
  let labels s = (K.meta s).labels
  let find name = locked (fun () -> Hashtbl.find_opt table name)
  let find_labeled base kvs = find (Labels.full_name base kvs)

  let all () =
    locked (fun () -> Hashtbl.fold (fun name s acc -> (name, s) :: acc) table [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd

  (* Clear the statically declared (zero-label) series, whose handles
     live in module bodies across resets, and drop the labeled series
     outright: their users register them again per run (per pool
     domain, per LLM endpoint), so a reset keeps no series of a label
     set the next run does not use. *)
  let reset () =
    locked (fun () ->
        Hashtbl.filter_map_inplace
          (fun _ s ->
            if (K.meta s).labels = [] then begin
              K.clear s;
              Some s
            end
            else None)
          table)
end

(* The per-domain shards of a counter or histogram. The key's init
   closure runs on the first [Domain.DLS.get] in each domain (an
   increment path, never while the registry mutex is held) and links
   the fresh shard into the series. Shards of kept series stay linked
   across resets (their owning domains may still hold the DLS slot) and
   are cleared in place. *)
let shard_key shards fresh =
  Domain.DLS.new_key (fun () ->
      let s = fresh () in
      locked (fun () -> shards := s :: !shards);
      s)

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* One shard per (series, domain): only its owning domain ever
     writes it, so [incr] is a race-free field update with no lock. *)
  type shard = { mutable v : int }

  type t = {
    meta : meta;
    shards : shard list ref; (* appended under the registry mutex *)
    key : shard Domain.DLS.key;
  }

  include Registry (struct
    type nonrec t = t

    let meta c = c.meta

    let create meta =
      let shards = ref [] in
      { meta; shards; key = shard_key shards (fun () -> { v = 0 }) }

    let clear c = List.iter (fun s -> s.v <- 0) !(c.shards)
  end)

  let incr ?(by = 1) c =
    if !enabled_flag then begin
      let s = Domain.DLS.get c.key in
      s.v <- s.v + by
    end

  let value c = List.fold_left (fun acc s -> acc + s.v) 0 !(c.shards)
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Upper bounds in ns: 1us .. 10s, then +inf as the overflow bucket. *)
  let bounds =
    [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; infinity |]

  (* Per-domain shard, like {!Counter.shard}. [fstats] packs sum and
     max into a flat float array so an observation never boxes a float
     (a mutable float field in an int-carrying record would). *)
  type shard = {
    counts : int array; (* one slot per bound *)
    mutable count : int;
    fstats : float array; (* [| sum_ns; max_ns |] *)
  }

  type t = { meta : meta; shards : shard list ref; key : shard Domain.DLS.key }

  include Registry (struct
    type nonrec t = t

    let meta h = h.meta

    let create meta =
      let shards = ref [] in
      let fresh () =
        { counts = Array.make (Array.length bounds) 0; count = 0; fstats = [| 0.; 0. |] }
      in
      { meta; shards; key = shard_key shards fresh }

    let clear h =
      List.iter
        (fun s ->
          Array.fill s.counts 0 (Array.length s.counts) 0;
          s.count <- 0;
          s.fstats.(0) <- 0.;
          s.fstats.(1) <- 0.)
        !(h.shards)
  end)

  let slot ns =
    let rec go i = if ns <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe_ns h ns =
    if !enabled_flag then begin
      let ns = if ns < 0. then 0. else ns in
      let s = Domain.DLS.get h.key in
      let i = slot ns in
      s.counts.(i) <- s.counts.(i) + 1;
      s.count <- s.count + 1;
      s.fstats.(0) <- s.fstats.(0) +. ns;
      if ns > s.fstats.(1) then s.fstats.(1) <- ns
    end

  let count h = List.fold_left (fun acc s -> acc + s.count) 0 !(h.shards)

  let sum_ns h =
    List.fold_left (fun acc s -> acc +. s.fstats.(0)) 0. !(h.shards)

  let max_ns h =
    List.fold_left (fun acc s -> Float.max acc s.fstats.(1)) 0. !(h.shards)

  let buckets h =
    let counts = Array.make (Array.length bounds) 0 in
    List.iter
      (fun s -> Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts)
      !(h.shards);
    let cum = ref 0 in
    Array.to_list
      (Array.mapi
         (fun i b ->
           cum := !cum + counts.(i);
           (b, !cum))
         bounds)
end

(* ------------------------------------------------------------------ *)
(* Gauges                                                             *)
(* ------------------------------------------------------------------ *)

module Gauge = struct
  (* A point-in-time sample: either pushed with [set] or pulled from a
     collector closure at read time. Gauges are not sharded — sets are
     rare (batch boundaries, not per-task), and last-writer-wins is the
     natural gauge semantics. *)
  type t = {
    meta : meta;
    mutable value : float;
    mutable collect : (unit -> float) option;
  }

  include Registry (struct
    type nonrec t = t

    let meta g = g.meta
    let create meta = { meta; value = 0.; collect = None }

    (* Pushed gauges return to 0; collectors keep collecting (their
       value is ambient process state, not run state). *)
    let clear g = if g.collect = None then g.value <- 0.
  end)

  let collector name f =
    let g = make name in
    g.collect <- Some f;
    g

  let set g v = if !enabled_flag then g.value <- v

  (* Collectors are sampled on every read (a failing collector keeps
     the last good sample); pushed gauges just return the cell. *)
  let value g =
    match g.collect with
    | None -> g.value
    | Some f -> (
        match f () with
        | v ->
            g.value <- v;
            v
        | exception _ -> g.value)

  let sample_all () = List.map (fun g -> (name g, value g)) (all ())
end

(* Built-in runtime collectors: GC pressure for the whole process.
   [Gc.quick_stat] reads cached counters without forcing a collection,
   so sampling these in a mid-run snapshot is safe. The collection
   counts run from program start; the heap sizes are in words, live
   words as of the last major slice. *)
let () =
  let qs f () = f (Gc.quick_stat ()) in
  ignore
    (Gauge.collector "runtime.gc.minor_collections"
       (qs (fun s -> float_of_int s.Gc.minor_collections)));
  ignore
    (Gauge.collector "runtime.gc.major_collections"
       (qs (fun s -> float_of_int s.Gc.major_collections)));
  ignore
    (Gauge.collector "runtime.gc.heap_words"
       (qs (fun s -> float_of_int s.Gc.heap_words)));
  ignore
    (Gauge.collector "runtime.gc.live_words"
       (qs (fun s -> float_of_int s.Gc.live_words)))

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type t = {
    path : string;
    depth : int;
    start_ns : float; (* offset from the origin of the current reset *)
    duration_ns : float;
    seq : int;
  }
end

type sink = { on_span : Span.t -> unit }

let silent = { on_span = (fun _ -> ()) }

let tee a b =
  {
    on_span =
      (fun s ->
        a.on_span s;
        b.on_span s);
  }

let pp_duration fmt ns =
  if ns >= 1e9 then Format.fprintf fmt "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Format.fprintf fmt "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Format.fprintf fmt "%.2f us" (ns /. 1e3)
  else Format.fprintf fmt "%.0f ns" ns

let text_sink fmt =
  {
    on_span =
      (fun (s : Span.t) ->
        Format.fprintf fmt "[trace] %*s%s %a@." (2 * s.depth) "" s.path
          pp_duration s.duration_ns);
  }

let current_sink = ref silent
let set_sink s = current_sink := s
let add_sink s = current_sink := tee !current_sink s
let next_seq = ref 0

(* Stack of open spans: (path, start seconds). Domain-local, so each
   worker domain nests its own spans without seeing (or corrupting)
   another domain's open stack; worker roots become separate thread
   lanes in the Chrome-trace export. *)
let stack_key : (string * float) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let current_path () = match !(stack ()) with [] -> "" | (p, _) :: _ -> p

(* The sequence counter and the sink are shared across domains;
   serialize completions so concurrent workers never corrupt them.
   Completion (seq) order between domains is scheduling-dependent;
   within one domain it stays close order. *)
let record path depth start_ns duration_ns =
  locked (fun () ->
      let seq = !next_seq in
      incr next_seq;
      !current_sink.on_span { Span.path; depth; start_ns; duration_ns; seq })

let with_span name f =
  if not !enabled_flag then f ()
  else begin
    let stack = stack () in
    let path =
      match !stack with [] -> name | (parent, _) :: _ -> parent ^ "." ^ name
    in
    let depth = List.length !stack in
    stack := (path, !clock ()) :: !stack;
    let finish () =
      match !stack with
      | (p, t0) :: rest when p == path ->
          stack := rest;
          let duration_ns = (!clock () -. t0) *. 1e9 in
          let duration_ns = if duration_ns < 0. then 0. else duration_ns in
          let start_ns = (t0 -. !origin) *. 1e9 in
          let start_ns = if start_ns < 0. then 0. else start_ns in
          Histogram.observe_ns (Histogram.make path) duration_ns;
          record path depth start_ns duration_ns
      | _ -> () (* disabled or reset mid-span: drop silently *)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Clears *every* piece of mutable state this module accumulates —
   counters, histograms and gauges (labeled series dropped entirely),
   the span sequence counter, the open-span stack, and the start-offset
   origin — so two back-to-back identical runs produce identical
   snapshots and spans (under a deterministic clock). Sinks,
   subscribers, collectors and the enabled state are configuration, not
   run state, and are kept. *)
let reset () =
  Counter.reset ();
  Histogram.reset ();
  Gauge.reset ();
  locked (fun () -> next_seq := 0);
  stack () := [];
  origin := !clock ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type hist = {
    count : int;
    sum_ns : float;
    max_ns : float;
    buckets : (float * int) list; (* (upper_bound_ns, cumulative) *)
  }

  type t = {
    counters : (string * int) list; (* sorted by name, non-zero only *)
    gauges : (string * float) list; (* sorted by name, every series *)
    histograms : (string * hist) list;
  }

  let capture () =
    let counters =
      List.filter_map
        (fun c ->
          let v = Counter.value c in
          if v = 0 then None else Some (Counter.name c, v))
        (Counter.all ())
    in
    let gauges = Gauge.sample_all () in
    let histograms =
      List.filter_map
        (fun h ->
          let count = Histogram.count h in
          if count = 0 then None
          else
            Some
              ( Histogram.name h,
                {
                  count;
                  sum_ns = Histogram.sum_ns h;
                  max_ns = Histogram.max_ns h;
                  buckets = Histogram.buckets h;
                } ))
        (Histogram.all ())
    in
    { counters; gauges; histograms }

  let mean_ns (h : hist) =
    if h.count = 0 then 0. else h.sum_ns /. float_of_int h.count

  (* Gauges are point-in-time samples (GC state, pool occupancy) and
     deliberately excluded: equality is the determinism check used by
     the serial-vs-parallel gates, which gauges would always fail. *)
  let equal a b =
    a.counters = b.counters
    && List.length a.histograms = List.length b.histograms
    && List.for_all2
         (fun (na, ha) (nb, hb) ->
           na = nb && ha.count = hb.count && ha.sum_ns = hb.sum_ns
           && ha.max_ns = hb.max_ns && ha.buckets = hb.buckets)
         a.histograms b.histograms

  (* Bucket bounds: infinity is not valid JSON, so the overflow bound is
     encoded as the string "inf". *)
  let bound_to_json b =
    if b = infinity then Json.String "inf" else Json.Float b

  let bound_of_json = function
    | Json.String "inf" -> Some infinity
    | Json.Float f -> Some f
    | Json.Int i -> Some (float_of_int i)
    | _ -> None

  let to_json t =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) t.counters) );
        ( "gauges",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) t.gauges) );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (n, h) ->
                 ( n,
                   Json.Obj
                     [
                       ("count", Json.Int h.count);
                       ("sum_ns", Json.Float h.sum_ns);
                       ("max_ns", Json.Float h.max_ns);
                       ( "buckets",
                         Json.List
                           (List.map
                              (fun (b, c) ->
                                Json.List [ bound_to_json b; Json.Int c ])
                              h.buckets) );
                     ] ))
               t.histograms) );
      ]

  let of_json j =
    let ( let* ) r f = Result.bind r f in
    let obj_fields name =
      match Json.member name j with
      | Some (Json.Obj fields) -> Ok fields
      | Some _ -> Error (Printf.sprintf "snapshot: %S is not an object" name)
      | None -> Error (Printf.sprintf "snapshot: missing %S" name)
    in
    let num = function
      | Json.Float f -> Some f
      | Json.Int i -> Some (float_of_int i)
      | _ -> None
    in
    let* counter_fields = obj_fields "counters" in
    let* counters =
      List.fold_left
        (fun acc (n, v) ->
          let* acc = acc in
          match Json.to_int v with
          | Some i -> Ok ((n, i) :: acc)
          | None -> Error (Printf.sprintf "snapshot: counter %S not an int" n))
        (Ok []) counter_fields
    in
    (* Absent in snapshots written before gauges existed. *)
    let* gauges =
      match Json.member "gauges" j with
      | None -> Ok []
      | Some (Json.Obj fields) ->
          List.fold_left
            (fun acc (n, v) ->
              let* acc = acc in
              match num v with
              | Some f -> Ok ((n, f) :: acc)
              | None ->
                  Error (Printf.sprintf "snapshot: gauge %S not a number" n))
            (Ok []) fields
          |> Result.map List.rev
      | Some _ -> Error "snapshot: \"gauges\" is not an object"
    in
    let* hist_fields = obj_fields "histograms" in
    let hist_of_json n hj =
      let get name = Json.member name hj in
      let* count =
        match Option.bind (get "count") Json.to_int with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "snapshot: histogram %S: bad count" n)
      in
      let fnum name =
        match Option.bind (get name) num with
        | Some f -> Ok f
        | None ->
            Error (Printf.sprintf "snapshot: histogram %S: bad %s" n name)
      in
      let* sum_ns = fnum "sum_ns" in
      let* max_ns = fnum "max_ns" in
      let* buckets =
        match Option.bind (get "buckets") Json.to_list with
        | None -> Error (Printf.sprintf "snapshot: histogram %S: no buckets" n)
        | Some items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match item with
                | Json.List [ b; c ] -> (
                    match (bound_of_json b, Json.to_int c) with
                    | Some b, Some c -> Ok ((b, c) :: acc)
                    | _ ->
                        Error
                          (Printf.sprintf "snapshot: histogram %S: bad bucket"
                             n))
                | _ ->
                    Error
                      (Printf.sprintf "snapshot: histogram %S: bad bucket" n))
              (Ok []) items
            |> Result.map List.rev
      in
      Ok { count; sum_ns; max_ns; buckets }
    in
    let* histograms =
      List.fold_left
        (fun acc (n, hj) ->
          let* acc = acc in
          let* h = hist_of_json n hj in
          Ok ((n, h) :: acc))
        (Ok []) hist_fields
    in
    Ok
      {
        counters = List.rev counters;
        gauges;
        histograms = List.rev histograms;
      }
end

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let pp_report fmt () =
  let { Snapshot.counters; gauges; histograms } = Snapshot.capture () in
  Format.fprintf fmt "@[<v>=== Observability snapshot ===@,";
  if counters = [] && histograms = [] then
    Format.fprintf fmt "(no events recorded; is the layer enabled?)@,"
  else begin
    if counters <> [] then begin
      Format.fprintf fmt "counters:@,";
      List.iter (fun (n, v) -> Format.fprintf fmt "  %-48s %10d@," n v) counters
    end;
    if gauges <> [] then begin
      Format.fprintf fmt "gauges:@,";
      List.iter
        (fun (n, v) ->
          if Float.is_integer v && Float.abs v < 1e15 then
            Format.fprintf fmt "  %-48s %10.0f@," n v
          else Format.fprintf fmt "  %-48s %10.2f@," n v)
        gauges
    end;
    if histograms <> [] then begin
      Format.fprintf fmt "latencies (per span path):@,";
      List.iter
        (fun (n, (h : Snapshot.hist)) ->
          Format.fprintf fmt "  %-48s n=%-6d total=%a mean=%a max=%a@," n
            h.count pp_duration h.sum_ns pp_duration (Snapshot.mean_ns h)
            pp_duration h.max_ns)
        histograms
    end
  end;
  Format.fprintf fmt "@]"
