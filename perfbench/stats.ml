(* Sample summaries and process-level readings. *)

(* A growable series of unboxed floats. A timed run keeps every latency
   sample it takes; at 8 bytes each and nothing for the garbage
   collector to scan, they barely move the process's peak RSS or its
   collection work, however many a run takes. *)
module Series = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 16; n = 0 }
  let length t = t.n
  let get t i = Float.Array.get t.a i

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  (* Add every sample of [src] to [dst]. *)
  let append dst src =
    for i = 0 to src.n - 1 do
      add dst (get src i)
    done

  let scale t k =
    for i = 0 to t.n - 1 do
      Float.Array.set t.a i (get t i *. k)
    done

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. get t i
    done;
    !s

  let to_array t = Float.Array.sub t.a 0 t.n
end

let sorted_array a =
  let a = Float.Array.copy a in
  Float.Array.sort Float.compare a;
  a

let median_array a =
  let a = sorted_array a in
  let n = Float.Array.length a and at = Float.Array.get a in
  if n = 0 then 0. else if n mod 2 = 1 then at (n / 2) else (at ((n / 2) - 1) +. at (n / 2)) /. 2.

let median xs = median_array (Float.Array.of_list xs)

(* Nearest-rank percentile [p] (0..100) of a non-empty sorted array. *)
let percentile a p =
  let n = Float.Array.length a in
  Float.Array.get a
    (max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* A tail is reported at a fixed percentile per workload and metric:
   the highest of p90, p99 and p99.9 that keeps at least ten samples
   beyond it at the workload's sample count in a standard run. Should a
   run fall short of ten, the next lower one is used. Returns (value,
   percentile, n). *)
let tail_array ?(pct = 99.) a =
  let a = sorted_array a in
  let n = Float.Array.length a in
  if n = 0 then (0., 0., 0)
  else
    let rec fit p =
      if p <= 90. || float_of_int n *. (1. -. (p /. 100.)) >= 10. then p
      else fit (if p > 99. then 99. else 90.)
    in
    let p = fit pct in
    (percentile a p, p, n)

let tail ?pct xs = tail_array ?pct (Float.Array.of_list xs)

let sum xs = List.fold_left ( +. ) 0. xs

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        try scan () with End_of_file -> 0.)
  with Sys_error _ -> 0.
