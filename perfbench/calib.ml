(* The host's speed, read from a fixed piece of work that calls no
   Clarify code.

   On a shared host the same work takes tens of percent longer in some
   minutes than in others, on wall clock and CPU clock alike, so raw
   times from runs minutes apart disagree by more than any change worth
   measuring. The benchmark times this kernel on every domain it uses,
   before and after each window of the workload, and scales the window's
   times to a host on which one kernel takes [reference] seconds.

   The kernel allocates nothing, so neither the program's heap nor its
   garbage collector settings change how long it takes: only the host
   does. It mixes integer hashing, read-modify-write over a 256 KiB table
   (cache-resident, as the BDD arena's hot tables are) and a
   data-dependent binary search. *)

let reference = 0.004

let kernel_size = 1 lsl 15

(* One table per domain, so that domains do not share cache lines. *)
let table = Domain.DLS.new_key (fun () -> Array.init kernel_size (fun i -> i * 7))

let kernel () =
  let t = Domain.DLS.get table in
  let mask = kernel_size - 1 in
  let x = ref 12345 and acc = ref 0 in
  for i = 0 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land mask in
    t.(k) <- t.(k) + i;
    (* the first slot at or above [!x land mask] whose value is even *)
    let lo = ref 0 and hi = ref mask in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if mid < k || t.(mid) land 1 = 1 then lo := mid + 1 else hi := mid
    done;
    acc := !acc lxor !lo
  done;
  !acc

(* Seconds one kernel takes now on each of [pool]'s domains: [per_domain]
   kernels per domain through the pool, wall time times domains over
   kernels run. The pool's own cost per task is microseconds against the
   kernel's milliseconds, so a change to the scheduler barely moves it. *)
let measure ?(per_domain = 4) pool =
  let d = Parallel.Pool.domains pool in
  let n = per_domain * d in
  let t0 = Unix.gettimeofday () in
  ignore
    (Sys.opaque_identity
       (Parallel.Pool.map pool ~f:(fun _ -> kernel ()) (List.init n Fun.id)));
  (Unix.gettimeofday () -. t0) *. float_of_int d /. float_of_int n

(* The factor that takes times measured between readings [before] and
   [after] to the reference host. *)
let scale ~before ~after = reference /. ((before +. after) /. 2.)
