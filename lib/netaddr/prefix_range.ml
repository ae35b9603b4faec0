type t = { prefix : Prefix.t; lo : int; hi : int }

let make prefix ~ge ~le =
  let len = prefix.Prefix.len in
  let lo, hi =
    match (ge, le) with
    | None, None -> (len, len)
    | None, Some e -> (len, e)
    | Some g, None -> (g, 32)
    | Some g, Some e -> (g, e)
  in
  if not (len <= lo && lo <= hi && hi <= 32) then
    invalid_arg "Prefix_range.make: bounds must satisfy len <= ge <= le <= 32";
  { prefix; lo; hi }

let exact prefix = make prefix ~ge:None ~le:None
let any = make Prefix.default ~ge:None ~le:(Some 32)

let matches t q =
  let open Prefix in
  q.len >= t.lo && q.len <= t.hi
  && Ipv4.equal (Ipv4.logand q.ip (Ipv4.mask t.prefix.len)) t.prefix.ip

let witness t = Prefix.make t.prefix.Prefix.ip t.lo

(* Two ranges share a matched route prefix iff their length windows
   intersect and one base extends the other; the shared prefixes then
   extend the longer base. *)
let inter a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi || not (Prefix.overlap a.prefix b.prefix) then None
  else
    let prefix = if a.prefix.len >= b.prefix.len then a.prefix else b.prefix in
    Some { prefix; lo; hi }

let witness_overlap a b = Option.map witness (inter a b)
let overlap a b = Option.is_some (inter a b)

(* At length [l] a range matches the /l prefixes of its base's address
   block or none, and which ranges match changes only at some range's
   [lo] or [hi + 1]; so the first of those lengths at which [r]'s block
   is not covered has the shortest uncovered prefixes, and the lowest
   address left (aligned, like every block) is the lowest of them. *)
let first_uncovered r rs =
  let rs = List.filter (overlap r) rs in
  let block t =
    Intset.range (Ipv4.to_int t.prefix.ip) (Ipv4.to_int (Prefix.last t.prefix))
  in
  let first_at l =
    List.fold_left
      (fun left t ->
        if t.lo <= l && l <= t.hi then Intset.diff left (block t) else left)
      (block r) rs
    |> Intset.choose
    |> Option.map (fun a -> Prefix.make (Ipv4.of_int a) l)
  in
  List.concat_map (fun t -> [ t.lo; t.hi + 1 ]) rs
  |> List.filter (fun l -> r.lo < l && l <= r.hi)
  |> List.sort_uniq Int.compare
  |> List.cons r.lo
  |> List.find_map first_at

let subset a b = inter a b = Some a

let compare a b =
  match Prefix.compare a.prefix b.prefix with
  | 0 -> ( match Int.compare a.lo b.lo with 0 -> Int.compare a.hi b.hi | c -> c)
  | c -> c

let equal a b = compare a b = 0

(* Cisco's default bounds, inverted: [ge] is written unless it is the
   prefix's own length, and [le] unless it is the bound the written
   modifiers imply, the prefix's length alone or 32 after a [ge]. *)
let write b t =
  Prefix.write b t.prefix;
  let len = t.prefix.Prefix.len in
  if t.lo <> len then begin
    Buffer.add_string b " ge ";
    Decimal.write b t.lo
  end;
  if t.hi <> if t.lo = len then len else 32 then begin
    Buffer.add_string b " le ";
    Decimal.write b t.hi
  end

let to_string t =
  let b = Buffer.create 32 in
  write b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
