type t = int array

let make a =
  if Array.length a = 0 then invalid_arg "Bvec.make: empty";
  Array.iter (fun v -> if v < 0 then invalid_arg "Bvec.make: negative var") a;
  a

let sequential ~first ~width =
  if width <= 0 || first < 0 then invalid_arg "Bvec.sequential";
  Array.init width (fun i -> first + i)

let width = Array.length
let vars t = Array.to_list t
let bit_of_const t n i = (n lsr (width t - 1 - i)) land 1 = 1

let check_const t n =
  let w = width t in
  if n < 0 || (w < 62 && n lsr w <> 0) then
    invalid_arg (Printf.sprintf "Bvec: constant %d does not fit %d bits" n w)

(* The cube fixing bits [0..len-1] to those of [n]. Literals are
   conjoined least significant first: each then sits above the chain
   built so far, so the cube costs one node per bit where conjoining
   from the top re-walks the chain for every literal. *)
let const_cube t n len =
  let acc = ref Bdd.one in
  for i = len - 1 downto 0 do
    acc :=
      Bdd.conj (if bit_of_const t n i then Bdd.var t.(i) else Bdd.nvar t.(i)) !acc
  done;
  !acc

let eq_const t n =
  check_const t n;
  const_cube t n (width t)

let le_const t n =
  check_const t n;
  (* Build from LSB up: le_i handles bits i..end. *)
  let acc = ref Bdd.one in
  for i = width t - 1 downto 0 do
    acc :=
      if bit_of_const t n i then Bdd.ite (Bdd.var t.(i)) !acc Bdd.one
      else Bdd.conj (Bdd.nvar t.(i)) !acc
  done;
  !acc

let ge_const t n =
  check_const t n;
  let acc = ref Bdd.one in
  for i = width t - 1 downto 0 do
    acc :=
      if bit_of_const t n i then Bdd.conj (Bdd.var t.(i)) !acc
      else Bdd.ite (Bdd.var t.(i)) Bdd.one !acc
  done;
  !acc

let in_range t lo hi =
  if lo > hi then invalid_arg "Bvec.in_range";
  Bdd.conj (ge_const t lo) (le_const t hi)

let prefix_match t ~value ~len =
  check_const t value;
  if len < 0 || len > width t then invalid_arg "Bvec.prefix_match";
  const_cube t value len

(* One byte per variable up to the largest assigned one: '\000'
   unassigned, '\001' false, '\002' true. *)
type valuation = Bytes.t

let valuation assignment =
  let size = List.fold_left (fun m (v, _) -> max m (v + 1)) 0 assignment in
  let vals = Bytes.make size '\000' in
  List.iter
    (fun (v, b) ->
      (* The first binding of a variable wins, as with [List.assoc_opt]. *)
      if v >= 0 && Bytes.get vals v = '\000' then
        Bytes.set vals v (if b then '\002' else '\001'))
    assignment;
  vals

let value vals v =
  if v < 0 || v >= Bytes.length vals then None
  else
    match Bytes.get vals v with
    | '\001' -> Some false
    | '\002' -> Some true
    | _ -> None

let read t vals =
  let value = ref 0 in
  let w = width t and size = Bytes.length vals in
  for i = 0 to w - 1 do
    let v = t.(i) in
    if v < size && Bytes.get vals v = '\002' then
      value := !value lor (1 lsl (w - 1 - i))
  done;
  !value
