type t = int

let max_addr = (1 lsl 32) - 1
let zero = 0
let broadcast = max_addr

let of_int n =
  if n < 0 || n > max_addr then invalid_arg "Ipv4.of_int: out of range";
  n

let to_int a = a

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets" in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let rec dot s stop i = if i < stop && s.[i] <> '.' then dot s stop (i + 1) else i

(* The dotted quad in s.[i, stop), or -1: four octets of one to three
   decimal digits, each at most 255; [k] octets are read into [acc]. *)
let rec octets s stop k i acc =
  let j = dot s stop i in
  let o = if j - i <= 3 then Decimal.parse s i (j - i) else -1 in
  if o < 0 || o > 255 then -1
  else
    let acc = (acc lsl 8) lor o in
    if k = 3 then if j = stop then acc else -1
    else if j = stop then -1
    else octets s stop (k + 1) (j + 1) acc

let scan s pos len = octets s (pos + len) 0 pos 0

let of_substring s pos len =
  match scan s pos len with -1 -> None | a -> Some a

let of_string s = of_substring s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let write b a =
  Decimal.write b ((a lsr 24) land 0xff);
  Buffer.add_char b '.';
  Decimal.write b ((a lsr 16) land 0xff);
  Buffer.add_char b '.';
  Decimal.write b ((a lsr 8) land 0xff);
  Buffer.add_char b '.';
  Decimal.write b (a land 0xff)

let to_string a =
  let b = Buffer.create 15 in
  write b a;
  Buffer.contents b

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit";
  (a lsr (31 - i)) land 1 = 1

let with_bit a i v =
  if i < 0 || i > 31 then invalid_arg "Ipv4.with_bit";
  let m = 1 lsl (31 - i) in
  if v then a lor m else a land lnot m land max_addr

let mask len =
  if len < 0 || len > 32 then invalid_arg "Ipv4.mask";
  if len = 0 then 0 else (max_addr lsl (32 - len)) land max_addr

let wildcard_of_mask m = lnot m land max_addr
let logand = ( land )
let succ a = (a + 1) land max_addr
let compare = Int.compare
let equal = Int.equal
let pp fmt a = Format.pp_print_string fmt (to_string a)
