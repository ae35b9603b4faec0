type t = { asn : int; value : int }

let make asn value =
  if asn < 0 || asn > 65535 || value < 0 || value > 65535 then
    invalid_arg "Community.make: halves must fit 16 bits";
  { asn; value }

let rec colon s stop i = if i < stop && s.[i] <> ':' then colon s stop (i + 1) else i

let of_substring s pos len =
  let stop = pos + len in
  let i = colon s stop pos in
  let a = Netaddr.Decimal.parse s pos (i - pos)
  and b = if i = stop then -1 else Netaddr.Decimal.parse s (i + 1) (stop - i - 1) in
  if a >= 0 && a <= 65535 && b >= 0 && b <= 65535 then Some (make a b) else None

let of_string s = of_substring s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Community.of_string_exn: %S" s)

let write b c =
  Netaddr.Decimal.write b c.asn;
  Buffer.add_char b ':';
  Netaddr.Decimal.write b c.value

let to_string c =
  let b = Buffer.create 11 in
  write b c;
  Buffer.contents b

let to_pair c = (c.asn, c.value)
let no_export = make 65535 65281
let no_advertise = make 65535 65282

let compare a b =
  match Int.compare a.asn b.asn with
  | 0 -> Int.compare a.value b.value
  | c -> c

let equal a b = compare a b = 0
let pp fmt c = Format.pp_print_string fmt (to_string c)
