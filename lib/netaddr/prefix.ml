type t = { ip : Ipv4.t; len : int }

let make ip len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make";
  { ip = Ipv4.logand ip (Ipv4.mask len); len }

let rec slash s stop i = if i < stop && s.[i] <> '/' then slash s stop (i + 1) else i

let of_substring s pos len =
  let stop = pos + len in
  let i = slash s stop pos in
  if i = stop then None
  else
    match Ipv4.of_substring s pos (i - pos) with
    | None -> None
    | Some ip ->
        let len = Decimal.parse s (i + 1) (stop - i - 1) in
        if len >= 0 && len <= 32 then Some (make ip len) else None

let of_string s = of_substring s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let write b p =
  Ipv4.write b p.ip;
  Buffer.add_char b '/';
  Decimal.write b p.len

let to_string p =
  let b = Buffer.create 18 in
  write b p;
  Buffer.contents b
let default = make Ipv4.zero 0
let host ip = make ip 32

let contains_ip p a =
  Ipv4.equal (Ipv4.logand a (Ipv4.mask p.len)) p.ip

let subset p q = p.len >= q.len && contains_ip q p.ip
let overlap p q = subset p q || subset q p
let first p = p.ip

let last p =
  Ipv4.of_int
    (Ipv4.to_int p.ip lor Ipv4.to_int (Ipv4.wildcard_of_mask (Ipv4.mask p.len)))

let split p =
  if p.len = 32 then None
  else
    let len = p.len + 1 in
    let lo = make p.ip len in
    let hi = make (Ipv4.with_bit p.ip p.len true) len in
    Some (lo, hi)

let compare p q =
  match Ipv4.compare p.ip q.ip with 0 -> Int.compare p.len q.len | c -> c

let equal p q = compare p q = 0
let pp fmt p = Format.pp_print_string fmt (to_string p)
