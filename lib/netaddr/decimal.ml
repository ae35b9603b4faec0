(* Top-level loops, not local closures: reading a number allocates
   nothing. *)
let rec digits s stop i n =
  if i = stop then n
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if n > (max_int - d) / 10 then -1 else digits s stop (i + 1) ((n * 10) + d)
    | _ -> -1

let parse s pos len = if len <= 0 then -1 else digits s (pos + len) pos 0

let rec write b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then write b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end
