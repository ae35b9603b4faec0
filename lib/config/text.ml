let list b sep write xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b sep;
      write b x)
    xs

let to_string write x =
  let b = Buffer.create 256 in
  write b x;
  Buffer.contents b

let pp write fmt x = Format.pp_print_string fmt (to_string write x)
