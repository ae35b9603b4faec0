type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c = c' -> advance st
  | Some c' -> fail "expected %C at offset %d, found %C" c st.pos c'
  | None -> fail "expected %C at offset %d, found end of input" c st.pos

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at offset %d" st.pos
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'u' ->
            advance st;
            let hex = Bytes.create 4 in
            for i = 0 to 3 do
              (match peek st with
              | Some c -> Bytes.set hex i c
              | None -> fail "truncated \\u escape");
              advance st
            done;
            let code =
              match int_of_string_opt ("0x" ^ Bytes.to_string hex) with
              | Some c -> c
              | None -> fail "bad \\u escape %S" (Bytes.to_string hex)
            in
            (* Encode as UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | Some c -> fail "bad escape \\%C" c
        | None -> fail "truncated escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let lit = String.sub st.src start (st.pos - start) in
  match int_of_string_opt lit with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number %S at offset %d" lit start)

let parse_literal st lit value =
  String.iter (fun c -> expect st c) lit;
  value

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws st;
          expect st '"';
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" st.pos
        in
        Obj (fields [])
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" st.pos
        in
        List (items [])
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected character %C at offset %d" c st.pos

let parse_exn src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then
    fail "trailing characters at offset %d" st.pos;
  v

let parse src =
  match parse_exn src with v -> Ok v | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_string ?(indent = 2) t =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) v)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if indent > 0 then ": " else ":");
            go (depth + 1) v)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let equal = ( = )
let pp fmt t = Format.pp_print_string fmt (to_string t)
