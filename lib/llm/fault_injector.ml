(** Deterministic fault injection for the simulated LLM.

    Real LLMs mistranslate intents in characteristic ways; each fault
    below models one error class observed in LLM-generated router
    configuration (wrong mask bounds, inverted actions, hallucinated
    list names, dropped or altered set clauses, malformed syntax). A
    fault transforms the synthesized config {e text}, exactly where a
    real model's error would appear. *)

type fault =
  | Mask_off_by_one (* "le 23" becomes "le 24" *)
  | Flip_action (* permit <-> deny on the stanza line *)
  | Hallucinate_name (* reference an undefined list *)
  | Drop_set_clause (* lose a "set ..." line *)
  | Wrong_set_value (* numeric set argument off by one *)
  | Wrong_community (* community value off by one *)
  | Syntax_error (* mangle the route-map keyword *)

let all_faults =
  [
    Mask_off_by_one;
    Flip_action;
    Hallucinate_name;
    Drop_set_clause;
    Wrong_set_value;
    Wrong_community;
    Syntax_error;
  ]

let fault_to_string = function
  | Mask_off_by_one -> "mask-off-by-one"
  | Flip_action -> "flip-action"
  | Hallucinate_name -> "hallucinate-name"
  | Drop_set_clause -> "drop-set-clause"
  | Wrong_set_value -> "wrong-set-value"
  | Wrong_community -> "wrong-community"
  | Syntax_error -> "syntax-error"

(* Observability: total injections plus one labeled series per fault
   class, so a breakdown by class is one label dimension rather than
   seven unrelated metric names. *)
let injected_total = Obs.Counter.make "llm.faults.injected"

let class_counter fault =
  Obs.Counter.labeled "llm.faults.injected"
    [ ("class", fault_to_string fault) ]

let map_lines f text =
  String.split_on_char '\n' text |> List.filter_map f |> String.concat "\n"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Replace the first occurrence of a regex-free needle. *)
let replace_first line needle replacement =
  let hn = String.length line and nn = String.length needle in
  let rec find i =
    if i + nn > hn then None
    else if String.sub line i nn = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      Some
        (String.sub line 0 i ^ replacement
        ^ String.sub line (i + nn) (hn - i - nn))

(* Bump the last integer on the line by one. *)
let bump_last_int line =
  let n = String.length line in
  let rec last_digit i = if i < 0 then None else if line.[i] >= '0' && line.[i] <= '9' then Some i else last_digit (i - 1) in
  match last_digit (n - 1) with
  | None -> None
  | Some hi ->
      let rec lo i =
        if i < 0 || line.[i] < '0' || line.[i] > '9' then i + 1 else lo (i - 1)
      in
      let lo = lo hi in
      let v = int_of_string (String.sub line lo (hi - lo + 1)) in
      Some
        (String.sub line 0 lo
        ^ string_of_int (v + 1)
        ^ String.sub line (hi + 1) (n - hi - 1))

(** Apply a fault to the config text. Returns [None] when the fault has
    nothing to corrupt (e.g. no mask bound present); callers then fall
    back to the next scheduled fault or to clean output. *)
let apply fault text =
  let changed = ref false in
  let once f line = if !changed then Some line else match f line with Some l -> changed := true; Some l | None -> Some line in
  let result =
    match fault with
    | Mask_off_by_one ->
        map_lines
          (once (fun line ->
               if starts_with "ip prefix-list" line then
                 match bump_last_int line with
                 | Some l when l <> line -> Some l
                 | _ -> None
               else None))
          text
    | Flip_action ->
        map_lines
          (once (fun line ->
               if starts_with "route-map" line || String.trim line |> starts_with "permit" || String.trim line |> starts_with "deny" then
                 match replace_first line " permit " " deny " with
                 | Some l -> Some l
                 | None -> replace_first line " deny " " permit "
               else None))
          text
    | Hallucinate_name ->
        map_lines
          (once (fun line ->
               let t = String.trim line in
               if starts_with "match ip address prefix-list" t
                 || starts_with "match community" t
                 || starts_with "match as-path" t
               then Some (line ^ "_X")
               else None))
          text
    | Drop_set_clause ->
        let dropped = ref false in
        let out =
          map_lines
            (fun line ->
              if (not !dropped) && starts_with "set " (String.trim line) then begin
                dropped := true;
                None
              end
              else Some line)
            text
        in
        changed := !dropped;
        out
    | Wrong_set_value ->
        map_lines
          (once (fun line ->
               let t = String.trim line in
               if starts_with "set metric" t || starts_with "set local-preference" t
                 || starts_with "set tag" t || starts_with "set weight" t
               then bump_last_int line
               else None))
          text
    | Wrong_community ->
        map_lines
          (once (fun line ->
               if starts_with "ip community-list" line then bump_last_int line
               else None))
          text
    | Syntax_error ->
        map_lines
          (once (fun line ->
               if starts_with "route-map" line then
                 replace_first line "route-map" "route-mp"
               else if starts_with "ip access-list" line then
                 replace_first line "access-list" "acess-list"
               else None))
          text
  in
  if !changed then begin
    Obs.Counter.incr injected_total;
    Obs.Counter.incr (class_counter fault);
    Some result
  end
  else None

(** A deterministic schedule of faults drawn from a seed: attempt [i]
    of a synthesis loop consumes entry [i]; an empty tail means clean
    output, so every schedule eventually converges. *)
let schedule ~seed ~faulty_attempts =
  let rng = Random.State.make [| seed |] in
  List.init faulty_attempts (fun _ ->
      List.nth all_faults (Random.State.int rng (List.length all_faults)))
