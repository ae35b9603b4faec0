(** Test helper: mutated example configs, for properties over malformed
    input. The seeds are the configs the examples and E1 ship; each case
    applies 1-3 mutations to one of them: a deletion, a fragment
    insertion, a number already there replaced by one at either side
    of a field's width, or a list entry or stanza header copied to
    another line. [mutate] and [mutated] serve the properties over
    prompts and logs too, with their own seeds and fragments. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let seeds =
  lazy
    [|
      read_file "../examples/lab_edge.txt";
      read_file "../examples/batch_demo.conf";
      Evaluation.E1_running_example.isp_out_config;
    |]

let fragments =
  [|
    "\n"; " "; "permit "; "deny "; " eq "; " range "; " le "; " ge ";
    " lt "; " gt "; " neq "; " any"; " host "; " tcp"; " udp"; " ip"; "/";
    "."; " 0.0.0.255"; " established"; "route-map T permit 5\n";
    " match ip address prefix-list D1\n"; " match metric ";
    " match tag "; " match local-preference "; " set local-preference ";
    " set metric "; " match community C\n";
    "ip prefix-list D1 seq 5 permit 0.0.0.0/0 le 32\n";
    "ip community-list expanded C permit _300:[0-9]+_\n";
    "ip access-list extended A\n";
  |]

let splice_numbers =
  [|
    "0"; "32"; "33"; "63"; "64"; "255"; "256"; "65535"; "65536";
    "4294967295"; "4294967296"; "18446744073709551616";
  |]

(* One mutation of [text]: a deletion of 1-12 bytes, one of [fragments]
   inserted, or the first run of digits from a random point on (or from
   the start) replaced by one of [numbers]. *)
let mutate ~fragments ~numbers rng text =
  let n = String.length text in
  let at = if n = 0 then 0 else Random.State.int rng (n + 1) in
  let cut a b = String.sub text 0 a ^ String.sub text b (n - b) in
  let put a b middle = String.sub text 0 a ^ middle ^ String.sub text b (n - b) in
  match Random.State.int rng 3 with
  | 0 -> cut at (min n (at + 1 + Random.State.int rng 12))
  | 1 -> put at at fragments.(Random.State.int rng (Array.length fragments))
  | _ -> (
      let is_digit i = text.[i] >= '0' && text.[i] <= '9' in
      let rec first i = if i >= n then None else if is_digit i then Some i else first (i + 1) in
      match (match first at with None -> first 0 | found -> found) with
      | None -> text
      | Some a ->
          let rec stop b = if b < n && is_digit b then stop (b + 1) else b in
          put a (stop a) numbers.(Random.State.int rng (Array.length numbers)))

(* [k] (1-3) mutations of a text from [gen], each drawn by [mutate]. *)
let mutated gen mutate =
  QCheck.Gen.(
    gen >>= fun text ->
    int_range 1 3 >>= fun k ->
    fun rng ->
      let text = ref text in
      for _ = 1 to k do
        text := mutate rng !text
      done;
      !text)

(* One line that opens a list entry or a stanza ([ip ...] or
   [route-map ...]) copied to the start of a random line, before or
   after it. Its list then holds a duplicate seq, or its map a
   duplicate stanza header, which [finalize] locates at the later of
   the two lines. Two copies make two lists fail, and the list with the
   earliest error need not be the one the reference checks first, as
   when a stanza header's copy lands above a prefix-list entry's. *)
let copy_line rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let opens l = String.starts_with ~prefix:"ip " l || String.starts_with ~prefix:"route-map " l in
  match List.filter (fun i -> opens lines.(i)) (List.init (Array.length lines) Fun.id) with
  | [] -> text
  | heads ->
      let src = lines.(List.nth heads (Random.State.int rng (List.length heads))) in
      let at = Random.State.int rng (Array.length lines + 1) in
      String.concat "\n"
        (Array.to_list (Array.sub lines 0 at) @ (src :: Array.to_list (Array.sub lines at (Array.length lines - at))))

let gen : string QCheck.Gen.t =
  mutated
    (fun rng -> QCheck.Gen.oneofa (Lazy.force seeds) rng)
    (fun rng text ->
      if Random.State.int rng 4 = 0 then copy_line rng text
      else mutate ~fragments ~numbers:splice_numbers rng text)
