(** Test helper: mutated example configs, for properties over malformed
    input. The seeds are the configs the examples and E1 ship; each case
    applies 1-3 mutations to one of them: a deletion, a fragment
    insertion, or a number already there replaced by one at either side
    of a field's width. *)

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

let gen : string QCheck.Gen.t =
 fun rng ->
  let seeds = Lazy.force seeds in
  let text = ref seeds.(Random.State.int rng (Array.length seeds)) in
  for _ = 1 to 1 + Random.State.int rng 3 do
    text := mutate ~fragments ~numbers:splice_numbers rng !text
  done;
  !text
