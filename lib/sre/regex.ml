(** Extended regular expressions over a predicate alphabet, with
    Brzozowski derivatives and lazy symbolic DFA exploration.

    The constructors normalize aggressively (ACI laws, identities) so
    that the set of derivatives of any regex is finite, which makes
    emptiness and witness search terminate. *)

exception Too_many_states

module Make (A : Alphabet.S) = struct
  type re =
    | Empty
    | Eps
    | Pred of A.pred
    | Cat of re * re (* right-nested *)
    | Alt of re list (* sorted, deduped, length >= 2 *)
    | Inter of re list (* sorted, deduped, length >= 2 *)
    | Star of re
    | Compl of re

  let rec compare_re a b =
    match (a, b) with
    | Empty, Empty | Eps, Eps -> 0
    | Empty, _ -> -1
    | _, Empty -> 1
    | Eps, _ -> -1
    | _, Eps -> 1
    | Pred p, Pred q -> A.compare p q
    | Pred _, _ -> -1
    | _, Pred _ -> 1
    | Cat (a1, a2), Cat (b1, b2) -> (
        match compare_re a1 b1 with 0 -> compare_re a2 b2 | c -> c)
    | Cat _, _ -> -1
    | _, Cat _ -> 1
    | Alt xs, Alt ys -> List.compare compare_re xs ys
    | Alt _, _ -> -1
    | _, Alt _ -> 1
    | Inter xs, Inter ys -> List.compare compare_re xs ys
    | Inter _, _ -> -1
    | _, Inter _ -> 1
    | Star x, Star y -> compare_re x y
    | Star _, _ -> -1
    | _, Star _ -> 1
    | Compl x, Compl y -> compare_re x y

  let equal_re a b = compare_re a b = 0
  let empty = Empty
  let eps = Eps
  let all = Compl Empty (* every word *)

  let pred p = if A.is_empty p then Empty else Pred p
  let any = pred A.tt

  let rec cat a b =
    match (a, b) with
    | Empty, _ | _, Empty -> Empty
    | Eps, r | r, Eps -> r
    | Cat (x, y), b -> Cat (x, cat y b)
    | _ -> Cat (a, b)

  let sort_dedup rs =
    List.sort_uniq compare_re rs

  let alt_list rs =
    let rs =
      List.concat_map (function Alt xs -> xs | r -> [ r ]) rs
      |> List.filter (fun r -> r <> Empty)
      |> sort_dedup
    in
    if List.exists (fun r -> equal_re r all) rs then all
    else
      match rs with [] -> Empty | [ r ] -> r | rs -> Alt rs

  let alt a b = alt_list [ a; b ]

  let inter_list rs =
    let rs =
      List.concat_map (function Inter xs -> xs | r -> [ r ]) rs
      |> List.filter (fun r -> not (equal_re r all))
      |> sort_dedup
    in
    if List.mem Empty rs then Empty
    else match rs with [] -> all | [ r ] -> r | rs -> Inter rs

  let inter a b = inter_list [ a; b ]

  let star = function
    | Empty | Eps -> Eps
    | Star _ as r -> r
    | r -> Star r

  let plus r = cat r (star r)
  let opt r = alt eps r
  let compl = function Compl r -> r | r -> Compl r

  let rec nullable = function
    | Empty | Pred _ -> false
    | Eps | Star _ -> true
    | Cat (a, b) -> nullable a && nullable b
    | Alt rs -> List.exists nullable rs
    | Inter rs -> List.for_all nullable rs
    | Compl r -> not (nullable r)

  let rec deriv c = function
    | Empty | Eps -> Empty
    | Pred p -> if A.mem c p then Eps else Empty
    | Cat (a, b) ->
        let d = cat (deriv c a) b in
        if nullable a then alt d (deriv c b) else d
    | Alt rs -> alt_list (List.map (deriv c) rs)
    | Inter rs -> inter_list (List.map (deriv c) rs)
    | Star r as s -> cat (deriv c r) s
    | Compl r -> compl (deriv c r)

  let matches r word = nullable (List.fold_left (fun r c -> deriv c r) r word)

  (* Predicates that can guard the first symbol of a word in [r]. *)
  let rec head_preds = function
    | Empty | Eps -> []
    | Pred p -> [ p ]
    | Cat (a, b) ->
        if nullable a then head_preds a @ head_preds b else head_preds a
    | Alt rs | Inter rs -> List.concat_map head_preds rs
    | Star r | Compl r -> head_preds r

  (* Satisfiable boolean combinations of the given predicates; they
     partition the alphabet. *)
  let minterms preds =
    let split acc p =
      List.concat_map
        (fun m ->
          let mp = A.conj m p and mn = A.conj m (A.neg p) in
          List.filter (fun q -> not (A.is_empty q)) [ mp; mn ])
        acc
    in
    List.fold_left split [ A.tt ] preds
    |> List.sort_uniq A.compare

  module Re_map = Map.Make (struct
    type t = re

    let compare = compare_re
  end)

  type dfa = {
    states : re array; (* state id -> canonical regex *)
    accepting : bool array;
    trans : (A.pred * int) list array; (* total: minterms cover alphabet *)
  }

  let state_limit = 20_000

  (* Lazy breadth-first determinization. *)
  let build_dfa r0 =
    let ids = ref (Re_map.singleton r0 0) in
    let rev = ref [ r0 ] in
    let n = ref 1 in
    let trans_acc = ref [] (* (src, (pred, dst) list) *) in
    let queue = Queue.create () in
    Queue.add (0, r0) queue;
    while not (Queue.is_empty queue) do
      let src, r = Queue.pop queue in
      let outs =
        List.map
          (fun m ->
            let c =
              match A.witness m with
              | Some c -> c
              | None -> assert false (* minterms are satisfiable *)
            in
            let r' = deriv c r in
            let dst =
              match Re_map.find_opt r' !ids with
              | Some i -> i
              | None ->
                  let i = !n in
                  if i >= state_limit then raise Too_many_states;
                  ids := Re_map.add r' i !ids;
                  rev := r' :: !rev;
                  incr n;
                  Queue.add (i, r') queue;
                  i
            in
            (m, dst))
          (minterms (head_preds r))
      in
      trans_acc := (src, outs) :: !trans_acc
    done;
    let states = Array.of_list (List.rev !rev) in
    let accepting = Array.map nullable states in
    let trans = Array.make !n [] in
    List.iter (fun (src, outs) -> trans.(src) <- outs) !trans_acc;
    { states; accepting; trans }

  let dfa_accepts dfa word =
    let rec go s = function
      | [] -> dfa.accepting.(s)
      | c :: rest -> (
          match
            List.find_opt (fun (p, _) -> A.mem c p) dfa.trans.(s)
          with
          | Some (_, s') -> go s' rest
          | None -> false (* symbol outside every head predicate *))
    in
    go 0 word

  (* Shortest accepted word, by BFS over the DFA. *)
  let shortest_witness r0 =
    let dfa = build_dfa r0 in
    let n = Array.length dfa.states in
    let visited = Array.make n false in
    let queue = Queue.create () in
    Queue.add (0, []) queue;
    visited.(0) <- true;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         let s, word = Queue.pop queue in
         if dfa.accepting.(s) then begin
           result := Some (List.rev word);
           raise Exit
         end;
         List.iter
           (fun (p, s') ->
             if not visited.(s') then begin
               visited.(s') <- true;
               match A.witness p with
               | Some c -> Queue.add (s', c :: word) queue
               | None -> ()
             end)
           dfa.trans.(s)
       done
     with Exit -> ());
    !result

  (* Up to [limit] accepted words in breadth-first (shortest-first)
     order. Each DFA edge contributes one representative symbol, so this
     enumerates distinct witness *shapes* rather than all words. *)
  let witnesses ~limit r0 =
    let dfa = build_dfa r0 in
    let out = ref [] in
    let count = ref 0 in
    let queue = Queue.create () in
    Queue.add (0, [], 0) queue;
    let max_len = Array.length dfa.states + 8 in
    while (not (Queue.is_empty queue)) && !count < limit do
      let s, word, len = Queue.pop queue in
      if dfa.accepting.(s) then begin
        out := List.rev word :: !out;
        incr count
      end;
      if len < max_len then
        List.iter
          (fun (p, s') ->
            match A.witness p with
            | Some c -> Queue.add (s', c :: word, len + 1) queue
            | None -> ())
          dfa.trans.(s)
    done;
    List.rev !out

  let rec pp fmt = function
    | Empty -> Format.pp_print_string fmt "∅"
    | Eps -> Format.pp_print_string fmt "ε"
    | Pred p -> A.pp_pred fmt p
    | Cat (a, b) -> Format.fprintf fmt "%a·%a" pp a pp b
    | Alt rs ->
        Format.fprintf fmt "(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun f () -> Format.pp_print_string f "|")
             pp)
          rs
    | Inter rs ->
        Format.fprintf fmt "(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun f () -> Format.pp_print_string f "&")
             pp)
          rs
    | Star r -> Format.fprintf fmt "(%a)*" pp r
    | Compl r -> Format.fprintf fmt "¬(%a)" pp r
end
