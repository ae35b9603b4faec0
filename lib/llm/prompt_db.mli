(** System prompts and few-shot examples retrieved per query type — the
    paper's step 2 ("retrieve the corresponding system prompts and
    examples from a database"). *)

type entry = {
  system : string;
  few_shot : (string * string) list; (* (user prompt, assistant answer) *)
}

val retrieve : [ `Acl | `Route_map ] -> entry
