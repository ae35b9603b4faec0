(** Template-based config generation from a structured intent — the
    code-generation half of the simulated LLM. Produces Cisco IOS text
    in the shape GPT-4 produces in the paper: ancillary lists followed
    by a single stanza named after the dominant set clause (SET_METRIC,
    SET_LP, ...), prefix lists named after their first octet
    (PREFIX_100). *)

val render : Intent.t -> string
