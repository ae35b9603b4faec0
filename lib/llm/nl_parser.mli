(** Constrained-English intent parser — the language-understanding half
    of the simulated LLM.

    Accepted phrasing (case-insensitive; synonyms in parentheses):

    Route-map intents — the first sentence gives match conditions,
    later sentences give set clauses:
    - "permits (allows, accepts) / denies (blocks, drops, rejects) routes"
    - "containing the prefix 100.0.0.0/16 with mask length less than or
      equal to 23" (also "greater than or equal to", "between A and B",
      "at most", "at least")
    - "tagged with the community 300:3" / "communities 1:2 and 3:4"
    - "originating from AS 32", "passing through AS 100"
    - "with local preference 300", "with MED 20" ("metric"), "with tag 7"
    - set sentences: "Their MED (metric) value should be set to 55",
      "Their local preference should be set to 200", "The communities
      65000:1 should be added", "Their communities should be replaced
      with 65000:1", "The AS path should be prepended with 65000 65000",
      "The next hop should be set to 10.0.0.1", "Their tag / weight /
      origin should be set to ...".

    ACL intents (one sentence):
    - "permits tcp (udp, icmp, ip) traffic from <src> to <dst>"
    - endpoints: "anywhere"/"any"/"any destination", "host 1.2.3.4",
      "10.0.0.0/8"
    - "with source/destination port 443", "port above/below N",
      "ports A to B", "for established connections"

    Numbers the config language holds in fixed widths are range-checked
    once the intent is read, with the config parser's messages: ports
    must lie in 0-65535 and "ports A to B" needs A <= B ("port 70000 is
    out of range 0-65535", "port range 900 80 is empty"); local
    preference, MED and tag, matched or set, a set weight, every
    prepended AS number and the AS number of an "originating from" or
    "passing through" clause must lie in 0-4294967295 ("weight -1 is
    out of range 0-4294967295"). Such an intent is an [Out_of_range]
    error, so the pipeline stops with a spec error before it builds a
    rule or asks for a stanza. Ports of a protocol without ports are
    dropped, not checked. *)

type error =
  | Unrecognized of string  (** the phrasing is not understood *)
  | Out_of_range of string  (** a number no config can hold *)

val error_message : error -> string

val words : string -> string list
(** Lowercased tokens with list punctuation (commas, semicolons and
    both quote marks) stripped, split at blanks and newlines in one pass
    over the text (exposed for the classifier). *)

val sentences : string -> string list
(** Split on [". "] boundaries and a trailing period; prefixes like
    10.0.0.0/8 survive intact. *)

val parse_route_map : string -> (Intent.route_map_intent, error) result

val parse : [ `Acl | `Route_map ] -> string -> (Intent.t, error) result
(** Parse under the classified query type. *)
