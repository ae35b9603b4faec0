(** Parser and printer for the Cisco IOS subset used by the paper.

    Supported directives:
    - [ip prefix-list NAME [seq N] permit|deny PFX [ge N] [le N]]
    - [ip community-list [standard|expanded] NAME permit|deny ...]
    - [ip as-path access-list NAME permit|deny REGEX]
    - [route-map NAME permit|deny SEQ] followed by indented
      [match ...] / [set ...] lines
    - [ip access-list extended NAME] followed by indented rules
    - [access-list NUM permit|deny ...] (numbered extended ACLs)
    - blank lines and [!] comment lines

    Tokens are separated by blanks and tabs. Numbers are decimal, as IOS
    writes them: digits only, with no sign, underscore or [0x]/[0o]/[0b]
    prefix, and at most [max_int]; that holds inside addresses,
    prefixes and communities too ({!Netaddr.Decimal}).

    Every error is located. An error in a line is reported at that line;
    one found only once every line is read (a duplicate sequence number,
    a community list mixing standard and expanded entries, a bad
    standard community, a malformed regex) at the line of the offending
    entry, the second of a duplicate pair. *)

exception Syntax_error of { line : int; message : string }

val parse : string -> (Database.t, string) result
(** Parse a configuration; an error reads ["line N: message"]. *)

val parse_exn : string -> Database.t
(** @raise Syntax_error on malformed input, and no other exception. *)

val to_string : Database.t -> string
(** Render back to Cisco syntax ({!Database.write}); [parse (to_string
    db)] reconstructs an equivalent database (property-tested). *)
