(** Unsigned decimal numbers as IOS writes them: ASCII digits only, with
    no sign, underscore or base prefix. *)

val parse : string -> int -> int -> int
(** [parse s pos len] is the value of the [len] characters of [s] from
    [pos] when they are one or more decimal digits worth at most
    [max_int], and [-1] otherwise. It reads in place and allocates
    nothing. *)

val write : Buffer.t -> int -> unit
(** Append a number in decimal, as [string_of_int] writes it. *)
