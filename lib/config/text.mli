(** Cisco text. Every construct writes its lines into one [Buffer],
    separated by newlines and with no trailing newline; these helpers
    join such writers and turn one into a string or a [Format]
    printer. *)

val list : Buffer.t -> char -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [list b sep write xs] writes each element, [sep] between two. *)

val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string

val pp : (Buffer.t -> 'a -> unit) -> Format.formatter -> 'a -> unit
(** The text as one string. At column 0, where every caller prints a
    construct, that is what the [Format] vertical boxes the printers
    once opened printed. *)
