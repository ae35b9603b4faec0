(** Extended regular expressions over a predicate alphabet, with
    Brzozowski derivatives and lazy symbolic DFA exploration.

    Supports intersection and complement in addition to the standard
    operators, which is what the configuration analyses need: language
    emptiness of boolean combinations of as-path lists decides the
    feasibility of symbolic atom valuations, and shortest witnesses
    become concrete example paths and communities.

    Constructors normalize aggressively (ACI laws and identities) so the
    derivative closure of any regex is finite and all searches
    terminate. *)

exception Too_many_states
(** Raised when determinization exceeds the state limit — a safety
    valve; the regexes appearing in router configurations stay tiny. *)

module Make (A : Alphabet.S) : sig
  type re

  (** {2 Constructors (normalizing)} *)

  val empty : re (* ∅ *)
  val eps : re
  val all : re (* every word *)
  val any : re (* any single symbol *)
  val pred : A.pred -> re
  val cat : re -> re -> re
  val alt : re -> re -> re
  val inter : re -> re -> re
  val inter_list : re list -> re
  val star : re -> re
  val plus : re -> re
  val opt : re -> re
  val compl : re -> re

  (** {2 Semantics} *)

  val matches : re -> A.sym list -> bool

  (** {2 Symbolic DFA} *)

  type dfa = {
    states : re array;
    accepting : bool array;
    trans : (A.pred * int) list array; (* minterms: total per state *)
  }

  val state_limit : int
  (** 20,000: the most states {!build_dfa} builds. *)

  val build_dfa : re -> dfa
  (** Lazy breadth-first determinization over local minterms.
      @raise Too_many_states past {!state_limit} states. *)

  val dfa_accepts : dfa -> A.sym list -> bool

  val shortest_witness : re -> A.sym list option
  (** Shortest accepted word, by BFS over the DFA. *)

  val witnesses : limit:int -> re -> A.sym list list
  (** Up to [limit] accepted words in shortest-first order; each DFA
      edge contributes one representative symbol, so this enumerates
      distinct witness shapes rather than all words. *)

  val pp : Format.formatter -> re -> unit
end
