(** Schema sources for rule R1's filtering — the pluggability Section 8
    describes: a DTD's path language, a Relax NG schema, or a DataGuide
    derived from the instance itself.  R1 reads every source as one
    DFA ({!to_dfa}). *)

type t =
  | Dtd_paths of Schema_paths.t
  | Relax_ng of Relaxng.t
  | Data_guide of Dataguide.t

val of_dtd : Dtd.t -> t

val of_relaxng : Relaxng.t -> t
val of_dataguide : Dataguide.t -> t

val admits : t -> string list -> bool
(** The reference walk: does the source admit a node with this tag
    path? *)

val to_dfa : t -> Xl_automata.Alphabet.t -> Xl_automata.Dfa.t
(** The path language as a DFA over the alphabet: for words over it,
    [Dfa.accepts (to_dfa t a) w = admits t (decode w)]. *)

val describe : t -> string
