(** The schema path language used by reduction rule R1 (Section 8).

    A tag path is *schema-consistent* when some instance of the DTD can
    contain a node with that root-to-node tag path.  R1 answers
    membership queries on schema-inconsistent paths with N automatically
    — the paper's Relax-NG filtering, realized on DTDs.  R1 reads the
    language only as the DFA {!to_dfa} builds; {!admits} is the plain
    reference walk. *)

type t

val compile : Dtd.t -> t

val admits : t -> string list -> bool
(** Does the schema admit a node with this tag path?  The path starts at
    the root element; ["@name"] and ["#text"] may only terminate it.  A
    name a content model references without declaring it is admitted as
    a step with nothing below it, and so is an undeclared root. *)

val to_dfa : t -> Xl_automata.Alphabet.t -> Xl_automata.Dfa.t
(** The same language as a DFA over the given alphabet (which should
    contain the DTD's {!Dtd.path_symbols}): for words over the alphabet,
    [Dfa.accepts (to_dfa t a) w = admits t (decode w)]. *)

val max_depth : ?cap:int -> t -> int
(** Maximum element depth; recursion is capped at [cap]. *)
