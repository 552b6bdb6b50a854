(** DataGuides: instance-derived path summaries (the "Graph Schema"
    style of metadata Section 8 mentions for rule R1).

    When no schema is available, the trie of tag paths occurring in the
    documents is a sound filter — and for the instance-parameterized
    XQ_I semantics, an exact one. *)

type t

val create_node : unit -> t
val insert : t -> string list -> unit

val of_store : Xl_xml.Store.t -> t
val of_doc : Xl_xml.Doc.t -> t

val admits : t -> string list -> bool
(** Does some node of the instance have this tag path?  Prefixes of
    inserted paths are admitted; the empty path is not. *)

val size : t -> int
(** Distinct non-empty paths. *)

val paths : ?limit:int -> t -> string list list

val to_dfa : t -> Xl_automata.Alphabet.t -> Xl_automata.Dfa.t
(** The trie as a DFA: for words over the alphabet it accepts exactly
    what {!admits} admits. *)
