(** A Relax NG (compact syntax) subset — the schema language the paper's
    prototype actually filters with ("The current prototype uses the
    Relax NG for filtering", Section 8).

    Supported compact-syntax constructs: [start =] and named definitions,
    [element n { p }], [attribute n { text }], [text], [empty],
    sequencing [,], choice [|], and the [? * +] occurrence modifiers. *)

type pattern =
  | Element of string * pattern
  | Attribute of string
  | Text
  | Empty
  | Seq of pattern * pattern
  | Choice of pattern * pattern
  | Opt of pattern
  | Star of pattern
  | Plus of pattern
  | Ref of string

type t = {
  start : pattern;
  defs : (string * pattern) list;
}

exception Parse_error of string * int

val parse : string -> t
(** Parse compact syntax. *)

val admits : t -> string list -> bool
(** Does the schema admit a node with this tag path?  The same contract
    as {!Schema_paths.admits}, so rule R1 accepts either language. *)

val to_dfa : t -> Xl_automata.Alphabet.t -> Xl_automata.Dfa.t
(** The path language as a DFA over the alphabet: for words over it,
    [Dfa.accepts (to_dfa t a) w = admits t (decode w)]. *)

val of_dtd : Dtd.t -> t
(** Convert a DTD; the path language is preserved exactly. *)

val pattern_to_string : pattern -> string
val to_string : t -> string
(** Compact syntax, reparseable. *)
