(** Schema sources for rule R1's filtering — the pluggability Section 8
    describes: a DTD's path language, a Relax NG schema, or a DataGuide
    derived from the instance itself. *)

type t =
  | Dtd_paths of Schema_paths.t
  | Relax_ng of Relaxng.t
  | Data_guide of Dataguide.t

val of_dtd : Dtd.t -> t

val of_relaxng : Relaxng.t -> t
val of_dataguide : Dataguide.t -> t

val admits : t -> string list -> bool

(** A source pre-walked to a fixed path prefix; see {!cursor}. *)
type cursor =
  | Dtd_cursor of Schema_paths.t * int
  | Guide_cursor of Dataguide.t * bool
  | Generic of t * string list
  | Dead

val cursor : t -> string list -> cursor
(** Pre-walk the source to [prefix] so per-query work is proportional to
    the relative word only. *)

val cursor_admits : cursor -> string list -> bool
(** [cursor_admits (cursor t prefix) rel = admits t (prefix @ rel)]. *)

val cursor_admits_trie :
  cursor -> Xl_automata.Trie.t -> symbols:string array -> int list -> bool list
(** Batched {!cursor_admits}: each queried word is a terminal node of a
    shared prefix trie, [symbols.(i)] names the edge into node [i], and
    the incremental sources answer the whole batch in one forward state
    pass over the trie. *)

val to_dfa : t -> Xl_automata.Alphabet.t -> Xl_automata.Dfa.t option
(** Where the source supports a DFA rendering. *)

val describe : t -> string
