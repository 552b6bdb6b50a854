(** Deterministic finite automata over dense integer alphabets.

    Transition functions are total, so product constructions and
    complementation are direct.  States are [0 .. states-1]; words are
    [int list]. *)

type t = {
  alphabet_size : int;
  states : int;
  start : int;
  finals : bool array;
  delta : int array array;  (** [delta.(q).(a)] *)
}

val alphabet_size : t -> int
val state_count : t -> int

val create :
  alphabet_size:int -> states:int -> start:int -> finals:bool array ->
  delta:int array array -> t
(** Raises [Invalid_argument] on shape mismatches. *)

val step : t -> int -> int -> int
val run : t -> int list -> int
val accepts : t -> int list -> bool

val trie_states : t -> Trie.t -> int array
(** The state reached by the word spelled to each trie node, in one
    forward pass over the nodes (every node after its parent, so each
    shared prefix is stepped once no matter how many words use it). *)

val accepts_batch : t -> int list list -> bool list
(** [List.map (accepts t) words], computed by inserting the batch into a
    shared prefix trie and propagating states with {!trie_states} —
    answers all N words in a single pass over their distinct symbols. *)

val empty : alphabet_size:int -> t
(** The empty language. *)

val universal : alphabet_size:int -> t
(** Every word. *)

val complement : t -> t

val with_start : t -> int -> t
(** Same automaton started elsewhere — the left quotient by any word
    reaching that state.  Used to relativize the schema path language to
    a fragment's base prefix. *)

val product : (bool -> bool -> bool) -> t -> t -> t
(** Combine acceptance with [f] over the state pairs reachable from the
    start pair.  The pairs keep the order of their full-product codes
    [qa·|B| + qb], so the result is the full product's reachable part,
    numbered monotonically: {!minimize} and {!shortest_accepted} give
    what they would on the full product. *)

val intersection : t -> t -> t
val union : t -> t -> t
val difference : t -> t -> t
val symmetric_difference : t -> t -> t

val shortest_accepted : t -> int list option
(** BFS; [None] iff the language is empty. *)

val is_empty : t -> bool

val liveness : t -> bool array
(** Per-state "a final state is reachable from here" flags, the pruning
    mask used by tree walks and frozen scans over the automaton. *)

val equivalent : t -> t -> (unit, int list) result
(** [Error w] carries a shortest word in the symmetric difference — the
    counterexample for equivalence queries. *)

val minimize : t -> t
(** Moore partition refinement; also drops unreachable states.  Classes
    are numbered by their smallest reachable state, so the result
    depends only on the language and on the order of the input's
    reachable states. *)

val extend_alphabet : t -> alphabet_size:int -> t
(** Widen the alphabet; new symbols lead to a fresh sink. *)

val accepted_up_to : t -> int -> int list list
(** All accepted words of bounded length (tests/demos). *)
