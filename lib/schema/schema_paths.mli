(** The schema path language used by reduction rule R1 (Section 8).

    A tag path is *schema-consistent* when some instance of the DTD can
    contain a node with that root-to-node tag path.  R1 answers
    membership queries on schema-inconsistent paths with N automatically
    — the paper's Relax-NG filtering, realized on DTDs.

    The language is exposed as an explicit int-state stepper so callers
    can pre-walk a fragment's base prefix once and answer each
    membership query by stepping only the relative word, and so single
    (state, symbol) steps can be memoized across the ~10^4 reachability
    questions a large learning task asks. *)

type t

val compile : Dtd.t -> t
(** The stepper caches (state, symbol) steps, counted by the
    [r1_cache_hit]/[r1_cache_miss] telemetry counters. *)

val start : t -> int
(** The initial state (before any symbol; not accepting). *)

val step : t -> int -> string -> int
(** One transition.  Total: unknown symbols step to a dead sink. *)

val run : t -> int -> string list -> int
(** [step] folded over a word. *)

val accepting : t -> int -> bool
(** Does this state accept — i.e. is the word consumed so far a
    schema-consistent path? *)

val admits : t -> string list -> bool
(** Does the schema admit a node with this tag path?  The path starts at
    the root element; ["@name"] and ["#text"] may only terminate it.
    Equivalent to [accepting t (run t (start t) path)]. *)

val to_dfa : t -> Xl_automata.Alphabet.t -> Xl_automata.Dfa.t
(** The same language as a DFA over the given alphabet (which should
    contain the DTD's {!Dtd.path_symbols}).  Used to tighten learned path
    automata for presentation and in tests. *)

val max_depth : ?cap:int -> t -> int
(** Maximum element depth; recursion is capped at [cap]. *)
