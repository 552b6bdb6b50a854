(** P-Learner: learns a fragment's path expression as a DFA over tag
    paths with Angluin's L*, with the interaction-reduction rules of
    Section 8 answering membership queries automatically:

    - R1 rejects paths the source schema cannot produce (any
      {!Xl_schema.Schema_source}: DTD, Relax NG, or DataGuide, read as
      its path-language DFA relativized to the fragment's base);
    - R2 rejects paths ending in a tag other than the first positive
      example's, with the backtracking ladder Last-tag → Any-last → Off.

    For every auto-answered query the applicability of both rules is
    recorded independently, giving the Reduced(R1,R2,Both) accounting of
    Figure 16. *)

type config = {
  r1 : bool;
  r2 : bool;
}

val default_config : config
(** Both rules on. *)

exception Restart
(** An assumption was invalidated; L* must restart (genuine answers are
    kept across restarts). *)

type t

val create :
  ?config:config -> ?known:(string list * bool) list ->
  ?on_auto:(rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit) ->
  ask_batch:(string list list -> bool list) ->
  stats:Stats.t ->
  r1_dfas:Xl_automata.Dfa.t list ->
  alphabet:Xl_automata.Alphabet.t -> abs_prefix:string list ->
  dropped_path:string list -> ask:(string list -> bool) -> unit -> t
(** [r1_dfas] are the source schemas' path-language DFAs
    ({!Xl_schema.Schema_source.to_dfa}) relativized to [abs_prefix], the
    tag path of the fragment's base node: each starts at the state the
    prefix reaches.  A word is R1-applicable when the list is non-empty
    and no DFA in it accepts the word.  [dropped_path] seeds the first
    positive example.  [ask_batch] and [ask] are the real teacher, and
    every word they are asked counts as a user membership query:
    [ask_batch] answers the genuine questions of a fill in one call, in
    first-ask order; [ask] answers them one at a time in the Any_last R2
    state, where each answer can decide later words of the same fill.
    [known] seeds the memo with the genuine answers an earlier
    run of the same drop box was given (Section 11 reuse, see
    {!Machine.start}): each one asked again replaces an interaction and
    counts in [Stats.auto_known].  [on_auto] observes every
    rule-auto-answered membership query with the rule that fired and
    the {e absolute} path ([abs_prefix] plus the queried word — the
    path R1 actually judged) — R1 answers are claims about the schema's
    path language and must match the ground truth, which is exactly what
    the fuzz harness checks; R2 answers are revisable assumptions. *)

val trie : t -> Xl_automata.Trie.t
(** The task's prefix trie: every word the learner has seen is a node of
    it, and {!learn} hands it to every L* run. *)

val membership_batch : t -> Xl_automata.Lstar.batch -> bool array
(** The membership oracle handed to L*: the distinct cells of one fill,
    in first-ask order, each resolved in that order by its node's
    answer, R1 or R2, or else by the teacher.  The batch's trie must be
    {!trie}.  Every answer and interaction count is the one the cells'
    words would get asked one at a time; a word is spelled only for the
    teacher or [on_auto]. *)

val note_positive : t -> string list -> unit
(** Record a positive counterexample path.  May raise {!Restart}: when
    R2 backtracks, and whenever the path revises an answer L* has
    already seen. *)

val note_negative : t -> string list -> unit
(** Record a negative counterexample path.  May raise {!Restart}. *)

val is_known_positive : t -> int list -> bool
(** Is the word the dropped example's or a positive answer or
    counterexample? *)

val learn :
  t -> equivalence:(Xl_automata.Dfa.t -> int list option) -> Xl_automata.Dfa.t
(** Run L* to convergence, restarting on rule backtracks and revisions.
    [equivalence] is the outer extent-comparison loop; it returns a
    counterexample word when the path hypothesis must change.  L* fills
    its observation table through {!membership_batch}. *)
