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

type r2_state =
  | Last_tag of string
  | Any_last
  | Off

exception Restart
(** An assumption was invalidated; L* must restart (genuine answers are
    kept across restarts). *)

type t

val create :
  ?config:config -> ?known:(string list * bool) list ->
  ?on_auto:(rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit) ->
  ?ask_batch:(string list list -> bool list) ->
  stats:Stats.t ->
  r1_dfas:Xl_automata.Dfa.t list ->
  alphabet:Xl_automata.Alphabet.t -> abs_prefix:string list ->
  dropped_path:string list -> ask:(string list -> bool) -> unit -> t
(** [r1_dfas] are the source schemas' path-language DFAs
    ({!Xl_schema.Schema_source.to_dfa}) relativized to [abs_prefix], the
    tag path of the fragment's base node: each starts at the state the
    prefix reaches.  A word is R1-applicable when the list is non-empty
    and no DFA in it accepts the word.  [dropped_path] seeds the first
    positive example; [ask] is the real teacher and is counted as a user
    membership query.  [ask_batch], when
    the teacher has one, answers the deferred genuine questions of a
    batched fill in one call (same answers, same counts as per-word
    [ask]).  [known] seeds the memo with the genuine answers an earlier
    run of the same drop box was given (Section 11 reuse, see
    {!Machine.start}): each one asked again replaces an interaction and
    counts in [Stats.auto_known].  [on_auto] observes every
    rule-auto-answered membership query with the rule that fired and
    the {e absolute} path ([abs_prefix] plus the queried word — the
    path R1 actually judged) — R1 answers are claims about the schema's
    path language and must match the ground truth, which is exactly what
    the fuzz harness checks; R2 answers are revisable assumptions. *)

val membership : t -> int list -> bool
(** The membership oracle handed to L*. *)

val membership_batch : t -> int list list -> bool list
(** Batched {!membership} over the distinct words of one fill, in
    first-ask order: R1 is the same DFA fold as for single words,
    genuine questions are deferred into one teacher batch, and every
    answer and interaction count is identical to asking the words one
    at a time (the Any_last R2 state, whose auto-answers depend on ask
    order within a fill, falls back to the word-at-a-time path). *)

val note_positive : t -> string list -> unit
(** Record a positive counterexample path.  May raise {!Restart}. *)

val note_negative : t -> string list -> unit
(** Record a negative counterexample path.  May raise {!Restart}. *)

val known_positive_paths : t -> string list list

val learn :
  t -> equivalence:(Xl_automata.Dfa.t -> int list option) -> Xl_automata.Dfa.t
(** Run L* to convergence, restarting on rule backtracks.  [equivalence]
    is the outer extent-comparison loop; it returns a counterexample
    word when the path hypothesis must change.  L* fills its observation
    table through {!membership_batch}; single words go to {!membership}. *)
