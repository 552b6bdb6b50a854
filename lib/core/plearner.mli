(** P-Learner: learns a fragment's path expression as a DFA over tag
    paths with Angluin's L*, with the interaction-reduction rules of
    Section 8 answering membership queries automatically:

    - R1 rejects paths the source schema cannot produce (any
      {!Xl_schema.Schema_source}: DTD, Relax NG, or DataGuide);
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
  ?config:config -> ?shared:bool Path_tbl.t ->
  ?on_reuse:(unit -> unit) ->
  ?on_auto:(rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit) ->
  ?ask_batch:(string list list -> bool list) ->
  stats:Stats.t ->
  schemas:Xl_schema.Schema_source.t list ->
  alphabet:Xl_automata.Alphabet.t -> abs_prefix:string list ->
  dropped_path:string list -> ask:(string list -> bool) -> unit -> t
(** [abs_prefix] is the tag path of the fragment's base node (for R1);
    [dropped_path] seeds the first positive example; [ask] is the real
    teacher and is counted as a user membership query.  [ask_batch], when
    the teacher has one, answers the deferred genuine questions of a
    batched fill in one call (same answers, same counts as per-word
    [ask]).  [shared] plugs in a {!Session} answer table: answers persist
    across runs and inherited ones replace interactions ([on_reuse] fires
    per reused answer).  [on_auto] observes every rule-auto-answered
    membership query with the rule that fired and the {e absolute} path
    ([abs_prefix] plus the queried word — the path R1 actually judged) —
    R1 answers are claims about the schema's path language and must match
    the ground truth, which is exactly what the fuzz harness checks; R2
    answers are revisable assumptions. *)

val membership : t -> int list -> bool
(** The membership oracle handed to L*. *)

val membership_batch : t -> int list list -> bool list
(** Batched {!membership} over the distinct words of one fill, in
    first-ask order: rule applicability is evaluated in one shared
    prefix-trie pass per schema cursor, genuine questions are deferred
    into one teacher batch, and every answer and interaction count is
    identical to asking the words one at a time (the Any_last R2 state,
    whose auto-answers depend on ask order within a fill, falls back to
    the word-at-a-time path). *)

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
