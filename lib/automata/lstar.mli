(** Angluin's L* algorithm (Angluin 1987) — the learning core behind
    LEARN-X0 (paper Section 5).

    The teacher answers membership queries in batches and equivalence
    queries on hypothesis DFAs.  The observation table keeps every word
    as a node of one prefix {!Trie}, with its answer on the node, so the
    teacher is asked about each distinct word at most once — which is
    what the paper counts as one (potential) interaction. *)

type teacher = {
  membership_batch : int list list -> bool list;
      (** Answer a batch of words at once, one answer per word, in order.
          Before every observation-table sweep the learner hands the
          fill's unanswered words to this function in two batches, the
          S rows' and then the extension rows', each deduplicated and in
          sweep order (rows in table order, suffixes in E order), so a
          teacher can amortize one shared evaluation pass over a whole
          fill. *)
  equivalence : Dfa.t -> int list option;
      (** [None] = hypothesis accepted; [Some w] = counterexample word *)
}

type stats = {
  mutable membership_queries : int;  (** distinct words asked *)
  mutable equivalence_queries : int;
  mutable counterexamples : int;
  mutable hypotheses : int;
}

val learn :
  ?init:int list list -> ?max_rounds:int -> alphabet_size:int -> teacher ->
  Dfa.t * stats
(** Run L* to convergence.  [init] seeds words into the access set before
    the first hypothesis — the paper seeds [path(e)] of the dropped
    example.  The returned DFA is minimized. *)
