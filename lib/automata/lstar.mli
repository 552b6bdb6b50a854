(** Angluin's L* algorithm (Angluin 1987) — the learning core behind
    LEARN-X0 (paper Section 5).

    The teacher answers membership queries in batches and equivalence
    queries on hypothesis DFAs.  The observation table keeps every word
    as a node of a prefix {!Trie} the caller owns, with its answer on
    the node, so the teacher is asked about each distinct word at most
    once per run — which is what the paper counts as one (potential)
    interaction.  The teacher is handed cells, not words: a cell is the
    node of a row's word followed by one suffix of E, and a teacher that
    needs the word spells it from the trie. *)

type batch = {
  trie : Trie.t;  (** the trie the learner was given *)
  suffixes : int list array;
      (** E: column [j] holds suffix [suffixes.(j)], [[]] first.  E only
          grows within one run, so a column's suffix is the same list in
          every batch of that run. *)
  nodes : int array;  (** each cell's node: its row's word followed by its suffix *)
  rows : int array;  (** each cell's row node (an access word or one of its extensions) *)
  cols : int array;  (** each cell's index in [suffixes] *)
}
(** One fill's unanswered cells, deduplicated by node.  Before every
    observation-table sweep the learner hands the teacher two batches,
    the S rows' and then the extension rows', each in sweep order: rows
    in table order, suffixes in E order within a row.  A row's parent
    node is always an access word's, so a teacher can derive per-row
    state from the parent row's. *)

type teacher = {
  membership_batch : batch -> bool array;
      (** One answer per cell, in order. *)
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
  ?init:int list list -> ?max_rounds:int -> trie:Trie.t -> alphabet_size:int ->
  teacher -> Dfa.t * stats
(** Run L* to convergence over [trie], which may hold nodes from earlier
    runs and may grow while the teacher answers.  Answers and rows are
    per run: a word the trie already holds is asked again.  [init] seeds
    words into the access set before the first hypothesis — the paper
    seeds [path(e)] of the dropped example.  The returned DFA is
    minimized. *)
