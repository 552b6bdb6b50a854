(** Extent computation — [EXT_{e,context(e)}] (Section 4.2).

    A hypothesis extent is the set of nodes reachable from a fragment's
    base by the hypothesis path automaton, filtered by the hypothesis
    conditions with the context variables pinned to their drops.
    Conditions may reference several variables bound per candidate (a
    collapse pair binds both halves), so filtering takes a per-candidate
    [bind] function. *)

open Xl_xml

val select_by_dfa :
  Xl_xquery.Eval.ctx -> Xl_automata.Dfa.t -> Node.t -> Node.t list
(** Nodes under the base whose relative tag path the DFA accepts,
    document order, with dead-state pruning. *)

val rel_path : base:Node.t -> Node.t -> string list option
(** Tag path below [base]; [None] outside its subtree. *)

val ancestor_at : Node.t -> int -> Node.t option
(** k levels up (0 = the node itself). *)

type verdicts
(** Condition verdicts under one context and one [bind]: which
    conditions hold for which candidate nodes.  Evaluation is pure and
    the context and bindings are fixed, so a (condition, node) verdict
    never changes and is computed once.  Each condition's expression is
    compiled once, and a node's environment (the context plus [bind n])
    is built only when one of its verdicts is missing.  Every miss counts
    as one [cond_evals]. *)

val verdicts :
  Xl_xquery.Eval.ctx -> Teacher.context -> bind:(Node.t -> (string * Node.t) list) ->
  verdicts

val holds : verdicts -> Xl_xqtree.Cond.t -> Node.t -> bool

val filter : verdicts -> Xl_xqtree.Cond.t list -> Node.t list -> Node.t list
(** The nodes every condition holds for, in order.  Conditions are
    judged left to right per node and the first failure decides, so the
    verdicts computed are those a plain conjunction would compute. *)
