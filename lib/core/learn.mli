(** LEARN-X1*+E — the synchronous learning driver (Sections 5–7, 9).

    [run] simulates the whole session: the drag-and-drop phase (one drop
    per learning task, depth-first, with backtracking so no descendant
    faces an empty extent), then per-task learning — P-Learner for the
    path automaton, C-Learner for the condition conjunction, equivalence
    queries routed by IHT consistency, Condition/OrderBy/Function boxes
    merged in — and finally recomposes the learned XQ-Tree and verifies
    it against the intended query on the instance.

    The engine itself is the resumable state machine of {!Machine}; this
    module is a thin loop over {!Machine.step} that answers every
    question with a teacher.  Drivers that need suspension, transcripts
    or snapshot/restore use {!Machine} directly. *)

open Xl_xqtree

type config = Learn_types.config = {
  rules : Plearner.config;
  strategy : Oracle.strategy;
  max_rounds : int;  (** bound on equivalence-query rounds per task *)
  pool : Xl_exec.Pool.t option;
      (** intra-scenario parallelism: schema precomputation, oracle
          batch chunks and the C-Learner relay scan fan out across the
          pool's domains (default [None] = sequential) *)
}

val default_config : config

type node_result = Learn_types.node_result = {
  task_label : string;
  learned_dfa : Xl_automata.Dfa.t;
  parent_path : Xl_xquery.Path_expr.t option;
      (** collapse split: the parent fragment's path *)
  own_path : Xl_xquery.Path_expr.t;
  learned_conds : Cond.t list;
  spare_conds : Cond.t list;
      (** hypothesis conditions dropped as redundant in the drop
          context — the verification sweep may need them back when
          another context shows the extent was under-constrained *)
  learned_order : (Xl_xquery.Simple_path.t * bool) list;
  anchored_at_root : bool;
      (** the fragment was learned absolutely (with join conditions)
          rather than relative to a context node *)
}

type result = Learn_types.result = {
  scenario : Scenario.t;
  stats : Stats.t;
  node_results : node_result list;
  learned : Xqtree.t;
  query_text : string;  (** the generated XQuery *)
  verified : bool;
      (** learned query ≡ target query on the instance (full evaluation) *)
}

exception Learning_failed of string
(** The same exception the machine raises ({!Learn_types.Learning_failed}). *)

val run :
  ?config:config ->
  ?on_auto:
    (label:string -> rule:[ `R1 | `R2 ] -> path:string list -> answer:bool ->
     unit) ->
  Scenario.t -> result
(** Learn the scenario's query, answering with the simulated oracle.
    Drivers that want another teacher, the dialog, answer reuse across
    runs (Section 11) or suspension drive a {!Machine} instead.  [on_auto]
    observes every R1/R2 auto-answered membership query, tagged with the
    learning-task label — the fuzz harness uses it to check reduction
    soundness against the target path language. *)
