(** The simulated minimally adequate teacher.

    Built from a {!Scenario.t}: every answer is derived from the target
    XQ-Tree by evaluation — path-language membership for membership
    queries, extent comparison for equivalence queries, the scenario's
    explicit conditions for Condition Boxes.  The Figure-16 experiments
    measure how many answers the user must provide, which depends only
    on the answers, not on who computes them. *)

open Xl_xml

type strategy =
  | Best  (** the paper's default: the most informative counterexample *)
  | Worst  (** adversarial, for the bracketed worst-case cells *)

type t

val create :
  ?strategy:strategy -> ?pool:Xl_exec.Pool.t -> Scenario.t -> t * Teacher.t
(** [pool], when given, lets the batched membership oracle split large
    batches into per-domain chunks (each chunk is an independent pure
    DFA pass).  Target extents are memoized per (task, context). *)

val path_membership_batch :
  t -> ?pool:Xl_exec.Pool.t -> label:string -> context:Teacher.context ->
  rel_paths:string list list -> unit -> bool list
(** All paths of one observation-table fill answered by a single pass of
    the task's path DFA over the batch's shared prefix trie (under an
    [oracle.batch] span), instead of one automaton walk per word. *)

val target_extent : t -> string -> Teacher.context -> Node.t list
(** EXT_{e,context} of the task at a label. *)

val base_node : t -> Task.t -> Teacher.context -> Node.t
(** The node the task's composed path starts from. *)

val eval_ctx : t -> Xl_xquery.Eval.ctx
(** Shared with the learner so path DFAs agree on the alphabet. *)
