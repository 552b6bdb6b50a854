(** C-Learner (Section 7.2): the strongest conjunction of candidate
    predicates consistent with all positive examples — the monotone
    k-term algorithm of Figure 13 with predicates as variables.

    The first hypothesis is the full candidate set
    [cond(context(e), (ve, e))]; every positive (counter)example removes
    the candidates it violates.  Equivalence queries are shared with the
    outer learning loop.  A collapse pair contributes two endpoints (the
    dropped node and its split ancestor), so q1's conditions relate [$i]
    to [$c] even though the drop landed in the iname box. *)

open Xl_xqtree

type t

val create :
  ?pool:Xl_exec.Pool.t -> Data_graph.t -> Teacher.context ->
  endpoints:(string * Xl_xml.Node.t) list -> t
(** Enumerate ĉ₀ for the dropped example's endpoints. *)

val hypothesis : t -> Cond.t list
(** The current conjunction ĉ. *)

val observe_positive : t -> Extent.verdicts -> Xl_xml.Node.t -> bool
(** Intersection step for a positive example, judged by the verdicts of
    the task's context; returns whether ĉ shrank. *)

val minimized : t -> Cond.t list
(** ĉ with relay predicates that a retained join implies removed. *)
