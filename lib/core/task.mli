(** Learning tasks — one per Drop Box that receives an example.

    Normally a task is one XQ-Tree variable node; a variable node with a
    1-labeled variable child forms a *collapse pair* learned as one unit
    (Section 5, LEARN-X0*+): the drop lands in the child's box, the
    composed path is learned as one language and split afterwards.  The
    paper's q1 has exactly three tasks: cname (collapsing category),
    iname (collapsing item) and desc. *)

open Xl_xqtree

type t = {
  node : Xqtree.node;  (** the node whose Drop Box receives the example *)
  parent : Xqtree.node option;  (** the collapse parent, if any *)
}

val label : t -> string
val var : t -> string
val parent_var : t -> string option

val anchor : t -> Xqtree.node
(** The node whose ancestors bind the task's context: the collapse
    parent of a pair, the task's own node otherwise. *)

val tasks_of : Xqtree.t -> t list
(** Depth-first learning order. *)

val composed_source : t -> Xqtree.source option
(** Parent source · child source for a collapse pair. *)

val child_steps : t -> int
(** Steps from a candidate of the composed language up to the parent
    binding. *)

val conds : t -> Cond.t list
(** Target-side conditions of the whole task. *)

val order_by : t -> (Xl_xquery.Simple_path.t * bool) list

val bindings_of : t -> Xl_xml.Node.t -> (string * Xl_xml.Node.t) list
(** Variable bindings for a candidate node (child variable, plus the
    split ancestor for the parent variable). *)
