(** The teacher interface.

    A teacher with [path_membership] and [equivalence] is a minimally
    adequate teacher in Angluin's sense (Section 2); [condition_box] and
    [order_box] add the explicit specifications of Section 9.  The
    simulated teacher is {!Oracle}; an interactive stdin teacher lives in
    the CLI. *)

open Xl_xml

(** A context assignment: dropped example node per visible variable
    (Section 4.2). *)
type context = (string * Node.t) list

type eq_answer =
  | Equal  (** the user clicks [OK] *)
  | Counter of { node : Node.t; positive : bool }
      (** a counterexample node in the symmetric difference; [positive]
          means it belongs to the intended extent but was not shown *)

(** A Condition-Box answer: an explicit predicate and its terminal count.
    [negative] marks a Negative Condition Box (the predicate is negated
    before use). *)
type cb_answer = {
  cond : Xl_xqtree.Cond.t;
  terminals : int;
  negative : bool;
}

type t = {
  path_membership :
    label:string -> context:context -> rel_path:string list -> bool;
      (** Membership query: is a node with this path (relative to the
          fragment's base) of the intended kind? *)
  path_membership_batch :
    label:string -> context:context -> rel_paths:string list list -> bool list;
      (** Many membership queries at once, one answer per path, in
          order.  The simulated oracle answers them in one pass over the
          batch's prefix trie; an interactive teacher prompts for each
          path in turn. *)
  equivalence :
    label:string -> context:context -> extent:Node.t list -> eq_answer;
      (** Equivalence query: XLearner highlights [extent]; the user
          accepts or returns a counterexample. *)
  condition_box :
    label:string -> context:context -> negative_example:Node.t option ->
    cb_answer option;
      (** Raised when a negative counterexample's path is a known
          positive, so no path expression can exclude it; the user fills
          in an explicit condition. *)
  order_box : label:string -> (Xl_xquery.Simple_path.t * bool) list;
      (** Sort keys for the node, empty when no ordering is intended. *)
}
