(** Extent computation.

    [EXT_{e,context(e)}] (Section 4.2): the node set represented by a
    dropped example under a context assignment.  During learning the
    hypothesis extent is the set of nodes reachable from the fragment's
    base by the hypothesis path automaton and satisfying the hypothesis
    conditions with the context variables pinned to their dropped
    nodes.

    Conditions may reference several variables bound per candidate node
    (a collapse pair binds both the child's variable and the parent's,
    the parent being an ancestor of the candidate), so filtering takes a
    [bind] function from candidate node to variable bindings. *)

open Xl_xml

(** Nodes under [base] whose relative tag path is accepted by [dfa]
    (compiled over [ctx]'s alphabet), document order.

    Delegates to the evaluator's selection engine ({!Xl_xquery.Eval.select_dfa}):
    the frozen single-pass scan for store-resident bases, the pointer
    walk for constructed ones, memoized per (DFA, base).  Both handle the
    ε-accepting start — the
    empty relative path denotes the base itself, and a relative task
    whose extent contains its own anchor learns an ε-accepting DFA —
    and both emit in document order (a DFS that appends attributes
    before children needs no sort). *)
let select_by_dfa (ctx : Xl_xquery.Eval.ctx) (dfa : Xl_automata.Dfa.t)
    (base : Node.t) : Node.t list =
  Xl_xquery.Eval.select_dfa ctx dfa base

(** Relative tag path of [n] with respect to [base] (the symbols below
    [base]); [None] when [n] is not in [base]'s subtree. *)
let rel_path ~(base : Node.t) (n : Node.t) : string list option =
  let rec up acc m =
    if Node.equal m base then Some acc
    else
      match m.Node.parent with
      | None -> None
      | Some p -> up (Node.symbol m :: acc) p
  in
  up [] n

(** The ancestor of [n] that is [k] levels up (0 = [n] itself). *)
let rec ancestor_at (n : Node.t) (k : int) : Node.t option =
  if k <= 0 then Some n
  else match n.Node.parent with None -> None | Some p -> ancestor_at p (k - 1)

let env_of_bindings (bindings : (string * Node.t) list) : Xl_xquery.Env.t =
  List.fold_left
    (fun env (v, n) -> Xl_xquery.Env.bind env v (Xl_xquery.Value.of_node n))
    Xl_xquery.Env.empty bindings

(** Do [conds] hold under [context] extended with [bindings]? *)
let satisfies (ctx : Xl_xquery.Eval.ctx) (context : Teacher.context)
    ~(bindings : (string * Node.t) list) (conds : Xl_xqtree.Cond.t list) : bool =
  match conds with
  | [] -> true
  | _ ->
    let env = env_of_bindings (context @ bindings) in
    List.for_all
      (fun c ->
        Xl_xquery.Value.to_bool
          (Xl_xquery.Eval.eval ctx env (Xl_xqtree.Cond.to_expr c)))
      conds

(** Filter candidate nodes by [conds]; [bind] supplies the per-candidate
    variable bindings. *)
let filter_conds (ctx : Xl_xquery.Eval.ctx) (context : Teacher.context)
    ~(bind : Node.t -> (string * Node.t) list) (conds : Xl_xqtree.Cond.t list)
    (nodes : Node.t list) : Node.t list =
  List.filter (fun n -> satisfies ctx context ~bindings:(bind n) conds) nodes
