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

(* one condition evaluated on one node: a verdict memo miss *)
let c_cond_evals = Xl_obs.Obs.Counter.make "cond_evals"

module Cond_tbl = Hashtbl.Make (struct
  type t = Xl_xqtree.Cond.t

  let equal = Xl_xqtree.Cond.equal
  let hash = Hashtbl.hash
end)

module Id_tbl = Hashtbl.Make (Int)

(* a condition compiled once, with its verdicts by node id *)
type judged = { expr : Xl_xquery.Ast.expr; seen : bool Id_tbl.t }

type verdicts = {
  ctx : Xl_xquery.Eval.ctx;
  context : Teacher.context;
  bind : Node.t -> (string * Node.t) list;
  conds : judged Cond_tbl.t;
}

let verdicts ctx context ~bind = { ctx; context; bind; conds = Cond_tbl.create 32 }

let judged v c =
  match Cond_tbl.find_opt v.conds c with
  | Some j -> j
  | None ->
    let j = { expr = Xl_xqtree.Cond.to_expr c; seen = Id_tbl.create 64 } in
    Cond_tbl.replace v.conds c j;
    j

(* every one of [js] holds for [n], judged left to right and stopping at
   the first failure; the node's env is built at its first memo miss *)
let holds_all v (js : judged list) (n : Node.t) : bool =
  let env = ref None in
  let verdict j =
    match Id_tbl.find j.seen n.Node.id with
    | b -> b
    | exception Not_found ->
      Xl_obs.Obs.Counter.incr c_cond_evals;
      let env =
        match !env with
        | Some e -> e
        | None ->
          let e = env_of_bindings (v.context @ v.bind n) in
          env := Some e;
          e
      in
      let b = Xl_xquery.Value.to_bool (Xl_xquery.Eval.eval v.ctx env j.expr) in
      Id_tbl.replace j.seen n.Node.id b;
      b
  in
  List.for_all verdict js

let holds v c n = holds_all v [ judged v c ] n

let filter v conds nodes =
  let js = List.map (judged v) conds in
  List.filter (holds_all v js) nodes
