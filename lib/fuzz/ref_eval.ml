(* The reference evaluator: every path through the pointer walk, every
   FLWOR and quantifier as a nested loop, no caches beyond the context's
   compiled-path table.  It shares {!Eval}'s pure helpers, so a
   disagreement with {!Eval.run} isolates the frozen scan, the extent
   cache or a join/semi-join plan. *)

open Xl_xml
open Xl_xquery

(* quantifier bodies evaluated: the nested-loop side of the semi-join
   scaling test *)
let c_witnesses = Xl_obs.Obs.Counter.make "ref_eval_quant_witnesses"

let select (ctx : Eval.ctx) (p : Path_expr.t) (base : Node.t) : Node.t list =
  let c = Eval.compile_path ctx p in
  Eval.tree_select ctx c.Eval.dfa c.Eval.live base

(* every binding of [bs] expanded under [env], lazily and in order *)
let expand eval (env : Env.t) (bs : Ast.binding list) : Env.t Seq.t =
  List.fold_left
    (fun envs (v, e) ->
      Seq.concat_map
        (fun env ->
          Seq.map (fun item -> Env.bind env v [ item ]) (List.to_seq (eval env e)))
        envs)
    (Seq.return env) bs

let rec eval (ctx : Eval.ctx) (env : Env.t) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Literal a -> [ Value.Atom a ]
  | Ast.Sequence es -> List.concat_map (eval ctx env) es
  | Ast.Var v -> Env.find_exn env v
  | Ast.Doc_root None -> [ Value.Node (Doc.doc_node (Store.default ctx.Eval.store)) ]
  | Ast.Doc_root (Some u) ->
    [ Value.Node (Doc.doc_node (Store.find_exn ctx.Eval.store u)) ]
  | Ast.Path (e, p) ->
    Value.document_order
      (Value.of_nodes
         (List.concat_map (select ctx p) (Value.nodes_of (eval ctx env e))))
  | Ast.Simple (e, p) ->
    Value.document_order
      (Value.of_nodes
         (List.concat_map (Simple_path.eval p) (Value.nodes_of (eval ctx env e))))
  | Ast.Flwor f -> eval_flwor ctx env f
  | Ast.Some_ (bs, body) ->
    Value.of_bool (Seq.exists (witness ctx body) (expand (eval ctx) env bs))
  | Ast.Every (bs, body) ->
    Value.of_bool (Seq.for_all (witness ctx body) (expand (eval ctx) env bs))
  | Ast.If (c, t, f) ->
    if Value.to_bool (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Elem (tag, contents) -> Eval.eval_elem ctx (eval ctx env) tag contents
  | Ast.Attr_c (_, e) | Ast.Text_c e ->
    [ Value.Atom (Value.Str (Value.string_value (eval ctx env e))) ]
  | Ast.Cmp (op, a, b) ->
    Value.of_bool (Eval.general_compare op (eval ctx env a) (eval ctx env b))
  | Ast.Arith (op, a, b) -> Eval.eval_arith op (eval ctx env a) (eval ctx env b)
  | Ast.And (a, b) -> Value.of_bool (holds ctx a env && holds ctx b env)
  | Ast.Or (a, b) -> Value.of_bool (holds ctx a env || holds ctx b env)
  | Ast.Not a -> Value.of_bool (not (holds ctx a env))
  | Ast.Call (name, args) -> Functions.apply name (List.map (eval ctx env) args)
  | Ast.Union (a, b) -> Value.document_order (eval ctx env a @ eval ctx env b)

and holds ctx e env = Value.to_bool (eval ctx env e)

and witness ctx body env =
  Xl_obs.Obs.Counter.incr c_witnesses;
  holds ctx body env

and eval_flwor ctx env (f : Ast.flwor) : Value.t =
  let tuples =
    Seq.map
      (fun env ->
        List.fold_left (fun env (v, e) -> Env.bind env v (eval ctx env e)) env f.Ast.let_)
      (expand (eval ctx) env f.Ast.for_)
  in
  let tuples =
    match f.Ast.where with
    | None -> tuples
    | Some w -> Seq.filter (holds ctx w) tuples
  in
  let tuples =
    match f.Ast.order_by with
    | [] -> tuples
    | keys -> List.to_seq (Eval.order_tuples (eval ctx) keys (List.of_seq tuples))
  in
  List.of_seq (Seq.concat_map (fun env -> List.to_seq (eval ctx env f.Ast.return)) tuples)

let run ?(env = Env.empty) ctx e = eval ctx env e

let run_to_string ?env ctx e = Eval.value_to_string (run ?env ctx e)
