(** Reference evaluator for the XQuery subset — the differential oracle
    {!Xl_xquery.Eval} is tested against.

    Every path is selected by the pointer walk
    ({!Xl_xquery.Eval.tree_select}); every FLWOR and quantifier runs as a
    lazy nested loop; nothing is memoized.  Comparison, arithmetic,
    element construction and ordering are {!Xl_xquery.Eval}'s own
    helpers, so the two evaluators differ only in the machinery the
    tests mean to check.  Slow by design: tests, the fuzzer and the
    benchmark's reference legs use it, production never does.  Each
    evaluated quantifier body bumps the [ref_eval_quant_witnesses]
    telemetry counter. *)

val eval :
  Xl_xquery.Eval.ctx -> Xl_xquery.Env.t -> Xl_xquery.Ast.expr -> Xl_xquery.Value.t

val run :
  ?env:Xl_xquery.Env.t -> Xl_xquery.Eval.ctx -> Xl_xquery.Ast.expr -> Xl_xquery.Value.t
(** Evaluate a closed query.  The context supplies the store, alphabet
    and compiled-path table; its selection and join caches are not
    touched. *)

val run_to_string :
  ?env:Xl_xquery.Env.t -> Xl_xquery.Eval.ctx -> Xl_xquery.Ast.expr -> string
(** Evaluate and serialize, as {!Xl_xquery.Eval.run_to_string}. *)
