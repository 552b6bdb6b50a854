(** Evaluator for the XQuery subset.

    Regular location paths are compiled (once, cached) to DFAs over the
    context's alphabet and evaluated by walking the tree while tracking
    the automaton state, with dead-state pruning — what makes "selection
    by regular path expression" cheap enough to recompute extents
    repeatedly during learning.

    There is one evaluation path and no switch: the input picks the
    engine.  Selections from store-resident bases scan the store's frozen
    arrays, selections from constructed nodes take the pointer walk
    ({!tree_select}), and both are memoized per (DFA, base node).
    Eligible equality [where] clauses run as cached hash joins and
    eligible [some] quantifiers (Rel3 relay conditions) as hash
    semi-joins over the same cached index; everything else is a nested
    loop.  FLWOR tuple streams are lazy.  [Xl_fuzz.Ref_eval], the
    nested-loop pointer-walk reference, is the differential oracle the
    tests hold this module to. *)

type compiled_path = {
  dfa : Xl_automata.Dfa.t;
  live : bool array;  (** states from which a final state is reachable *)
}

(** Build side of a hash join, cached per (source sequence, key path). *)
type join_index = {
  items : Value.item array;  (** the build sequence, original order *)
  buckets : (string, int list) Hashtbl.t;
      (** {!Value.atom_hash_keys} key -> ascending indices into [items] *)
}

(** A planned hash join for one FLWOR or one [some] quantifier (see
    [plan_hash_join] and [plan_semi_join] in the implementation for the
    eligibility rules). *)
type join_plan = {
  jp_binding : int;  (** index of the build binding in [for_] *)
  jp_var : string;
  jp_source : Ast.expr;  (** closed source sequence of the build binding *)
  jp_key : Ast.expr;  (** build-side key, mentions only [jp_var] *)
  jp_probe : Ast.expr;  (** probe-side key, evaluable before the build *)
  jp_residual : Ast.expr option;
      (** rest of the [where] clause; unused by quantifier plans, which
          re-check the whole body *)
}

type ctx = {
  store : Xl_xml.Store.t;
  alphabet : Xl_automata.Alphabet.t;
  cache : (Path_expr.t, compiled_path) Hashtbl.t;
  mutable constructed : int;  (** constructed-element counter *)
  join_cache : (Ast.expr * Ast.expr, join_index) Hashtbl.t;
  plan_cache : (Ast.expr, join_plan option) Hashtbl.t;
      (** hash-join plans, keyed by the [Flwor] or [Some_] expression *)
  frozen_syms : (int, int array * int) Hashtbl.t;
      (** {!Xl_xml.Frozen.t} uid -> (local symbol id -> alphabet id or
          -1, alphabet size at build); rebuilt when the alphabet grows *)
  extent_cache : (Xl_automata.Dfa.t * int, Xl_xml.Node.t list) Hashtbl.t;
      (** (DFA, base node id) -> selection — the cross-round extent cache
          of the learning loop *)
  live_cache : (Xl_automata.Dfa.t, bool array) Hashtbl.t;
      (** liveness of externally compiled DFAs (the oracle's) *)
  mutable frozen_scratch : int array;
      (** dirty per-scan state scratch of the frozen engine (see the
          implementation's invariant note); grown on demand *)
}

val liveness : Xl_automata.Dfa.t -> bool array
(** Per-state "can still accept" flags, for pruning tree walks.
    Alias of {!Xl_automata.Dfa.liveness}. *)

val make_ctx : Xl_xml.Store.t -> ctx
(** Interns every symbol of every document in the store.  A context
    holds mutable caches: keep each one on a single domain. *)

val ctx_of_doc : Xl_xml.Doc.t -> ctx

val intern_path_symbols : Xl_automata.Alphabet.t -> Path_expr.t -> unit
(** Intern a path's literal tags so wildcard expansion and compilation
    agree on the alphabet. *)

val compile_path : ctx -> Path_expr.t -> compiled_path

val tree_select :
  ctx -> Xl_automata.Dfa.t -> bool array -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** [tree_select ctx dfa live base]: the pointer walk with dead-state
    pruning ([live] from {!liveness}), document order, no memoization.
    The engine for constructed bases, and the reference walk. *)

val select_dfa :
  ctx -> Xl_automata.Dfa.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes under the base whose relative tag path the DFA accepts (the
    base itself when the DFA accepts ε), document order.  Runs the
    frozen single-pass scan when the base is store-resident and
    {!tree_select} otherwise, memoized per (DFA, base id).  Never
    interns. *)

val eval_path : ctx -> Path_expr.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes reachable from the base by the regular path (the base's own
    symbol is not consumed), document order.  Compiles the path (cached)
    and selects via the same engine as {!select_dfa}.  Never interns:
    symbols outside the alphabet simply cannot match. *)

exception Type_error of string

(** {2 Pure helpers}

    Shared with the reference evaluator, so the two differ only in how
    they select paths and run FLWORs and quantifiers. *)

val general_compare : Ast.cmp_op -> Value.t -> Value.t -> bool
(** General comparison, existential over both sequences; [Is] is node
    identity. *)

val eval_arith : Ast.arith_op -> Value.t -> Value.t -> Value.t
(** Raises {!Type_error} unless each side atomizes to one number. *)

val eval_elem : ctx -> (Ast.expr -> Value.t) -> string -> Ast.expr list -> Value.t
(** [eval_elem ctx eval_in tag contents] constructs [<tag>] from its
    attribute constructors and content expressions, evaluated in order
    with [eval_in]; counts the element in [ctx.constructed]. *)

val order_tuples :
  (Env.t -> Ast.expr -> Value.t) -> Ast.order_key list -> Env.t list -> Env.t list
(** Stable sort of FLWOR tuples by their [order by] keys. *)

val value_to_string : Value.t -> string
(** Nodes serialized, atoms printed, concatenated. *)

val eval : ctx -> Env.t -> Ast.expr -> Value.t

val run : ?env:Env.t -> ctx -> Ast.expr -> Value.t
(** Evaluate a closed query. *)

val run_to_string : ?env:Env.t -> ctx -> Ast.expr -> string
(** Evaluate and serialize. *)
