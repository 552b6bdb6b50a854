(** Evaluator for the XQuery subset.

    Regular location paths are compiled (once, cached) to DFAs over the
    context's alphabet and evaluated by walking the tree while tracking
    the automaton state, with dead-state pruning — what makes "selection
    by regular path expression" cheap enough to recompute extents
    repeatedly during learning.

    Two fast paths (on by default; see {!make_ctx}'s [?fast_paths] and
    the per-context switches) serve the hot shapes of the Figure-16
    suites:
    document-rooted child-tag chains answer from the store's nodes-by-tag
    index, eligible equality [where] clauses run as cached hash joins
    instead of nested loops, and eligible [some] quantifiers (Rel3 relay
    conditions) as hash semi-joins over the same cached index.  FLWOR
    tuple streams are lazy. *)

type compiled_path = {
  dfa : Xl_automata.Dfa.t;
  live : bool array;  (** states from which a final state is reachable *)
}

(** Build side of a hash join, cached per (source sequence, key path). *)
type join_index = {
  items : Value.item array;  (** the build sequence, original order *)
  buckets : (string, int list) Hashtbl.t;
      (** {!Value.atom_hash_keys} key -> ascending indices into [items] *)
  built_at : int;  (** {!Xl_xml.Store.generation} at build time *)
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
  mutable use_hash_join : bool;
      (** execute eligible equality [where] clauses as hash joins and
          eligible [some] quantifiers as hash semi-joins *)
  mutable use_tag_index : bool;
      (** answer doc-rooted tag chains from the nodes-by-tag index *)
  mutable use_frozen : bool;
      (** answer DFA selections by a linear scan over the store's frozen
          array snapshots ({!Xl_xml.Frozen}) instead of the
          pointer-walking reference path *)
  mutable use_extent_cache : bool;
      (** memoize DFA selections per (DFA, base node id) across calls —
          the cross-round extent cache of the learning loop *)
  join_cache : (Ast.expr * Ast.expr, join_index) Hashtbl.t;
  plan_cache : (Ast.expr, join_plan option) Hashtbl.t;
      (** hash-join plans, keyed by the [Flwor] or [Some_] expression *)
  frozen_syms : (int, int array * int) Hashtbl.t;
      (** {!Xl_xml.Frozen.t} uid -> (local symbol id -> alphabet id or
          -1, alphabet size at build); rebuilt when the alphabet grows *)
  extent_cache : (Xl_automata.Dfa.t * int, Xl_xml.Node.t list) Hashtbl.t;
      (** (DFA, base node id) -> selection, flushed on store change *)
  mutable extent_cache_gen : int;  (** {!Xl_xml.Store.generation} stamp *)
  live_cache : (Xl_automata.Dfa.t, bool array) Hashtbl.t;
      (** liveness of externally compiled DFAs (the oracle's) *)
  mutable frozen_scratch : int array;
      (** dirty per-scan state scratch of the frozen engine (see the
          implementation's invariant note); grown on demand *)
}

val liveness : Xl_automata.Dfa.t -> bool array
(** Per-state "can still accept" flags, for pruning tree walks.
    Alias of {!Xl_automata.Dfa.liveness}. *)

val make_ctx : ?fast_paths:bool -> Xl_xml.Store.t -> ctx
(** Interns every symbol of every document in the store.  [fast_paths]
    (default [true]) sets both per-context switches; the parity tests
    pass [false] to compare optimized and naive evaluation end to end.
    There is deliberately no global default: contexts with different
    settings can now coexist, including on concurrent domains. *)

val ctx_of_doc : ?fast_paths:bool -> Xl_xml.Doc.t -> ctx

val intern_path_symbols : Xl_automata.Alphabet.t -> Path_expr.t -> unit
(** Intern a path's literal tags so wildcard expansion and compilation
    agree on the alphabet. *)

val compile_path : ctx -> Path_expr.t -> compiled_path

val select_dfa :
  ctx -> Xl_automata.Dfa.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes under the base whose relative tag path the DFA accepts (the
    base itself when the DFA accepts ε), document order.  Dispatches to
    the frozen single-pass scan when the base is store-resident and
    [use_frozen] is set, and memoizes per (DFA, base id) when
    [use_extent_cache] is set; otherwise runs the pointer-walking
    reference selection.  Never interns. *)

val eval_path : ctx -> Path_expr.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes reachable from the base by the regular path (the base's own
    symbol is not consumed), document order.  Compiles the path (cached)
    and selects via the same engine as {!select_dfa}.  Never interns:
    symbols outside the alphabet simply cannot match. *)

exception Type_error of string

val eval : ctx -> Env.t -> Ast.expr -> Value.t

val run : ?env:Env.t -> ctx -> Ast.expr -> Value.t
(** Evaluate a closed query. *)

val run_to_string : ?env:Env.t -> ctx -> Ast.expr -> string
(** Evaluate and serialize. *)
