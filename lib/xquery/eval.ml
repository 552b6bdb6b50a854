(** Evaluator for the XQuery subset.

    Regular location paths are compiled (once, cached) to DFAs over the
    context's alphabet and evaluated by walking the tree while tracking
    the automaton state, with dead-state pruning.  This is what makes
    "selection by regular path expression" cheap enough to recompute
    extents repeatedly during learning.

    There is one evaluation path, chosen by the input alone:

    - a selection from a store-resident base is a linear scan of the
      store's frozen arrays; a constructed (foreign) base takes the
      pointer walk [tree_select], the only engine that reaches it.
      Either way the result is memoized per (DFA, base node);
    - an equality [where] clause whose build side is a path over a
      [for] variable with a closed binding sequence executes as a hash
      join — the build side is indexed once per (sequence, key) pair and
      cached on the context, the probe side streams.  A [some]
      quantifier of the same shape (Rel3 relay conditions) runs as a
      hash semi-join over the same index.  Everything else is a nested
      loop.

    The nested-loop, pointer-walk-only reference that tests compare
    against is [Xl_fuzz.Ref_eval], built from this module's exported
    helpers.

    FLWOR tuple streams are lazy ([Seq]-based), so [where] filters tuples
    as they are produced instead of after a full cross-product
    materialization, and quantifiers short-circuit. *)

open Xl_xml

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

(** A planned hash join for one FLWOR: bind [jp_var] (the [jp_binding]-th
    [for] binding, whose closed source is [jp_source]) by probing the
    index of [jp_key] with the values of [jp_probe]; [jp_residual] is
    what remains of the [where] clause. *)
type join_plan = {
  jp_binding : int;
  jp_var : string;
  jp_source : Ast.expr;
  jp_key : Ast.expr;
  jp_probe : Ast.expr;
  jp_residual : Ast.expr option;
}

type ctx = {
  store : Store.t;
  alphabet : Xl_automata.Alphabet.t;
  cache : (Path_expr.t, compiled_path) Hashtbl.t;
  mutable constructed : int;  (** count of constructed elements (stats) *)
  join_cache : (Ast.expr * Ast.expr, join_index) Hashtbl.t;
  plan_cache : (Ast.expr, join_plan option) Hashtbl.t;
      (** keyed by the [Flwor] or [Some_] expression planned *)
  frozen_syms : (int, int array * int) Hashtbl.t;
      (** {!Xl_xml.Frozen.t} uid -> (local symbol id -> alphabet id or -1,
          alphabet size at build) — rebuilt when the alphabet grows *)
  extent_cache : (Xl_automata.Dfa.t * int, Node.t list) Hashtbl.t;
      (** (DFA, base node id) -> selection *)
  live_cache : (Xl_automata.Dfa.t, bool array) Hashtbl.t;
      (** liveness of DFAs not compiled by this context (oracle DFAs) *)
  mutable frozen_scratch : int array;
      (** per-position DFA states scratch for the frozen scan, grown on
          demand and never cleared — every slot read during a scan was
          written earlier in the same scan (see [frozen_select]), so no
          per-select O(subtree) initialization is needed *)
}

(* telemetry: which evaluator branch answered, and how much tree was
   walked — the per-query attribution behind the join and scan speedups *)
let c_flwor_hash = Xl_obs.Obs.Counter.make "eval_flwor_hash_join"
let c_flwor_nested = Xl_obs.Obs.Counter.make "eval_flwor_nested_loop"
let c_quant_semi = Xl_obs.Obs.Counter.make "eval_quant_semi_join"
let c_quant_nested = Xl_obs.Obs.Counter.make "eval_quant_nested"
let c_quant_witnesses = Xl_obs.Obs.Counter.make "eval_quant_witnesses"
let c_nodes_visited = Xl_obs.Obs.Counter.make "eval_nodes_visited"
let c_frozen_selects = Xl_obs.Obs.Counter.make "eval_frozen_selects"
let c_frozen_scanned = Xl_obs.Obs.Counter.make "eval_frozen_nodes_scanned"
let c_extent_hit = Xl_obs.Obs.Counter.make "extent_cache_hit"
let c_extent_miss = Xl_obs.Obs.Counter.make "extent_cache_miss"

let liveness = Xl_automata.Dfa.liveness

let intern_doc_symbols alphabet doc =
  List.iter
    (fun n -> ignore (Xl_automata.Alphabet.intern alphabet (Node.symbol n)))
    (Doc.all_nodes doc)

let make_ctx (store : Store.t) : ctx =
  let alphabet = Xl_automata.Alphabet.create () in
  List.iter (intern_doc_symbols alphabet) (Store.docs store);
  (* constructed text nodes must already be interned when a path walks a
     constructed tree: interning mid-walk invalidates every cached DFA *)
  ignore (Xl_automata.Alphabet.intern alphabet "#text");
  {
    store;
    alphabet;
    cache = Hashtbl.create 32;
    constructed = 0;
    join_cache = Hashtbl.create 16;
    plan_cache = Hashtbl.create 16;
    frozen_syms = Hashtbl.create 4;
    extent_cache = Hashtbl.create 256;
    live_cache = Hashtbl.create 16;
    frozen_scratch = [||];
  }

let ctx_of_doc doc = make_ctx (Store.of_docs [ doc ])

(* intern every tag literal of the path so Any_elem expansion and
   compilation agree on the alphabet *)
let rec intern_path_symbols alphabet (p : Path_expr.t) =
  match p with
  | Path_expr.Step (_, test) -> (
    match Path_expr.test_symbol test with
    | Some s -> ignore (Xl_automata.Alphabet.intern alphabet s)
    | None -> ())
  | Path_expr.Seq (a, b) | Path_expr.Alt (a, b) ->
    intern_path_symbols alphabet a;
    intern_path_symbols alphabet b
  | Path_expr.Star a -> intern_path_symbols alphabet a
  | Path_expr.Eps -> ()

let compile_path (ctx : ctx) (p : Path_expr.t) : compiled_path =
  match Hashtbl.find_opt ctx.cache p with
  | Some c when Xl_automata.Dfa.alphabet_size c.dfa = Xl_automata.Alphabet.size ctx.alphabet ->
    c
  | _ ->
    intern_path_symbols ctx.alphabet p;
    let regex = Path_expr.to_regex ctx.alphabet p in
    let dfa =
      Xl_automata.Regex.to_dfa ~alphabet_size:(Xl_automata.Alphabet.size ctx.alphabet) regex
    in
    let c = { dfa; live = liveness dfa } in
    Hashtbl.replace ctx.cache p c;
    c

(* ---------- DFA selection engine ---------------------------------------- *)

(* liveness of a DFA not compiled by this context (the oracle's target
   DFAs arrive pre-built); per-context memo, domain-confined like every
   other ctx cache *)
let live_of (ctx : ctx) (dfa : Xl_automata.Dfa.t) : bool array =
  match Hashtbl.find_opt ctx.live_cache dfa with
  | Some l -> l
  | None ->
    let l = Xl_automata.Dfa.liveness dfa in
    Hashtbl.replace ctx.live_cache dfa l;
    l

(* The pointer walk with dead-state pruning: the engine for constructed
   bases, and the reference the frozen scan is tested against.  A DFS
   taking attributes before element/text children — the order
   [Doc.of_frag] numbered them in — emits document order directly, so
   the accumulator only needs reversing, never sorting. *)
let tree_select (ctx : ctx) (dfa : Xl_automata.Dfa.t) (live : bool array)
    (base : Node.t) : Node.t list =
  let visited = ref 0 in
  let out = ref [] in
  (* find-only: a symbol unseen by the alphabet cannot be in the DFA's
     alphabet, so it can never match — and interning it here would
     silently invalidate every cached DFA on the next compile *)
  let sym n = Xl_automata.Alphabet.find ctx.alphabet (Node.symbol n) in
  let rec visit q n =
    incr visited;
    (* try attributes *)
    List.iter
      (fun a ->
        match sym a with
        | Some s when s < Xl_automata.Dfa.alphabet_size dfa ->
          let q' = Xl_automata.Dfa.step dfa q s in
          if q' >= 0 && dfa.Xl_automata.Dfa.finals.(q') then out := a :: !out
        | _ -> ())
      n.Node.attributes;
    (* children: text and elements *)
    List.iter
      (fun c ->
        match sym c with
        | Some s when s < Xl_automata.Dfa.alphabet_size dfa ->
          let q' = Xl_automata.Dfa.step dfa q s in
          if live.(q') then begin
            if dfa.Xl_automata.Dfa.finals.(q') then out := c :: !out;
            if Node.is_element c then visit q' c
          end
        | _ -> ())
      n.Node.children
  in
  (* ε in the path language selects the origin node itself (the
     relative path of a node to itself is empty) *)
  if dfa.Xl_automata.Dfa.finals.(dfa.Xl_automata.Dfa.start) then
    out := base :: !out;
  visit dfa.Xl_automata.Dfa.start base;
  Xl_obs.Obs.Counter.add c_nodes_visited !visited;
  List.rev !out

(* The snapshot's local symbol ids mapped to this context's alphabet
   (-1 for symbols the alphabet has never seen).  The map depends only
   on the alphabet size — the alphabet is append-only — so it is rebuilt
   exactly when the alphabet has grown since it was built. *)
let frozen_sym_map (ctx : ctx) (fz : Frozen.t) : int array =
  let asize = Xl_automata.Alphabet.size ctx.alphabet in
  match Hashtbl.find_opt ctx.frozen_syms fz.Frozen.uid with
  | Some (map, stamp) when stamp = asize -> map
  | _ ->
    let map =
      Array.map
        (fun s ->
          match Xl_automata.Alphabet.find ctx.alphabet s with
          | Some i -> i
          | None -> -1)
        fz.Frozen.symbols
    in
    Hashtbl.replace ctx.frozen_syms fz.Frozen.uid (map, asize);
    map

(* Frozen fast path: one linear scan of the document-order arrays over
   [base]'s subtree range, tracking the DFA state per position.  A
   position whose symbol the DFA cannot read, or whose state is not
   live, skips its whole subtree in O(1) via [subtree_end] — the array
   form of the reference walk's pruning.  Because positions are document
   order, results need no sorting.  Every position examined except the
   base has its parent's state already assigned: a position is only
   reached either as parent+1 or by skipping a preceding sibling
   subtree, never from inside a skipped subtree. *)
let frozen_select (ctx : ctx) (fz : Frozen.t) ~(base_pos : int)
    (dfa : Xl_automata.Dfa.t) (live : bool array) : Node.t list =
  let map = frozen_sym_map ctx fz in
  let k = dfa.Xl_automata.Dfa.alphabet_size in
  let delta = dfa.Xl_automata.Dfa.delta in
  let finals = dfa.Xl_automata.Dfa.finals in
  let sym = fz.Frozen.sym
  and parent = fz.Frozen.parent
  and sub_end = fz.Frozen.subtree_end
  and nodes = Frozen.nodes fz in
  let b = base_pos in
  let e = sub_end.(b) in
  (* dirty scratch, grown on demand: [states.(parent.(p) - b)] below is
     always a position this very scan assigned — [p] is reached either
     as parent + 1 or by skipping an earlier sibling's subtree, never
     from inside a skipped subtree — so stale values are never read and
     the O(subtree) clear that dominated doc-rooted selects is gone *)
  if Array.length ctx.frozen_scratch < e - b then
    ctx.frozen_scratch <- Array.make (e - b + (e - b) / 2 + 16) (-1);
  let states = ctx.frozen_scratch in
  states.(0) <- dfa.Xl_automata.Dfa.start;
  let out = ref [] in
  if finals.(dfa.Xl_automata.Dfa.start) then out := nodes.(b) :: !out;
  let scanned = ref 0 in
  let i = ref (b + 1) in
  while !i < e do
    let p = !i in
    incr scanned;
    let a = map.(sym.(p)) in
    if a < 0 || a >= k then i := sub_end.(p)
    else begin
      let q' = delta.(states.(parent.(p) - b)).(a) in
      if live.(q') then begin
        if finals.(q') then out := nodes.(p) :: !out;
        states.(p - b) <- q';
        i := p + 1
      end
      else i := sub_end.(p)
    end
  done;
  Xl_obs.Obs.Counter.incr c_frozen_selects;
  Xl_obs.Obs.Counter.add c_frozen_scanned !scanned;
  List.rev !out

let raw_select (ctx : ctx) (dfa : Xl_automata.Dfa.t) (live : bool array)
    (base : Node.t) : Node.t list =
  match Store.frozen_of_node ctx.store base with
  | Some (fz, pos) -> frozen_select ctx fz ~base_pos:pos dfa live
  | None -> tree_select ctx dfa live base

(* The one memoized selection entry point.  The cache key pairs the DFA
   value itself (structural equality/hashing — DFAs are pure int/bool
   records, and symbol ids never change meaning because the alphabet is
   append-only) with the base's node id; the store never changes, so
   entries live as long as the context.  Cached lists are immutable and
   shared. *)
let select_dfa_live (ctx : ctx) (dfa : Xl_automata.Dfa.t) (live : bool array)
    (base : Node.t) : Node.t list =
  let key = (dfa, base.Node.id) in
  match Hashtbl.find_opt ctx.extent_cache key with
  | Some r ->
    Xl_obs.Obs.Counter.incr c_extent_hit;
    r
  | None ->
    Xl_obs.Obs.Counter.incr c_extent_miss;
    let r = raw_select ctx dfa live base in
    Hashtbl.replace ctx.extent_cache key r;
    r

(** Nodes under [base] whose relative tag path the DFA accepts, document
    order — extent selection for externally compiled DFAs. *)
let select_dfa (ctx : ctx) (dfa : Xl_automata.Dfa.t) (base : Node.t) :
    Node.t list =
  select_dfa_live ctx dfa (live_of ctx dfa) base

(** Nodes reachable from [from] by the regular path [p] — [from]'s own
    symbol is not consumed.  Results in document order. *)
let eval_path (ctx : ctx) (p : Path_expr.t) (from : Node.t) : Node.t list =
  let { dfa; live } = compile_path ctx p in
  select_dfa_live ctx dfa live from

(* ---------- element construction ---------------------------------------- *)

(* Constructed content: adjacent atoms joined by a space, nodes copied.
   Construction builds the node tree directly — same ids, Dewey numbering
   and text splitting as the old Frag round-trip through [Doc.of_frag],
   without serializing copied subtrees or allocating a document and its
   id table (constructed trees are never registered in the store). *)

type kid =
  | K_text of string
  | K_copy of Node.t  (** element to deep-copy *)

let rec item_kids (it : Value.item) : kid list =
  match it with
  | Value.Atom a -> [ K_text (Value.atom_to_string a) ]
  | Value.Node n -> (
    match n.Node.kind with
    | Node.Text | Node.Attribute -> [ K_text n.Node.value ]
    | Node.Element -> [ K_copy n ]
    | Node.Document -> List.concat_map item_kids (Value.of_nodes n.Node.children))

let content_kids (v : Value.t) : kid list =
  (* merge adjacent atoms with a single space, XQuery-style *)
  let rec go = function
    | [] -> []
    | Value.Atom a :: (Value.Atom _ :: _ as rest) ->
      K_text (Value.atom_to_string a ^ " ") :: go rest
    | it :: rest -> item_kids it @ go rest
  in
  go v

let fresh_node kind name value dewey =
  {
    Node.id = Doc.fresh_id ();
    kind;
    name;
    value;
    parent = None;
    children = [];
    attributes = [];
    dewey;
  }

(* Deep copy with fresh ids, renumbering Dewey codes under [dewey] with
   the shared attribute/child counter [Doc.of_frag] uses. *)
let rec copy_element dewey (src : Node.t) : Node.t =
  let n = fresh_node Node.Element src.Node.name "" dewey in
  let k = ref 0 in
  let attrs =
    List.map
      (fun (a : Node.t) ->
        incr k;
        let c =
          fresh_node Node.Attribute a.Node.name a.Node.value (Dewey.child dewey !k)
        in
        c.Node.parent <- Some n;
        c)
      src.Node.attributes
  in
  let kids =
    List.map
      (fun (c : Node.t) ->
        incr k;
        let d = Dewey.child dewey !k in
        let cc =
          if Node.is_text c then fresh_node Node.Text "" c.Node.value d
          else copy_element d c
        in
        cc.Node.parent <- Some n;
        cc)
      src.Node.children
  in
  n.Node.attributes <- attrs;
  n.Node.children <- kids;
  n

let construct_element (ctx : ctx) tag (attrs : (string * string) list)
    (kids : kid list) : Node.t =
  (* intern constructed symbols now, not lazily during a later path walk
     (interning mid-walk invalidates every compiled DFA) *)
  ignore (Xl_automata.Alphabet.intern ctx.alphabet tag);
  List.iter
    (fun (name, _) -> ignore (Xl_automata.Alphabet.intern ctx.alphabet ("@" ^ name)))
    attrs;
  let dewey = Dewey.root in
  let n = fresh_node Node.Element tag "" dewey in
  let k = ref 0 in
  let attr_nodes =
    List.map
      (fun (name, value) ->
        incr k;
        let a = fresh_node Node.Attribute name value (Dewey.child dewey !k) in
        a.Node.parent <- Some n;
        a)
      attrs
  in
  let kid_nodes =
    List.map
      (fun kid ->
        incr k;
        let d = Dewey.child dewey !k in
        let c =
          match kid with
          | K_text s -> fresh_node Node.Text "" s d
          | K_copy src -> copy_element d src
        in
        c.Node.parent <- Some n;
        c)
      kids
  in
  n.Node.attributes <- attr_nodes;
  n.Node.children <- kid_nodes;
  n

(* ---------- hash-join planning ------------------------------------------ *)

let rec flatten_conjuncts (e : Ast.expr) : Ast.expr list =
  match e with
  | Ast.And (a, b) -> flatten_conjuncts a @ flatten_conjuncts b
  | e -> [ e ]

(* Conservatively side-effect-free: no exceptions (arithmetic on empty
   sequences raises), no construction counter.  The join may skip
   evaluating such expressions on tuples it prunes, so anything skippable
   must be unobservable. *)
let rec pure_expr (e : Ast.expr) : bool =
  match e with
  | Ast.Literal _ | Ast.Var _ | Ast.Doc_root _ -> true
  | Ast.Path (e, _) | Ast.Simple (e, _) | Ast.Not e -> pure_expr e
  | Ast.Sequence es -> List.for_all pure_expr es
  | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) | Ast.Union (a, b) ->
    pure_expr a && pure_expr b
  | Ast.If (c, t, f) -> pure_expr c && pure_expr t && pure_expr f
  | Ast.Some_ (bs, body) | Ast.Every (bs, body) ->
    List.for_all (fun (_, e) -> pure_expr e) bs && pure_expr body
  | Ast.Call (name, args) ->
    List.mem name
      [
        "count"; "data"; "string"; "empty"; "exists"; "not"; "contains";
        "starts-with"; "distinct"; "distinct-values"; "true"; "false";
      ]
    && List.for_all pure_expr args
  | Ast.Flwor _ | Ast.Elem _ | Ast.Attr_c _ | Ast.Text_c _ | Ast.Arith _ ->
    false

(** Plan a hash join for [f], if its [where] clause supports one that is
    observationally equivalent to the nested-loop evaluation:

    - the join conjunct is an equality whose build side mentions exactly
      one variable, bound by a [for] binding with a closed, pure source
      sequence, and whose probe side only mentions variables available
      before that binding expands (outer/free variables or earlier [for]
      variables of this FLWOR);
    - conjuncts left of the join conjunct, and the sources of [for]
      bindings right of the build binding, are pure — they are the
      evaluations the join may skip on pruned tuples. *)
let plan_hash_join (f : Ast.flwor) : join_plan option =
  match f.Ast.where with
  | None -> None
  | Some w ->
    let for_vars = List.map fst f.Ast.for_ in
    let let_vars = List.map fst f.Ast.let_ in
    let all_vars = for_vars @ let_vars in
    if List.length (List.sort_uniq String.compare all_vars) <> List.length all_vars
    then None (* shadowing inside one FLWOR: stay on the naive path *)
    else
      let bindings = Array.of_list f.Ast.for_ in
      let n = Array.length bindings in
      let binding_index v =
        let rec go i = if i >= n then None else if String.equal (fst bindings.(i)) v then Some i else go (i + 1) in
        go 0
      in
      let orient build probe =
        if not (pure_expr build && pure_expr probe) then None
        else
          match Ast.free_vars build with
          | [ v ] -> (
            match binding_index v with
            | None -> None
            | Some i ->
              let _, src = bindings.(i) in
              let probe_ok =
                List.for_all
                  (fun fv ->
                    (not (List.mem fv let_vars))
                    && (match binding_index fv with
                       | Some j -> j < i
                       | None -> true (* outer/free: bound in env or a runtime error either way *)))
                  (Ast.free_vars probe)
              in
              let later_pure =
                Array.for_all (fun (_, e) -> pure_expr e)
                  (Array.sub bindings (i + 1) (n - i - 1))
              in
              if
                Ast.free_vars src = [] && pure_expr src && probe_ok && later_pure
              then
                Some
                  {
                    jp_binding = i;
                    jp_var = v;
                    jp_source = src;
                    jp_key = build;
                    jp_probe = probe;
                    jp_residual = None;
                  }
              else None)
          | _ -> None
      in
      let conjs = flatten_conjuncts w in
      let rec scan skipped = function
        | [] -> None
        | c :: rest -> (
          let plan =
            match c with
            | Ast.Cmp (Ast.Eq, l, r) -> (
              match orient l r with Some p -> Some p | None -> orient r l)
            | _ -> None
          in
          match plan with
          | Some p ->
            let residual =
              match List.rev_append skipped rest with
              | [] -> None
              | e :: es ->
                Some (List.fold_left (fun a b -> Ast.And (a, b)) e es)
            in
            Some { p with jp_residual = residual }
          | None ->
            (* a pruned tuple skips this conjunct too: it must be pure *)
            if pure_expr c then scan (c :: skipped) rest else None)
      in
      scan [] conjs

(** Plan [some $w in src satisfies body] as a hash semi-join: the same
    eligibility as a one-binding FLWOR whose [where] is [body], plus a
    pure [body].  The plan only prunes witnesses whose key values miss
    the probe values — for those the join conjunct, hence the body, is
    false — and the full body is re-checked on the survivors, so its
    [jp_residual] is unused.  Purity makes the skipped bodies
    unobservable. *)
let plan_semi_join (bs : Ast.binding list) (body : Ast.expr) : join_plan option =
  match bs with
  | [ b ] when pure_expr body ->
    plan_hash_join
      {
        Ast.for_ = [ b ];
        let_ = [];
        where = Some body;
        order_by = [];
        return = Ast.Sequence [];
      }
  | _ -> None

let memo_plan (ctx : ctx) (key : Ast.expr) plan : join_plan option =
  match Hashtbl.find_opt ctx.plan_cache key with
  | Some p -> p
  | None ->
    let p = plan () in
    Hashtbl.replace ctx.plan_cache key p;
    p

exception Type_error of string

(* ---------- pure helpers (shared with the reference evaluator) ---------- *)

let general_compare op (va : Value.t) (vb : Value.t) : bool =
  match op with
  | Ast.Is ->
    (* node identity, existentially over the two sequences *)
    List.exists
      (function
        | Value.Node n ->
          List.exists
            (function Value.Node m -> Xl_xml.Node.equal n m | Value.Atom _ -> false)
            vb
        | Value.Atom _ -> false)
      va
  | _ ->
  let atoms_a = Value.atomize va and atoms_b = Value.atomize vb in
  let holds a b =
    let c = Value.atom_compare a b in
    match op with
    | Ast.Eq -> Value.atom_equal a b
    | Ast.Ne -> not (Value.atom_equal a b)
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.Is -> assert false
  in
  List.exists (fun a -> List.exists (fun b -> holds a b) atoms_b) atoms_a

let eval_arith op va vb : Value.t =
  let num v =
    match List.filter_map Value.numeric_of_atom (Value.atomize v) with
    | [ n ] -> n
    | [] -> raise (Type_error "arithmetic on empty sequence")
    | _ -> raise (Type_error "arithmetic on a sequence")
  in
  let a = num va and b = num vb in
  let r =
    match op with
    | Ast.Add -> a +. b
    | Ast.Sub -> a -. b
    | Ast.Mul -> a *. b
    | Ast.Div -> a /. b
    | Ast.Mod -> Float.rem a b
  in
  Value.of_float r

let eval_elem (ctx : ctx) (eval_in : Ast.expr -> Value.t) tag
    (contents : Ast.expr list) : Value.t =
  let attrs, kids =
    List.fold_left
      (fun (attrs, kids) c ->
        match c with
        | Ast.Attr_c (name, e) ->
          (attrs @ [ (name, Value.string_value (eval_in e)) ], kids)
        | _ -> (attrs, kids @ content_kids (eval_in c)))
      ([], []) contents
  in
  ctx.constructed <- ctx.constructed + 1;
  [ Value.Node (construct_element ctx tag attrs kids) ]

let order_tuples (eval_in : Env.t -> Ast.expr -> Value.t)
    (keys : Ast.order_key list) (tuples : Env.t list) : Env.t list =
  let decorated =
    List.map
      (fun env ->
        (List.map (fun k -> (Value.atomize (eval_in env k.Ast.key), k.Ast.descending)) keys, env))
      tuples
  in
  let cmp_keys (ka, _) (kb, _) =
    let rec go a b =
      match a, b with
      | [], [] -> 0
      | (xa, desc) :: ra, (xb, _) :: rb ->
        let c =
          match xa, xb with
          | [], [] -> 0
          | [], _ -> -1
          | _, [] -> 1
          | a0 :: _, b0 :: _ -> Value.atom_compare a0 b0
        in
        if c <> 0 then if desc then -c else c else go ra rb
      | _ -> 0
    in
    go ka kb
  in
  List.map snd (List.stable_sort cmp_keys decorated)

let rec eval (ctx : ctx) (env : Env.t) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Literal a -> [ Value.Atom a ]
  | Ast.Sequence es -> List.concat_map (eval ctx env) es
  | Ast.Var v -> Env.find_exn env v
  | Ast.Doc_root uri -> (
    match uri with
    | None -> [ Value.Node (Store.default ctx.store).Doc.doc_node ]
    | Some u -> [ Value.Node (Store.find_exn ctx.store u).Doc.doc_node ])
  | Ast.Path (e, p) ->
    let v = eval ctx env e in
    Value.document_order
      (Value.of_nodes (List.concat_map (eval_path ctx p) (Value.nodes_of v)))
  | Ast.Simple (e, p) ->
    let v = eval ctx env e in
    Value.document_order
      (Value.of_nodes (List.concat_map (Simple_path.eval p) (Value.nodes_of v)))
  | Ast.Flwor f -> eval_flwor ctx env f
  | Ast.Some_ (bs, body) -> Value.of_bool (eval_quant ctx env bs body ~exists:true)
  | Ast.Every (bs, body) -> Value.of_bool (eval_quant ctx env bs body ~exists:false)
  | Ast.If (c, t, f) ->
    if Value.to_bool (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Elem (tag, contents) -> eval_elem ctx (eval ctx env) tag contents
  | Ast.Attr_c (_, e) ->
    (* attribute outside an element constructor: atomize *)
    [ Value.Atom (Value.Str (Value.string_value (eval ctx env e))) ]
  | Ast.Text_c e -> [ Value.Atom (Value.Str (Value.string_value (eval ctx env e))) ]
  | Ast.Cmp (op, a, b) ->
    Value.of_bool (general_compare op (eval ctx env a) (eval ctx env b))
  | Ast.Arith (op, a, b) -> eval_arith op (eval ctx env a) (eval ctx env b)
  | Ast.And (a, b) ->
    Value.of_bool (Value.to_bool (eval ctx env a) && Value.to_bool (eval ctx env b))
  | Ast.Or (a, b) ->
    Value.of_bool (Value.to_bool (eval ctx env a) || Value.to_bool (eval ctx env b))
  | Ast.Not a -> Value.of_bool (not (Value.to_bool (eval ctx env a)))
  | Ast.Call (name, args) -> Functions.apply name (List.map (eval ctx env) args)
  | Ast.Union (a, b) ->
    Value.document_order (eval ctx env a @ eval ctx env b)

(** The build-side index for [p], shared across probes through the
    context and built once per context. *)
and join_index_of (ctx : ctx) (p : join_plan) : join_index =
  let key = (p.jp_source, p.jp_key) in
  match Hashtbl.find_opt ctx.join_cache key with
  | Some ji -> ji
  | None ->
    let items = Array.of_list (eval ctx Env.empty p.jp_source) in
    let buckets = Hashtbl.create ((2 * Array.length items) + 1) in
    Array.iteri
      (fun i item ->
        let v = eval ctx (Env.bind Env.empty p.jp_var [ item ]) p.jp_key in
        let keys =
          List.sort_uniq String.compare
            (List.concat_map Value.atom_hash_keys (Value.atomize v))
        in
        List.iter
          (fun k ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt buckets k) in
            Hashtbl.replace buckets k (i :: cur))
          keys)
      items;
    Hashtbl.filter_map_inplace (fun _ is -> Some (List.rev is)) buckets;
    let ji = { items; buckets } in
    Hashtbl.replace ctx.join_cache key ji;
    ji

(** Expand the build binding of [p] under [env]: only the items whose key
    values meet the probe values, in original sequence order — exactly
    the tuples the nested loop would keep for the join conjunct. *)
and probe_join (ctx : ctx) (env : Env.t) (p : join_plan) : Env.t Seq.t =
  let ji = join_index_of ctx p in
  let keys =
    List.sort_uniq String.compare
      (List.concat_map Value.atom_hash_keys
         (Value.atomize (eval ctx env p.jp_probe)))
  in
  let idxs =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun k -> Option.value ~default:[] (Hashtbl.find_opt ji.buckets k))
         keys)
  in
  Seq.map (fun i -> Env.bind env p.jp_var [ ji.items.(i) ]) (List.to_seq idxs)

and eval_flwor ctx env (f : Ast.flwor) : Value.t =
  let plan = memo_plan ctx (Ast.Flwor f) (fun () -> plan_hash_join f) in
  (match plan with
  | Some _ -> Xl_obs.Obs.Counter.incr c_flwor_hash
  | None -> if f.Ast.where <> None then Xl_obs.Obs.Counter.incr c_flwor_nested);
  (* expand for-bindings into a lazy tuple stream *)
  let expand i (v, e) (envs : Env.t Seq.t) : Env.t Seq.t =
    match plan with
    | Some p when p.jp_binding = i ->
      Seq.concat_map (fun env -> probe_join ctx env p) envs
    | _ ->
      Seq.concat_map
        (fun env ->
          Seq.map (fun item -> Env.bind env v [ item ])
            (List.to_seq (eval ctx env e)))
        envs
  in
  let tuples, _ =
    List.fold_left
      (fun (envs, i) b -> (expand i b envs, i + 1))
      (Seq.return env, 0) f.Ast.for_
  in
  let tuples =
    Seq.map
      (fun env ->
        List.fold_left (fun env (v, e) -> Env.bind env v (eval ctx env e)) env f.Ast.let_)
      tuples
  in
  let where = match plan with Some p -> p.jp_residual | None -> f.Ast.where in
  let tuples =
    match where with
    | None -> tuples
    | Some w -> Seq.filter (fun env -> Value.to_bool (eval ctx env w)) tuples
  in
  match f.Ast.order_by with
  | [] ->
    List.of_seq
      (Seq.concat_map (fun env -> List.to_seq (eval ctx env f.Ast.return)) tuples)
  | keys ->
    List.concat_map
      (fun env -> eval ctx env f.Ast.return)
      (order_tuples (eval ctx) keys (List.of_seq tuples))

and eval_quant ctx env bs body ~exists : bool =
  let plan =
    if exists then
      memo_plan ctx (Ast.Some_ (bs, body)) (fun () -> plan_semi_join bs body)
    else None
  in
  let holds env =
    Xl_obs.Obs.Counter.incr c_quant_witnesses;
    Value.to_bool (eval ctx env body)
  in
  match plan with
  | Some p ->
    Xl_obs.Obs.Counter.incr c_quant_semi;
    Seq.exists holds (probe_join ctx env p)
  | None ->
    Xl_obs.Obs.Counter.incr c_quant_nested;
    (* lazy expansion: [some] stops at the first witness, [every] at the
       first counterexample *)
    let tuples =
      List.fold_left
        (fun envs (v, e) ->
          Seq.concat_map
            (fun env ->
              Seq.map (fun item -> Env.bind env v [ item ])
                (List.to_seq (eval ctx env e)))
            envs)
        (Seq.return env) bs
    in
    if exists then Seq.exists holds tuples else Seq.for_all holds tuples

(** Evaluate a closed query against a store. *)
let run ?(env = Env.empty) (ctx : ctx) (e : Ast.expr) : Value.t = eval ctx env e

let value_to_string (v : Value.t) : string =
  String.concat ""
    (List.map
       (function
         | Value.Node n -> Serialize.node_to_string n
         | Value.Atom a -> Value.atom_to_string a)
       v)

(** Evaluate and serialize the result. *)
let run_to_string ?(env = Env.empty) (ctx : ctx) (e : Ast.expr) : string =
  value_to_string (run ~env ctx e)
