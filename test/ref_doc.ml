(** The two-pass document construction, kept as a test oracle for the
    one-pass builder of [Xl_xml.Doc].

    Documents were once built as a pointer tree first — the recursive
    numbering below: element, then its attributes, then each child's
    whole subtree, one rank counter, ordinals shared by attributes and
    children, the document node ranked 0 — and then frozen by a second
    walk into the preorder arrays.  The builder does both in one pass;
    [test_perf_parity] and [test_xml] require it to produce exactly what
    these two walks produce.  Node ids are never compared: every oracle
    node has id 0. *)

open Xl_xml

let node ~rank ~ordinal kind name value : Node.t =
  {
    Node.id = 0;
    kind;
    name;
    value;
    parent = None;
    children = [];
    attributes = [];
    rank;
    ordinal;
  }

(** The pointer tree of a fragment, document node on top. *)
let tree (frag : Frag.t) : Node.t =
  let next = ref 1 in
  let leaf ~ordinal kind name value =
    let rank = !next in
    incr next;
    node ~rank ~ordinal kind name value
  in
  let rec build ~ordinal = function
    | Frag.T s -> leaf ~ordinal Node.Text "" s
    | Frag.E (tag, attrs, kids) ->
      let n = leaf ~ordinal Node.Element tag "" in
      n.Node.attributes <-
        List.mapi
          (fun i (name, value) ->
            let a = leaf ~ordinal:(i + 1) Node.Attribute name value in
            a.Node.parent <- Some n;
            a)
          attrs;
      let k0 = List.length attrs in
      n.Node.children <-
        List.mapi
          (fun i kid ->
            let c = build ~ordinal:(k0 + i + 1) kid in
            c.Node.parent <- Some n;
            c)
          kids;
      n
  in
  let root = build ~ordinal:1 frag in
  let doc = node ~rank:0 ~ordinal:0 Node.Document "" "" in
  doc.Node.children <- [ root ];
  root.Node.parent <- Some doc;
  doc

type arrays = {
  nodes : Node.t array;
  symbols : string array;
  sym : int array;
  parent : int array;
  subtree_end : int array;
}

(** The freeze walk: a pointer tree laid out in preorder, attributes
    before children, symbols interned in first-appearance order. *)
let freeze (doc : Node.t) : arrays =
  let nodes = ref [] and sym = ref [] and parent = ref [] in
  let ends = Hashtbl.create 1024 in
  let sym_ids = Hashtbl.create 64 in
  let intern s =
    match Hashtbl.find_opt sym_ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length sym_ids in
      Hashtbl.replace sym_ids s i;
      i
  in
  let next = ref 0 in
  let rec go parent_pos (n : Node.t) =
    let p = !next in
    incr next;
    nodes := n :: !nodes;
    parent := parent_pos :: !parent;
    sym := intern (Node.symbol n) :: !sym;
    List.iter (go p) n.Node.attributes;
    List.iter (go p) n.Node.children;
    Hashtbl.replace ends p !next
  in
  go (-1) doc;
  let symbols = Array.make (Hashtbl.length sym_ids) "" in
  Hashtbl.iter (fun s i -> symbols.(i) <- s) sym_ids;
  let of_rev l = Array.of_list (List.rev l) in
  {
    nodes = of_rev !nodes;
    symbols;
    sym = of_rev !sym;
    parent = of_rev !parent;
    subtree_end = Array.init !next (Hashtbl.find ends);
  }

let same_node (a : Node.t) (b : Node.t) =
  a.Node.kind = b.Node.kind
  && String.equal a.Node.name b.Node.name
  && String.equal a.Node.value b.Node.value
  && a.Node.rank = b.Node.rank
  && a.Node.ordinal = b.Node.ordinal

(** Two pointer trees alike in every node's kind, name, value, rank and
    ordinal, ids ignored. *)
let rec same_tree (a : Node.t) (b : Node.t) =
  same_node a b
  && List.equal same_tree a.Node.attributes b.Node.attributes
  && List.equal same_tree a.Node.children b.Node.children

(** [None] when the document's arrays are exactly the freeze walk of its
    own pointer tree — the very nodes, each at its rank — else what
    differs. *)
let arrays_mismatch (d : Doc.t) : string option =
  let w = freeze (Doc.doc_node d) in
  if Array.length w.nodes <> Array.length d.Doc.nodes then Some "node count"
  else if not (Array.for_all2 ( == ) w.nodes d.Doc.nodes) then Some "node order"
  else if Array.exists Fun.id (Array.mapi (fun p (n : Node.t) -> n.Node.rank <> p) w.nodes)
  then Some "ranks"
  else if w.symbols <> d.Doc.symbols then Some "symbol table"
  else if w.sym <> d.Doc.sym then Some "symbol ids"
  else if w.parent <> d.Doc.parent then Some "parent positions"
  else if w.subtree_end <> d.Doc.subtree_end then Some "subtree ends"
  else None

(** Two documents alike in everything the evaluator can observe: the
    arrays, the symbol table and every position's node, ids ignored. *)
let equal (a : Doc.t) (b : Doc.t) =
  a.Doc.symbols = b.Doc.symbols
  && a.Doc.sym = b.Doc.sym
  && a.Doc.parent = b.Doc.parent
  && a.Doc.subtree_end = b.Doc.subtree_end
  && Array.length a.Doc.nodes = Array.length b.Doc.nodes
  && Array.for_all2 same_node a.Doc.nodes b.Doc.nodes
  && same_tree (Doc.doc_node a) (Doc.doc_node b)
