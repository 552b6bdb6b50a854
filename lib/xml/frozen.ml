(** Frozen documents: immutable structure-of-arrays snapshots (see the
    interface for the layout contract).

    The preorder enumeration must match {!Node.all_nodes} — attributes
    before element/text children, both in declaration order — because
    that is the order {!Doc.make_element} ranks nodes in: preorder
    position IS the node's rank, and document order. *)

type t = {
  uid : int;
  symbols : string array;
  sym : int array;
  parent : int array;
  subtree_end : int array;
  first_child : int array;
  next_sibling : int array;
  doc : Doc.t;
  nodes : Node.t array;
}

let next_uid = Atomic.make 0

(* sibling ranges are contiguous: the next sibling of [p] starts where
   [p]'s subtree ends, provided that position is still inside the
   parent's subtree *)
let link_siblings ~(parent : int array) ~(subtree_end : int array) :
    int array * int array =
  let n = Array.length parent in
  let first_child = Array.make n (-1) in
  let next_sibling = Array.make n (-1) in
  for p = 1 to n - 1 do
    if first_child.(parent.(p)) = -1 then first_child.(parent.(p)) <- p;
    let e = subtree_end.(p) in
    if e < subtree_end.(parent.(p)) then next_sibling.(p) <- e
  done;
  (first_child, next_sibling)

(* Derive the sibling links and draw a fresh uid.  Callers ({!freeze},
   [Frozen_builder]) are responsible for the layout contract: [nodes] in
   preorder with attributes before children, ranked by position,
   position 0 the document node, [sym] interned in first-appearance
   (= preorder) order. *)
let of_arrays ~(doc : Doc.t) ~(nodes : Node.t array) ~(symbols : string array)
    ~(sym : int array) ~(parent : int array) ~(subtree_end : int array) : t =
  let first_child, next_sibling = link_siblings ~parent ~subtree_end in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    symbols;
    sym;
    parent;
    subtree_end;
    first_child;
    next_sibling;
    doc;
    nodes;
  }

let freeze (doc : Doc.t) : t =
  let n = Doc.node_count doc in
  let doc_node = doc.Doc.doc_node in
  let nodes = Array.make n doc_node in
  let sym = Array.make n 0 in
  let parent = Array.make n (-1) in
  let subtree_end = Array.make n 0 in
  (* per-document symbol interning: the global alphabet is a property of
     an evaluation context, not of the document, so the snapshot keeps
     its own dense ids and contexts map them (see Eval.frozen_sym_map) *)
  let sym_ids = Hashtbl.create 64 in
  let sym_list = ref [] in
  let sym_count = ref 0 in
  let intern s =
    match Hashtbl.find_opt sym_ids s with
    | Some i -> i
    | None ->
      let i = !sym_count in
      incr sym_count;
      Hashtbl.replace sym_ids s i;
      sym_list := s :: !sym_list;
      i
  in
  let next = ref 0 in
  let rec go parent_pos (node : Node.t) =
    let p = !next in
    incr next;
    if node.Node.rank <> p then
      invalid_arg "Frozen.freeze: node rank is not its preorder position";
    nodes.(p) <- node;
    parent.(p) <- parent_pos;
    sym.(p) <- intern (Node.symbol node);
    List.iter (go p) node.Node.attributes;
    List.iter (go p) node.Node.children;
    subtree_end.(p) <- !next
  in
  go (-1) doc_node;
  assert (!next = n);
  let symbols = Array.of_list (List.rev !sym_list) in
  of_arrays ~doc ~nodes ~symbols ~sym ~parent ~subtree_end

let size t = Array.length t.sym
let doc t = t.doc
let nodes t = t.nodes
let node t p = t.nodes.(p)

let pos_of_node t (n : Node.t) : int option =
  let p = n.Node.rank in
  if p >= 0 && p < Array.length t.nodes && t.nodes.(p) == n then Some p else None

(* Equality of everything the evaluator can observe: the int arrays, the
   symbol table, and each position's node kind/name/value/rank/ordinal.
   Node ids are deliberately ignored — two ingestions of the same
   document draw different ids from the process-wide counter. *)
let structural_equal (a : t) (b : t) : bool =
  Array.length a.sym = Array.length b.sym
  && a.symbols = b.symbols
  && a.sym = b.sym
  && a.parent = b.parent
  && a.subtree_end = b.subtree_end
  && a.first_child = b.first_child
  && a.next_sibling = b.next_sibling
  && Array.for_all2
       (fun (x : Node.t) (y : Node.t) ->
         x.Node.kind = y.Node.kind
         && String.equal x.Node.name y.Node.name
         && String.equal x.Node.value y.Node.value
         && x.Node.rank = y.Node.rank
         && x.Node.ordinal = y.Node.ordinal)
       a.nodes b.nodes
