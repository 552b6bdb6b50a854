(** Frozen documents: immutable structure-of-arrays snapshots (see the
    interface for the layout contract).

    The preorder enumeration must match {!Node.all_nodes} — attributes
    before element/text children, both in declaration order — because
    {!Doc.of_frag} assigns Dewey codes with one shared counter over
    attributes-then-children: preorder position IS document order. *)

type pos_index =
  | Dense of { base : int; tbl : int array }
      (** node ids are contiguous ([base .. base + n - 1]): id -> position
          is one array read.  The common case for a freshly built document
          — ids come from one atomic counter, so they only fragment when
          several documents are built concurrently. *)
  | Sparse of (int, int) Hashtbl.t  (** fallback: node id -> position *)

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
  pos_of_id : pos_index;
}

let next_uid = Atomic.make 0

(* fallback accounting: how often a snapshot had to keep the hashtable
   because its node ids were not contiguous *)
let c_pos_dense = Xl_obs.Obs.Counter.make "frozen_pos_dense"
let c_pos_sparse = Xl_obs.Obs.Counter.make "frozen_pos_sparse"

let make_pos_index (nodes : Node.t array) : pos_index =
  let n = Array.length nodes in
  let mn = ref max_int and mx = ref min_int in
  Array.iter
    (fun (nd : Node.t) ->
      let id = nd.Node.id in
      if id < !mn then mn := id;
      if id > !mx then mx := id)
    nodes;
  if n > 0 && !mx - !mn = n - 1 then begin
    (* ids are unique, so spanning exactly n values means contiguous *)
    Xl_obs.Obs.Counter.incr c_pos_dense;
    let tbl = Array.make n 0 in
    Array.iteri (fun p (nd : Node.t) -> tbl.(nd.Node.id - !mn) <- p) nodes;
    Dense { base = !mn; tbl }
  end
  else begin
    Xl_obs.Obs.Counter.incr c_pos_sparse;
    let h = Hashtbl.create (2 * max 1 n) in
    Array.iteri (fun p (nd : Node.t) -> Hashtbl.replace h nd.Node.id p) nodes;
    Sparse h
  end

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

(* Derive the sibling links and the position index and draw a fresh
   uid.  Callers ({!freeze}, [Frozen_builder]) are responsible for the
   layout contract: [nodes] in preorder with attributes before children,
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
    pos_of_id = make_pos_index nodes;
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
  let id = n.Node.id in
  let raw =
    match t.pos_of_id with
    | Dense { base; tbl } ->
      let i = id - base in
      if i >= 0 && i < Array.length tbl then Some tbl.(i) else None
    | Sparse h -> Hashtbl.find_opt h id
  in
  match raw with
  | Some p when Node.equal t.nodes.(p) n -> Some p
  | _ -> None

let pos_index_is_dense t =
  match t.pos_of_id with Dense _ -> true | Sparse _ -> false

(* Equality of everything the evaluator can observe: the int arrays, the
   symbol table, and each position's node kind/name/value/Dewey code.
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
         && x.Node.dewey = y.Node.dewey)
       a.nodes b.nodes
