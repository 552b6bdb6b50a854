(** Documents: identity-bearing XML trees.

    [of_frag] materializes a {!Frag.t} into a {!Node.t} tree, assigning
    fresh node ids and preorder ranks.  Node ids are unique across all
    documents built in a process — the counter is atomic, so documents
    built concurrently on several domains still draw disjoint ids — and
    nodes from several documents can live in one extent or data graph. *)

type t = {
  uri : string;
  doc_node : Node.t;  (** kind [Document]; its single child is the root element *)
  root : Node.t;  (** the root element *)
  node_count : int;  (** every node, the document node included *)
}

let next_node_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_node_id 1

let make_node ~rank ~ordinal kind name value =
  {
    Node.id = fresh_id ();
    kind;
    name;
    value;
    parent = None;
    children = [];
    attributes = [];
    rank;
    ordinal;
  }

let make_leaf ~next ~ordinal kind name value =
  let rank = !next in
  incr next;
  make_node ~rank ~ordinal kind name value

(* The preorder numbering every top-down tree producer shares: the
   element takes the next rank, then its attributes, then each kid's
   whole subtree; ordinals count attributes and kids with one counter. *)
let make_element ~next ~ordinal tag attrs build kids =
  let n = make_leaf ~next ~ordinal Node.Element tag "" in
  let attr_nodes =
    List.mapi
      (fun i (name, value) ->
        let a = make_leaf ~next ~ordinal:(i + 1) Node.Attribute name value in
        a.Node.parent <- Some n;
        a)
      attrs
  in
  let k0 = List.length attrs in
  let kid_nodes =
    List.mapi
      (fun i kid ->
        let c = build ~ordinal:(k0 + i + 1) kid in
        c.Node.parent <- Some n;
        c)
      kids
  in
  n.Node.attributes <- attr_nodes;
  n.Node.children <- kid_nodes;
  n

let of_frag ?(uri = "doc.xml") (frag : Frag.t) : t =
  let next = ref 1 in
  let rec build ~ordinal = function
    | Frag.T s -> make_leaf ~next ~ordinal Node.Text "" s
    | Frag.E (tag, attrs, kids) -> make_element ~next ~ordinal tag attrs build kids
  in
  let root =
    match frag with
    | Frag.E _ -> build ~ordinal:1 frag
    | Frag.T _ -> invalid_arg "Doc.of_frag: document root must be an element"
  in
  let doc_node = make_node ~rank:0 ~ordinal:0 Node.Document "" "" in
  doc_node.Node.children <- [ root ];
  root.Node.parent <- Some doc_node;
  { uri; doc_node; root; node_count = !next }

let root t = t.root
let uri t = t.uri

(** All element and attribute nodes of the document, document order.
    Text nodes are excluded: extents in the paper range over elements,
    attributes and their values, and a value is identified with the node
    carrying it. *)
let nodes t =
  List.filter
    (fun n -> Node.is_element n || Node.is_attribute n)
    (Node.all_nodes t.root)

(** All nodes including text nodes. *)
let all_nodes t = Node.all_nodes t.root

let node_count t = t.node_count

(** First node (document order) whose tag path equals [path], if any.
    Used to turn an L* membership string into a concrete node to show the
    teacher. *)
let node_with_path t path =
  let rec search n =
    (* prune: the path must extend the current node's path *)
    let np = Node.tag_path n in
    let rec is_prefix p q =
      match p, q with
      | [], _ -> true
      | _, [] -> false
      | x :: p', y :: q' -> String.equal x y && is_prefix p' q'
    in
    if not (is_prefix np path) then None
    else if np = path then Some n
    else
      let candidates = n.Node.attributes @ n.Node.children in
      List.find_map search candidates
  in
  search t.root

(** All nodes with the given tag path. *)
let nodes_with_path t path =
  List.filter (fun n -> Node.tag_path n = path) (all_nodes t)
