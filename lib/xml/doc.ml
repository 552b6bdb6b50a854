(** Documents: identity-bearing XML trees, laid out in preorder (see the
    interface for the layout).

    The builder appends one row per node — the node, its interned
    symbol, its parent position — and patches the subtree end when the
    subtree closes, so a document is made in one pass whatever feeds it.
    Rows are appended in preorder with attributes before element/text
    children, the order {!make_element} ranks constructed trees in:
    position IS rank, and document order. *)

type t = {
  uid : int;
  uri : string;
  nodes : Node.t array;
  symbols : string array;
  sym : int array;
  parent : int array;
  subtree_end : int array;
}

let next_node_id = Atomic.make 1
let next_uid = Atomic.make 0

let make_node ~rank ~ordinal kind name value =
  {
    Node.id = Atomic.fetch_and_add next_node_id 1;
    kind;
    name;
    value;
    parent = None;
    children = [];
    attributes = [];
    rank;
    ordinal;
  }

(* ---------- the builder ---------------------------------------------------- *)

type frame = {
  f_node : Node.t;  (** the open element *)
  f_pos : int;  (** its position, = its rank *)
  mutable f_k : int;  (** ordinal of its last attribute or child so far *)
  mutable f_rev_children : Node.t list;
}

type builder = {
  b_uri : string;
  doc : Node.t;
  mutable stack : frame list;
  (* growable parallel arrays, doubled on demand *)
  mutable b_nodes : Node.t array;
  mutable b_sym : int array;
  mutable b_parent : int array;
  mutable b_end : int array;
  mutable len : int;
  (* per-document symbol interning, first-appearance (= preorder) order:
     the global alphabet belongs to an evaluation context, which maps
     these dense ids onto it (see Eval.frozen_sym_map) *)
  sym_ids : (string, int) Hashtbl.t;
  mutable rev_symbols : string list;
  mutable finished : bool;
}

let intern b s =
  match Hashtbl.find_opt b.sym_ids s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length b.sym_ids in
    Hashtbl.replace b.sym_ids s i;
    b.rev_symbols <- s :: b.rev_symbols;
    i

let grow b =
  let cap = Array.length b.b_sym in
  let copy fill a =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  b.b_nodes <- copy b.doc b.b_nodes;
  b.b_sym <- copy 0 b.b_sym;
  b.b_parent <- copy (-1) b.b_parent;
  b.b_end <- copy 0 b.b_end

(* append the row of a fresh node ranked by its position, under the
   node at [parent_pos]; a leaf's subtree ends right after it, an
   element's is patched on close *)
let append b ~ordinal kind name value parent_pos (parent : Node.t) : Node.t =
  if b.len = Array.length b.b_sym then grow b;
  let p = b.len in
  let node = make_node ~rank:p ~ordinal kind name value in
  node.Node.parent <- Some parent;
  b.len <- p + 1;
  b.b_nodes.(p) <- node;
  b.b_sym.(p) <- intern b (Node.symbol node);
  b.b_parent.(p) <- parent_pos;
  b.b_end.(p) <- p + 1;
  node

let create ?(uri = "doc.xml") ?(hint = 1024) () : builder =
  let doc = make_node ~rank:0 ~ordinal:0 Node.Document "" "" in
  let cap = max 2 hint in
  let b =
    {
      b_uri = uri;
      doc;
      stack = [];
      b_nodes = Array.make cap doc;
      b_sym = Array.make cap 0;
      b_parent = Array.make cap (-1);
      b_end = Array.make cap 0;
      len = 1;
      sym_ids = Hashtbl.create 64;
      rev_symbols = [];
      finished = false;
    }
  in
  (* row 0 is the document node: its parent (-1) is already in place *)
  b.b_sym.(0) <- intern b (Node.symbol doc);
  b

let check_open b what =
  if b.finished then invalid_arg (Printf.sprintf "Doc.%s: builder already finished" what)

let open_element b tag attrs =
  check_open b "open_element";
  let elem =
    match b.stack with
    | [] ->
      if b.len > 1 then invalid_arg "Doc.open_element: second root element";
      let e = append b ~ordinal:1 Node.Element tag "" 0 b.doc in
      b.doc.Node.children <- [ e ];
      e
    | fr :: _ ->
      fr.f_k <- fr.f_k + 1;
      let e = append b ~ordinal:fr.f_k Node.Element tag "" fr.f_pos fr.f_node in
      fr.f_rev_children <- e :: fr.f_rev_children;
      e
  in
  let pos = elem.Node.rank in
  (* attributes are numbered before children, from the same counter *)
  elem.Node.attributes <-
    List.mapi
      (fun i (name, value) ->
        append b ~ordinal:(i + 1) Node.Attribute name value pos elem)
      attrs;
  b.stack <-
    { f_node = elem; f_pos = pos; f_k = List.length attrs; f_rev_children = [] }
    :: b.stack

let text b s =
  check_open b "text";
  match b.stack with
  | [] -> invalid_arg "Doc.text: text outside the root element"
  | fr :: _ ->
    fr.f_k <- fr.f_k + 1;
    let n = append b ~ordinal:fr.f_k Node.Text "" s fr.f_pos fr.f_node in
    fr.f_rev_children <- n :: fr.f_rev_children

let close_element b =
  check_open b "close_element";
  match b.stack with
  | [] -> invalid_arg "Doc.close_element: no open element"
  | fr :: rest ->
    fr.f_node.Node.children <- List.rev fr.f_rev_children;
    b.b_end.(fr.f_pos) <- b.len;
    b.stack <- rest

let finish b : t =
  check_open b "finish";
  if b.stack <> [] then invalid_arg "Doc.finish: unclosed elements";
  if b.len = 1 then invalid_arg "Doc.finish: document has no root element";
  b.finished <- true;
  b.b_end.(0) <- b.len;
  (* an exact hint leaves nothing to trim *)
  let trim a = if Array.length a = b.len then a else Array.sub a 0 b.len in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    uri = b.b_uri;
    nodes = trim b.b_nodes;
    symbols = Array.of_list (List.rev b.rev_symbols);
    sym = trim b.b_sym;
    parent = trim b.b_parent;
    subtree_end = trim b.b_end;
  }

let rec add_frag b = function
  | Frag.T s -> text b s
  | Frag.E (tag, attrs, kids) ->
    open_element b tag attrs;
    List.iter (add_frag b) kids;
    close_element b

(* exact row count of a fragment (elements + attributes + texts): an
   allocation-free pre-walk that sizes the arrays exactly, so neither
   doubling copies nor the final trim are paid *)
let rec count_rows = function
  | Frag.T _ -> 1
  | Frag.E (_, attrs, kids) ->
    List.fold_left (fun acc k -> acc + count_rows k) (1 + List.length attrs) kids

let of_frag ?uri (frag : Frag.t) : t =
  (match frag with
  | Frag.E _ -> ()
  | Frag.T _ -> invalid_arg "Doc.of_frag: document root must be an element");
  let b = create ?uri ~hint:(1 + count_rows frag) () in
  add_frag b frag;
  finish b

(* ---------- constructed trees ---------------------------------------------- *)

let make_leaf ~next ~ordinal kind name value =
  let rank = !next in
  incr next;
  make_node ~rank ~ordinal kind name value

(* The builder's numbering, top down: the element takes the next rank,
   then its attributes, then each kid's whole subtree; ordinals count
   attributes and kids with one counter. *)
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

(* ---------- reading ---------------------------------------------------------- *)

let uri t = t.uri
let doc_node t = t.nodes.(0)
let root t = t.nodes.(1)
let node_count t = Array.length t.nodes

let pos_of_node t (n : Node.t) : int option =
  let p = n.Node.rank in
  if p >= 0 && p < Array.length t.nodes && t.nodes.(p) == n then Some p else None

let all_nodes t = List.tl (Array.to_list t.nodes)

(** All element and attribute nodes of the document, document order.
    Text nodes are excluded: extents in the paper range over elements,
    attributes and their values, and a value is identified with the node
    carrying it. *)
let nodes t = List.filter (fun n -> Node.is_element n || Node.is_attribute n) (all_nodes t)

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
  search (root t)

(** All nodes with the given tag path. *)
let nodes_with_path t path =
  List.filter (fun n -> Node.tag_path n = path) (all_nodes t)
