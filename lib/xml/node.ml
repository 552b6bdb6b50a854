(** XML nodes with identity.

    Nodes follow the XQuery data model restricted to the kinds the paper
    needs: documents, elements, attributes and text.  Each node has a
    globally unique [id] (node identity — "[v1 is v2]" in the paper is id
    equality), a preorder [rank] giving document order within its tree
    and an [ordinal] among its siblings, from which the Dewey code is
    rebuilt on demand.

    The structure is built once and never mutated afterwards; the mutable
    fields exist only so construction can tie parent knots. *)

type kind =
  | Document
  | Element
  | Attribute
  | Text

type t = {
  id : int;
  kind : kind;
  name : string;  (** tag for elements, attribute name for attributes, [""] otherwise *)
  value : string;  (** text content for text/attribute nodes, [""] otherwise *)
  mutable parent : t option;
  mutable children : t list;  (** element and text children, document order *)
  mutable attributes : t list;
  rank : int;  (** preorder position, attributes before children *)
  ordinal : int;  (** 1-based among the parent's attributes and children *)
}

let compare_id a b = Stdlib.compare a.id b.id
let equal a b = a.id = b.id
let hash a = a.id

let rec root n = match n.parent with None -> n | Some p -> root p

(** The Dewey code from parent links and ordinals: a document node
    contributes nothing, so a root element (attached or constructed) is
    [[1]]. *)
let dewey n =
  let rec up acc n =
    match n.kind, n.parent with
    | Document, _ -> acc
    | _, None -> n.ordinal :: acc
    | _, Some p -> up (n.ordinal :: acc) p
  in
  up [] n

(** Document order.  Within one tree preorder rank is Dewey order; across
    trees, Dewey codes interleave the documents and ids break ties. *)
let compare_order a b =
  if a == b then 0
  else if root a == root b then Int.compare a.rank b.rank
  else
    let c = Dewey.compare (dewey a) (dewey b) in
    if c <> 0 then c else Int.compare a.id b.id

let is_ancestor a d =
  let rec up n = match n.parent with None -> false | Some p -> p == a || up p in
  up d

let is_element n = n.kind = Element
let is_attribute n = n.kind = Attribute
let is_text n = n.kind = Text

let parent n = n.parent
let children n = n.children
let attributes n = n.attributes

(** [symbol n] is the tag-path symbol this node contributes: the tag for an
    element, ["@name"] for an attribute, ["#text"] for a text node.  These
    symbols form the alphabet of the path-learning automata. *)
let symbol n =
  match n.kind with
  | Element -> n.name
  | Attribute -> "@" ^ n.name
  | Text -> "#text"
  | Document -> "#doc"

(** [tag_path n] is the sequence of symbols from the document's root
    element down to [n] inclusive — the string [path(n)] of Section 5. *)
let tag_path n =
  let rec up acc n =
    match n.kind, n.parent with
    | Document, _ -> acc
    | _, Some p -> up (symbol n :: acc) p
    | _, None -> symbol n :: acc
  in
  up [] n

(** Concatenated text content of the subtree, as XPath's string value. *)
let rec string_value n =
  match n.kind with
  | Text | Attribute -> n.value
  | Element | Document ->
    String.concat "" (List.map string_value n.children)

(** The direct value of a value-bearing node (Figure 10's notion): an
    attribute's value, an element's concatenated text when it has text
    children and no element children, a text node's content.  [None] for
    documents and mixed/element-only elements. *)
let direct_value n =
  match n.kind with
  | Attribute -> Some n.value
  | Element ->
    let texts = List.filter is_text n.children in
    let elems = List.filter is_element n.children in
    if elems = [] && texts <> [] then
      Some (String.concat "" (List.map (fun t -> t.value) texts))
    else None
  | Text -> Some n.value
  | Document -> None

let element_children n = List.filter is_element n.children

let attribute n name =
  List.find_opt (fun a -> String.equal a.name name) n.attributes

(** Descendant-or-self elements, attributes included as leaves —
    the node universe used for extents and the data graph. *)
let rec all_nodes n =
  (n :: n.attributes) @ List.concat_map all_nodes n.children

let pp fmt n = Format.fprintf fmt "%s(%s)" (symbol n) (Dewey.to_string (dewey n))
