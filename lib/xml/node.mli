(** XML nodes with identity.

    The XQuery data model restricted to the kinds the paper needs:
    documents, elements, attributes and text.  Each node has a globally
    unique [id] — the paper's node identity, "[v1 is v2]", is [id]
    equality — and a preorder [rank] giving document order within its
    tree.

    Nodes are built once (by the {!Doc} builder, or by the evaluator's
    element constructor) and never mutated afterwards; the mutable
    fields exist only so construction can tie the parent knots. *)

type kind =
  | Document
  | Element
  | Attribute
  | Text

type t = {
  id : int;
  kind : kind;
  name : string;
      (** tag for elements, attribute name for attributes, [""] otherwise *)
  value : string;  (** content for text/attribute nodes, [""] otherwise *)
  mutable parent : t option;
  mutable children : t list;  (** element and text children, document order *)
  mutable attributes : t list;
  rank : int;
      (** preorder position in the tree, attributes before children; a
          document node is 0, so a stored node's rank is its {!Doc}
          position *)
  ordinal : int;
      (** 1-based position among the parent's attributes and children
          (attributes first) — the last component of the Dewey code; 0
          for a document node *)
}

val compare_id : t -> t -> int
val equal : t -> t -> bool
(** Node identity ([id] equality). *)

val hash : t -> int

val dewey : t -> Dewey.t
(** The node's Dewey code, rebuilt from parent links and ordinals in
    O(depth): [[]] for a document node, [[1]] for a root element. *)

val compare_order : t -> t -> int
(** Document order: ranks within one tree; across trees, Dewey order
    with ties broken by id. *)

val is_ancestor : t -> t -> bool
(** [is_ancestor a d]: is [a] a strict ancestor of [d]? *)

val is_element : t -> bool
val is_attribute : t -> bool
val is_text : t -> bool

val parent : t -> t option
val children : t -> t list
val attributes : t -> t list

val symbol : t -> string
(** The tag-path symbol this node contributes: the tag for an element,
    ["@name"] for an attribute, ["#text"] for text.  These symbols form
    the alphabet of the path-learning automata (Section 5). *)

val tag_path : t -> string list
(** [path(n)] of the paper: symbols from the document's root element down
    to [n], inclusive. *)

val string_value : t -> string
(** Concatenated text content of the subtree. *)

val direct_value : t -> string option
(** The direct value of a value-bearing node (Figure 10): an attribute's
    value, an element's own text when it has text children and no element
    children, a text node's content.  [None] otherwise. *)

val element_children : t -> t list

val attribute : t -> string -> t option
(** Attribute node by name. *)

val all_nodes : t -> t list
(** Descendant-or-self elements with their attribute nodes — the node
    universe of extents and the data graph. *)

val root : t -> t
(** Topmost ancestor (the document node for attached nodes). *)

val pp : Format.formatter -> t -> unit
