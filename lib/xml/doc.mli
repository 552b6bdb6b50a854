(** Documents: identity-bearing XML trees, laid out in preorder.

    A document is its nodes in preorder — attributes before element and
    text children, which is document order — as a {!Node.t} array plus
    parallel [int] arrays: per-document interned symbol ids, parent
    positions and subtree extents.  A node's position is its rank
    (position 0 is the document node, 1 the root element), so
    [nodes.(n.rank) == n] for every node of the document.

    The builder ({!create} ... {!finish}) is the only way to make one:
    {!of_frag} walks a fragment into it and [Xml_parser.parse_doc] drives
    it from the parser's events, each node allocated once, in its final
    slot.  Node ids come from a process-wide atomic counter, so nodes of
    several documents — built on any domains — can live in one extent or
    data graph (the XMP scenarios join three documents).  A finished
    document is never mutated, so it is shared read-only across domains
    as it is, and a DFA selection is a linear scan of its arrays with
    O(1) subtree skips. *)

type t = private {
  uid : int;  (** process-unique document identity, for per-context caches *)
  uri : string;
  nodes : Node.t array;
      (** position -> node, document order; 0 = document node; position
          = rank *)
  symbols : string array;  (** local symbol id -> {!Node.symbol} string *)
  sym : int array;  (** position -> local symbol id *)
  parent : int array;  (** position -> parent position; -1 for the doc node *)
  subtree_end : int array;
      (** position -> exclusive end of the subtree rooted there: the
          subtree of [p] occupies positions [p .. subtree_end.(p) - 1] *)
}

(** {2 Building} *)

type builder
(** A document in progress.  Not domain-safe: build on one domain,
    share the finished document. *)

val create : ?uri:string -> ?hint:int -> unit -> builder
(** A fresh builder holding the document node ([uri] defaults to
    ["doc.xml"]).  [hint] pre-sizes the arrays (default 1024 rows); a
    hint equal to the final node count spares {!finish} its trim. *)

val open_element : builder -> string -> (string * string) list -> unit
(** Append an element and its attributes (declaration order), and leave
    the element open.  Raises [Invalid_argument] on a second root
    element. *)

val text : builder -> string -> unit
(** Append a text node under the innermost open element, as given:
    dropping whitespace-only text is the parser's job.  Raises
    [Invalid_argument] outside the root element. *)

val close_element : builder -> unit
(** Close the innermost open element.  Raises [Invalid_argument] when
    none is open. *)

val finish : builder -> t
(** Seal the document.  One-shot; raises [Invalid_argument] with
    elements still open, without a root element, or when called
    twice. *)

val of_frag : ?uri:string -> Frag.t -> t
(** Build a document from a fragment.  Raises [Invalid_argument] if the
    fragment's root is a text node. *)

(** {2 Constructed trees}

    The evaluator's element constructor builds pointer-only trees that
    are never stored.  These number them as the builder numbers a
    document below its document node. *)

val make_leaf :
  next:int ref -> ordinal:int -> Node.kind -> string -> string -> Node.t
(** An unlinked node with the next process-wide id, ranked [!next],
    which it then increments. *)

val make_element :
  next:int ref ->
  ordinal:int ->
  string ->
  (string * string) list ->
  (ordinal:int -> 'a -> Node.t) ->
  'a list ->
  Node.t
(** [make_element ~next ~ordinal tag attrs build kids] builds an element
    top-down in preorder: the element takes rank [!next], its
    attributes the following ranks (ordinals [1..]), and then
    [build ~ordinal kid] builds each kid's subtree from the same
    counter, ordinals continuing after the attributes.  Parent links
    are tied. *)

(** {2 Reading} *)

val uri : t -> string

val doc_node : t -> Node.t
(** Position 0, kind [Document]; its single child is the root element. *)

val root : t -> Node.t
(** The root element (position 1). *)

val node_count : t -> int
(** Every node, the document node included: the length of the arrays. *)

val pos_of_node : t -> Node.t -> int option
(** The position of a node of this document — its rank — and [None] for
    foreign nodes. *)

val nodes : t -> Node.t list
(** All element and attribute nodes, document order — the extent
    universe.  (Text is reachable through its parent element.) *)

val all_nodes : t -> Node.t list
(** Every node but the document node, document order. *)

val node_with_path : t -> string list -> Node.t option
(** First node (document order) whose tag path equals the argument —
    used to turn an L* membership string into a concrete node to show
    the teacher. *)

val nodes_with_path : t -> string list -> Node.t list
