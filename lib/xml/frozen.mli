(** Frozen documents: immutable structure-of-arrays snapshots.

    A frozen document lays the whole node tree out in preorder — which,
    with attributes numbered before element/text children, is exactly
    document order — as parallel [int] arrays: per-document interned
    symbol ids, parent links, subtree extents and sibling links.  The
    arrays are built once per document and never mutated afterwards, so
    they can be shared read-only across pool domains, and a DFA selection
    becomes a single linear scan with O(1) subtree skips instead of a
    pointer chase with string comparisons.

    Each snapshot also carries its pointer-tree side — the {!Doc.t} and
    the position -> {!Node.t} array — so a snapshot is complete when it
    is made and is shared across domains as it is.  The way back is the
    node's own preorder rank: [nodes.(n.rank) == n] for every node of
    the snapshot.

    Two producers share this layout: {!freeze} (walk an existing
    {!Doc.t}) and [Frozen_builder] (append rows directly from parser
    events or a fragment, no intermediate tree walk).  Both must yield
    structurally equal snapshots for the same document — see
    {!structural_equal}. *)

type t = private {
  uid : int;  (** process-unique snapshot identity, for per-context caches *)
  symbols : string array;  (** local symbol id -> {!Node.symbol} string *)
  sym : int array;  (** position -> local symbol id *)
  parent : int array;  (** position -> parent position; -1 for the doc node *)
  subtree_end : int array;
      (** position -> exclusive end of the subtree rooted there: the
          subtree of [p] occupies positions [p .. subtree_end.(p) - 1] *)
  first_child : int array;
      (** position of the first attribute/child, or -1 for leaves *)
  next_sibling : int array;  (** next sibling position, or -1 at the last *)
  doc : Doc.t;
  nodes : Node.t array;
      (** position -> node, document order; 0 = doc node; position = rank *)
}

val freeze : Doc.t -> t
(** Snapshot a document.  O(node count); the result shares the document's
    {!Node.t} values (positions map back to them via {!nodes}).  Raises
    [Invalid_argument] if a node's rank is not its preorder position. *)

val of_arrays :
  doc:Doc.t ->
  nodes:Node.t array ->
  symbols:string array ->
  sym:int array ->
  parent:int array ->
  subtree_end:int array ->
  t
(** Assemble a snapshot from preorder arrays: derives the sibling links
    and draws a fresh [uid].  For the streaming builder; the caller owns
    the layout contract ([nodes] in preorder with attributes before
    element/text children, each node's rank its position, position 0
    the document node, [symbols] interned in first-appearance order,
    [subtree_end] exclusive). *)

val size : t -> int
(** Number of positions (= nodes, document node included). *)

val doc : t -> Doc.t
(** The snapshot's document. *)

val nodes : t -> Node.t array
(** Position -> node, document order. *)

val node : t -> int -> Node.t
(** [node t p] = [(nodes t).(p)]. *)

val pos_of_node : t -> Node.t -> int option
(** The position of a node of this document — its rank — and [None] for
    foreign nodes. *)

val structural_equal : t -> t -> bool
(** Equality of everything the evaluator can observe: the int arrays,
    the symbol table, and per-position node kind/name/value/rank/ordinal.
    Node ids are ignored — separate ingestions of one document draw different
    ids. *)
