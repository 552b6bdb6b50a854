(** Documents: identity-bearing XML trees.

    {!of_frag} materializes a {!Frag.t} into a {!Node.t} tree, assigning
    fresh node ids and preorder ranks (the document node is rank 0).  Ids
    are unique across all documents built in a process, so nodes from
    several documents can live in one extent or data graph (the XMP
    scenarios join three documents). *)

type t = {
  uri : string;
  doc_node : Node.t;
      (** kind [Document]; its single child is the root element *)
  root : Node.t;  (** the root element *)
  node_count : int;  (** every node, the document node included *)
}

val make_node :
  rank:int -> ordinal:int -> Node.kind -> string -> string -> Node.t
(** [make_node ~rank ~ordinal kind name value] is an unlinked node with
    the next process-wide id — for callers that place nodes themselves
    (the streaming builder).  Ids come from an [Atomic.t], so allocation
    is safe from any domain and concurrently built documents never share
    ids. *)

val make_leaf :
  next:int ref -> ordinal:int -> Node.kind -> string -> string -> Node.t
(** {!make_node} ranked [!next], which it then increments. *)

val make_element :
  next:int ref ->
  ordinal:int ->
  string ->
  (string * string) list ->
  (ordinal:int -> 'a -> Node.t) ->
  'a list ->
  Node.t
(** [make_element ~next ~ordinal tag attrs build kids] builds an element
    top-down in preorder — the numbering shared by {!of_frag} and the
    evaluator's element constructor: the element takes rank [!next],
    its attributes the following ranks (ordinals [1..]), and then
    [build ~ordinal kid] builds each kid's subtree from the same
    counter, ordinals continuing after the attributes.  Parent links
    are tied. *)

val of_frag : ?uri:string -> Frag.t -> t
(** Build a document.  Raises [Invalid_argument] if the fragment's root
    is a text node. *)

val root : t -> Node.t
val uri : t -> string

val nodes : t -> Node.t list
(** All element and attribute nodes, document order — the extent
    universe.  (Text is reachable through its parent element.) *)

val all_nodes : t -> Node.t list
(** Including text nodes. *)

val node_count : t -> int
(** Every node, the document node included. *)

val node_with_path : t -> string list -> Node.t option
(** First node (document order) whose tag path equals the argument —
    used to turn an L* membership string into a concrete node to show
    the teacher. *)

val nodes_with_path : t -> string list -> Node.t list
