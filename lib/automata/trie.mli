(** Shared prefix trie over integer-symbol words.

    A batch of membership-query words is overwhelmingly prefix-redundant:
    L* asks about [s @ e] for every access string [s] (a prefix-closed
    set) crossed with every suffix [e], so the distinct symbols of a
    batch are a small fraction of its total symbol count.  Inserting the
    batch into one trie lets any per-symbol state machine (a path DFA, a
    schema stepper) answer all words in a single forward pass over the
    trie nodes instead of one walk per word.  L*'s observation table
    keeps every word it holds as a node of a trie its caller owns: the
    P-Learner keeps one per learning task, hangs its per-word state on
    the node ids, and spells a word ({!symbols}) only when a teacher or
    an observer needs it.

    Nodes are numbered in creation order, so a parent's id is always
    smaller than its children's — iterating ids ascending visits every
    node after its parent, which is exactly what a forward state
    propagation needs. *)

type t

val create : unit -> t

val root : int
(** The node for the empty word (id 0). *)

val size : t -> int
(** Number of nodes, including the root. *)

val add_word : t -> int list -> int
(** Insert a word, sharing existing prefixes; returns its terminal node. *)

val child : t -> int -> int -> int
(** [child t node a]: the node of [node]'s word followed by [a], created
    if absent.  Finding it scans [node]'s children, so a caller that
    steps from a node with a wide fanout keeps its own index, built once
    by {!children}. *)

val children : t -> int -> int -> int array
(** [children t node k]: [node]'s children on the symbols [0 .. k-1], in
    symbol order, the absent ones created in ascending symbol order —
    the nodes and ids [k] calls of {!child} would give, for one scan of
    [node]'s children instead of [k].  L* indexes every access word's
    alphabet-wide fanout this way. *)

val parent : t -> int -> int
(** Parent node id ([-1] for the root). *)

val symbol : t -> int -> int
(** Symbol on the edge from [parent t i] to [i] ([-1] for the root). *)

val symbols : t -> int -> int list
(** The word spelled from the root to node [i]. *)
