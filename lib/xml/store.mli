(** Document store.

    Resolves the query engine's [document("uri")] function and gives the
    learner a single node universe spanning several documents (the XMP
    scenarios join [bib.xml] with [reviews.xml] and [prices.xml]).

    Carries persistent indexes — flattened node universe, id->node, the
    v-equality value index and the frozen array snapshots — built lazily
    once per registration epoch and dropped whenever a document is
    added. *)

type t

val create : unit -> t

val add : ?default:bool -> t -> Doc.t -> unit
(** Register a document under its URI.  The first document added becomes
    the default unless overridden. *)

val add_frozen : ?default:bool -> t -> Frozen.t -> unit
(** Register a snapshot's document together with the snapshot itself, so
    the next index build reuses it instead of re-freezing the tree — the
    entry point for streamed ({!Frozen_builder}) and loaded
    ({!Snapshot}) documents.  Invalidation is the same as {!add}: the
    generation is bumped and the current indexes are dropped. *)

val of_docs : Doc.t list -> t

val of_frozen : Frozen.t list -> t
(** A store over pre-built snapshots; the first becomes the default. *)

val default : t -> Doc.t
(** The target of paths starting at the plain document root.
    Raises [Invalid_argument] on an empty store. *)

val find : t -> string -> Doc.t option
(** Lookup by URI; tolerates path prefixes around the registered name. *)

val find_exn : t -> string -> Doc.t

val docs : t -> Doc.t list
(** Registration order. *)

val nodes : t -> Node.t list
(** Every element/attribute node of every document, document order within
    each document, documents in registration order.  Cached. *)

val find_node_by_id : t -> int -> Node.t option
(** Any node (text and document nodes included) by id, via the id index. *)

val generation : t -> int
(** Bumped on every [add]; lets callers invalidate store-derived caches. *)

val prepare : t -> unit
(** Build the lazy indexes now.  Required before sharing the store with
    several domains (the parallel Figure-16 runner): index construction
    fills caches by plain mutation, so it must happen while the store is
    still confined to one domain.  Idempotent; a later [add] re-imposes
    the obligation. *)

val index_built : t -> bool
(** Are the indexes of the current registration epoch materialized?
    [true] after {!prepare} (or any index demand) until the next
    {!add}. *)

val set_strict : t -> bool -> unit
(** In strict mode, demanding an index that is not built raises
    [Failure] instead of silently building it on the spot — the lazy
    fallback is a data race once the store is shared between domains,
    and hides a forgotten re-{!prepare} after an {!add}.  {!prepare}
    itself still builds.  Off by default; switch it on right after
    preparing a store that a pool fan-out will share. *)

val with_value : t -> string -> Node.t list
(** Value-bearing nodes with the given direct value — the v-equality
    neighbours of the data graph. *)

val value_index : t -> (string, Node.t list) Hashtbl.t
(** The raw value index (shared with {!Xl_core.Data_graph}).  Read-only;
    valid until the next [add]. *)

val frozen_docs : t -> Frozen.t list
(** The frozen array snapshot of every document (built with the other
    indexes, so {!prepare} covers it), registration order. *)

val frozen_of_node : t -> Node.t -> (Frozen.t * int) option
(** Snapshot and position of a store-resident node; [None] for foreign
    nodes (constructed elements), which must take the pointer walks. *)
