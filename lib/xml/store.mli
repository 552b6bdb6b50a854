(** Document store.

    Resolves the query engine's [document("uri")] function and gives the
    learner a single node universe spanning several documents (the XMP
    scenarios join [bib.xml] with [reviews.xml] and [prices.xml]).

    A store is immutable and complete when {!of_docs} returns: the
    v-equality value index is built then, once, under the
    [store.index_build] span, and the documents arrive finished.  Every
    reader is a pure lookup, so a store can be shared read-only across
    domains straight from its constructor. *)

type t

val of_docs : Doc.t list -> t
(** A store over the documents, registration order; the first becomes
    the default. *)

val default : t -> Doc.t
(** The target of paths starting at the plain document root.
    Raises [Invalid_argument] on an empty store. *)

val find : t -> string -> Doc.t option
(** Lookup by URI; tolerates path prefixes around the registered name. *)

val find_exn : t -> string -> Doc.t

val docs : t -> Doc.t list
(** Registration order. *)

val prepare : t -> unit
(** A no-op: a store is complete at construction.  Kept only for the
    callers in the benchmark that still invoke it. *)

val value_index : t -> (string, Node.t list) Hashtbl.t
(** The raw value index (shared with {!Xl_core.Data_graph}).  Read-only. *)

val locate : t -> Node.t -> (Doc.t * int) option
(** Document and position of a store-resident node; [None] for foreign
    nodes (constructed elements), which must take the pointer walks. *)
