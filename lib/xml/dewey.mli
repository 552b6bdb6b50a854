(** Dewey codes: positional identifiers for XML nodes.

    The root element of a document has code [[1]]; its k-th child
    (attributes first, then element/text children in document order) has
    code [[1; k]].  Dewey order coincides with document order, and
    ancestor tests are prefix tests — the properties the paper relies on
    for both node identifiers and XQ-Tree labels (Section 3).  Nodes do
    not store their codes: {!Node.dewey} rebuilds one on demand for the
    process-stable references of snapshots, digests and the wire. *)

type t = int list

val compare : t -> t -> int
(** Document order. *)

val to_string : t -> string
(** ["1.2.3"] notation. *)
