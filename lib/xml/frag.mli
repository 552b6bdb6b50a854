(** Lightweight immutable XML fragments.

    A [Frag.t] is a plain description of an XML tree — convenient for
    literals in tests, the data generators, and as the parser's output.
    {!Doc.of_frag} turns a fragment into a document with node identities
    and preorder ranks. *)

type t =
  | E of string * (string * string) list * t list
      (** [E (tag, attributes, children)] *)
  | T of string  (** text node *)

val e : ?attrs:(string * string) list -> string -> t list -> t
(** Element constructor. *)

val text : string -> t
(** Text constructor. *)

val elem : ?attrs:(string * string) list -> string -> string -> t
(** [elem tag s] is [<tag>s</tag>] — the common leaf-element case. *)

val equal : t -> t -> bool
(** Structural equality. *)

val string_value : t -> string
(** Concatenated text content, as XPath's string value. *)

val size : t -> int
(** Number of element nodes in the fragment. *)
