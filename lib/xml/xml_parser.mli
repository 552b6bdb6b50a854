(** A small XML 1.0 parser with a streaming (SAX-style) event core.

    Supports elements, attributes, character data, CDATA, comments,
    processing instructions, an optional XML declaration and DOCTYPE
    (skipped — DTDs are parsed by [Xl_schema.Dtd_parser]), and predefined
    plus numeric character entities.  Whitespace-only text between
    elements is dropped.

    The event stream ({!iter_events}) is the single source of truth:
    {!parse_doc} feeds it to the {!Doc} builder in the same pass. *)

type location = { offset : int; line : int; col : int }
(** Error position: byte [offset] into the source, plus the 1-based
    [line] and byte [col]umn it falls on (derived lazily, only when an
    error is raised — the lexer itself tracks no line state). *)

exception Parse_error of string * location
(** message, source location *)

val location_of : string -> int -> location
(** [location_of src offset] is the line/column of [offset] in [src]. *)

(** One parse event.  Every [Start_element] is eventually matched by an
    [End_element]; [Text] only occurs between them. *)
type event =
  | Start_element of string * (string * string) list
      (** tag, attributes in declaration order.  A self-closing element
          emits [Start_element] immediately followed by [End_element]. *)
  | Text of string
      (** one maximal run of character data (entities decoded) or one
          CDATA section; whitespace-only runs are dropped *)
  | End_element  (** closes the innermost open element *)

val iter_events : string -> (event -> unit) -> unit
(** Stream a complete document (prolog + exactly one root element +
    trailing misc) through the callback without building any tree.
    Raises {!Parse_error} on malformed input, including trailing
    content. *)

val parse_doc : ?uri:string -> string -> Doc.t
(** Parse a complete document (prolog + exactly one root element)
    straight into a {!Doc.t}, under the [xml.parse] span.  Raises
    {!Parse_error} on malformed input, including trailing content. *)
