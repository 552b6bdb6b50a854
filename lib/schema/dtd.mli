(** DTD model: element declarations with content models and attribute
    lists — both rule R1's source-schema input and the template
    generator's target-schema input. *)

type att_type =
  | Cdata
  | Id
  | Idref
  | Idrefs
  | Enum of string list

type att_default =
  | Required
  | Implied
  | Default of string
  | Fixed of string

type attribute = {
  att_name : string;
  att_type : att_type;
  att_default : att_default;
}

type element = {
  el_name : string;
  content : Content_model.t;
  atts : attribute list;
}

type t

val create : root:string -> t

val add_element : t -> ?atts:attribute list -> string -> Content_model.t -> t
(** Functional on the declaration order; redeclaration replaces. *)

val of_list :
  root:string -> (string * Content_model.t * attribute list) list -> t

val find : t -> string -> element option
val root : t -> string

val element_names : t -> string list
(** Declaration order. *)

val attribute_symbols : t -> string list
(** Every declared attribute, as ["@name"] path symbols, deduplicated. *)

val path_symbols : t -> string list
(** The full path alphabet: element names, attribute symbols, ["#text"].
    "k corresponds to the number of XML element types" (Section 8). *)

val attributes_of : t -> string -> attribute list
val children_of : t -> string -> string list

val undeclared_names : t -> string list
(** Element names a path can reach that no declaration defines: an
    undeclared root and names content models reference without
    declaring them.  Sorted. *)

val one_to_one : t -> parent:string -> child:string -> bool
(** Is [child] guaranteed exactly once in each [parent]?  Drives the "1"
    edge labels of templates (Section 4.1). *)

val to_string : t -> string
(** External-subset DTD text, parseable by {!Dtd_parser}. *)
