(** Lightweight immutable XML fragments.

    A [Frag.t] is a plain description of an XML tree, convenient for
    literals in tests, the data generators, and as the output of the
    parser.  [Doc.of_frag] turns a fragment into a document with node
    identities and preorder ranks. *)

type t =
  | E of string * (string * string) list * t list
      (** [E (tag, attributes, children)] *)
  | T of string  (** text node *)

let e ?(attrs = []) tag children = E (tag, attrs, children)
let text s = T s

(** [elem tag s] is an element with a single text child — the common case
    for leaf elements such as [<name>H. Potter</name>]. *)
let elem ?(attrs = []) tag s = E (tag, attrs, [ T s ])

let rec equal a b =
  match a, b with
  | T s, T s' -> String.equal s s'
  | E (t, al, cl), E (t', al', cl') ->
    String.equal t t' && al = al'
    && List.length cl = List.length cl'
    && List.for_all2 equal cl cl'
  | T _, E _ | E _, T _ -> false

let rec string_value = function
  | T s -> s
  | E (_, _, children) -> String.concat "" (List.map string_value children)

(** Number of element nodes in the fragment (used by generators/tests). *)
let rec size = function
  | T _ -> 0
  | E (_, _, children) -> 1 + List.fold_left (fun acc c -> acc + size c) 0 children
