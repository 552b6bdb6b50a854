(** Dewey codes: positional identifiers for XML nodes.

    The root element of a document has code [[1]]; its k-th child (counting
    element, text and attribute nodes in document order, attributes first)
    has code [[1; k]].  Dewey order coincides with document order, and
    ancestor/descendant tests are prefix tests, which is why the paper uses
    Dewey encoding for XQ-Tree node identifiers as well (Section 3). *)

type t = int list

let rec compare (a : t) (b : t) : int =
  match a, b with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Stdlib.compare x y else compare a' b'

let to_string (d : t) : string = String.concat "." (List.map string_of_int d)
