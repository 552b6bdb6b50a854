(** The schema path language used by reduction rule R1 (Section 8).

    A tag path [s] is *schema-consistent* when some instance of the DTD
    can contain a node whose root-to-node tag path equals [s].  R1 answers
    membership queries on schema-inconsistent paths with N automatically.
    The paper's prototype uses Relax NG for this filtering; on DTDs the
    language is the set of walks of the element graph from the root, plus
    declared attribute ["@a"] and ["#text"] leaf steps.

    R1 consumes the language as a DFA ({!to_dfa}); {!admits} is the plain
    walk that the DFA is checked against. *)

type t = {
  dtd : Dtd.t;
  names : string list;
      (** every element name the language can stand at: declared
          elements in declaration order, then {!Dtd.undeclared_names}
          (those admit the step but nothing below it) *)
}

let compile (dtd : Dtd.t) : t =
  { dtd; names = Dtd.element_names dtd @ Dtd.undeclared_names dtd }

let children t name = Dtd.children_of t.dtd name

let atts t name =
  List.map (fun a -> "@" ^ a.Dtd.att_name) (Dtd.attributes_of t.dtd name)

(* may the element contain text? *)
let is_mixed t name =
  match Dtd.find t.dtd name with
  | Some { Dtd.content = Content_model.Mixed _ | Content_model.Any; _ } -> true
  | Some _ | None -> false

(** Does the schema admit a node with tag path [path]?  [path] starts at
    the root element (e.g. [["site"; "regions"; "africa"; "item"]]).
    The empty path names no node; ["@a"]/["#text"] steps end the path. *)
let admits (t : t) (path : string list) : bool =
  let rec walk name = function
    | [] -> true
    | sym :: rest ->
      if String.length sym > 0 && sym.[0] = '@' then
        rest = [] && List.mem sym (atts t name)
      else if String.equal sym "#text" then rest = [] && is_mixed t name
      else List.mem sym (children t name) && walk sym rest
  in
  match path with
  | [] -> false
  | root :: rest -> String.equal root (Dtd.root t.dtd) && walk root rest

(** The schema path language as a DFA over [alphabet] (which should
    contain the DTD's {!Dtd.path_symbols}; symbols outside it cannot
    occur in a word and get no transition).  Accepts exactly the paths
    {!admits} admits. *)
let to_dfa (t : t) (alphabet : Xl_automata.Alphabet.t) : Xl_automata.Dfa.t =
  let open Xl_automata in
  let k = Alphabet.size alphabet in
  (* states: 0 = initial, 1..n = "at element i", n+1 = leaf (attr/text),
     n+2 = dead *)
  let n = List.length t.names in
  let index = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.replace index name (i + 1)) t.names;
  let leaf = n + 1 and dead = n + 2 in
  let states = n + 3 in
  let finals = Array.make states true in
  finals.(0) <- false;
  finals.(dead) <- false;
  let delta = Array.init states (fun _ -> Array.make k dead) in
  let edge q sym q' =
    match Alphabet.find alphabet sym with
    | Some a -> delta.(q).(a) <- q'
    | None -> ()
  in
  let root = Dtd.root t.dtd in
  edge 0 root (Hashtbl.find index root);
  List.iter
    (fun name ->
      let q = Hashtbl.find index name in
      List.iter
        (fun child -> edge q child (Hashtbl.find index child))
        (children t name);
      List.iter (fun att -> edge q att leaf) (atts t name);
      if is_mixed t name then edge q "#text" leaf)
    t.names;
  Dfa.create ~alphabet_size:k ~states ~start:0 ~finals ~delta

(** Maximum depth of the schema (∞ for recursive DTDs is capped at
    [cap]); used to bound enumeration in tests. *)
let max_depth ?(cap = 32) (t : t) : int =
  let memo = Hashtbl.create 64 in
  let rec depth name seen d =
    if d > cap then cap
    else if List.mem name seen then cap
    else
      match Hashtbl.find_opt memo name with
      | Some v -> v
      | None ->
        let kids = children t name in
        let v =
          1
          + List.fold_left
              (fun acc c -> max acc (depth c (name :: seen) (d + 1)))
              0 kids
        in
        if not (List.mem name seen) then Hashtbl.replace memo name v;
        v
  in
  depth (Dtd.root t.dtd) [] 0
