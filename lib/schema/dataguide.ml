(** DataGuides: instance-derived path summaries.

    Section 8 notes that "other forms of metadata such as Graph Schema
    can be used as well" for rule R1's filtering.  When no DTD or Relax
    NG schema is available, a DataGuide — the set of tag paths actually
    occurring in the documents, organized as a trie — gives R1 a sound
    filter: a path that no node of the instance exhibits cannot be a
    positive example of any extent over that instance.  (For XQ_I, which
    is instance-parameterized, this filter is exact.) *)

type t = {
  children : (string, t) Hashtbl.t;
  mutable terminal : bool;  (** a node of the instance ends here *)
}

let create_node () = { children = Hashtbl.create 8; terminal = false }

let insert (t : t) (path : string list) : unit =
  let rec go node = function
    | [] -> node.terminal <- true
    | sym :: rest ->
      let next =
        match Hashtbl.find_opt node.children sym with
        | Some n -> n
        | None ->
          let n = create_node () in
          Hashtbl.replace node.children sym n;
          n
      in
      go next rest
  in
  go t path

let insert_doc t (doc : Xl_xml.Doc.t) =
  List.iter
    (fun n -> insert t (Xl_xml.Node.tag_path n))
    (Xl_xml.Doc.all_nodes doc)

(** Build from every element/attribute/text node of the store. *)
let of_store (store : Xl_xml.Store.t) : t =
  let t = create_node () in
  List.iter (insert_doc t) (Xl_xml.Store.docs store);
  t

let of_doc (doc : Xl_xml.Doc.t) : t =
  let t = create_node () in
  insert_doc t doc;
  t

(** Does some node of the instance have this tag path?  Every prefix of
    an inserted path is admitted too (it names the ancestor). *)
let admits (t : t) (path : string list) : bool =
  let rec go node = function
    | [] -> true
    | sym :: rest -> (
      match Hashtbl.find_opt node.children sym with
      | Some next -> go next rest
      | None -> false)
  in
  path <> [] && go t path

(** Number of distinct paths (trie nodes below the root). *)
let size (t : t) : int =
  let rec count node =
    Hashtbl.fold (fun _ child acc -> acc + 1 + count child) node.children 0
  in
  count t

(** All paths, preorder, up to a bound (tests/inspection). *)
let paths ?(limit = 10_000) (t : t) : string list list =
  let out = ref [] in
  let n = ref 0 in
  let rec go prefix node =
    if !n < limit then
      Hashtbl.fold
        (fun sym child () ->
          if !n < limit then begin
            incr n;
            out := List.rev (sym :: prefix) :: !out;
            go (sym :: prefix) child
          end)
        node.children ()
  in
  go [] t;
  List.rev !out

(** Convert to the DFA form rule R1 and presentation tightening use.
    States are trie nodes; every non-root state is accepting (every
    non-empty admitted path names a node). *)
let to_dfa (t : t) (alphabet : Xl_automata.Alphabet.t) : Xl_automata.Dfa.t =
  (* number trie nodes by preorder, recording per-node transitions *)
  let counter = ref 0 in
  let rows = ref [] in
  let rec number node =
    let id = !counter in
    incr counter;
    let kids =
      Hashtbl.fold (fun sym child acc -> (sym, child) :: acc) node.children []
    in
    let kid_ids = List.map (fun (sym, child) -> (sym, number child)) kids in
    rows := (id, kid_ids) :: !rows;
    id
  in
  let root_id = number t in
  let k = Xl_automata.Alphabet.size alphabet in
  let states = !counter + 1 in
  let dead = states - 1 in
  let finals = Array.make states true in
  finals.(root_id) <- false;  (* the empty path names no node *)
  finals.(dead) <- false;
  let delta = Array.init states (fun _ -> Array.make k dead) in
  List.iter
    (fun (id, kids) ->
      List.iter
        (fun (sym, child_id) ->
          match Xl_automata.Alphabet.find alphabet sym with
          | Some a -> delta.(id).(a) <- child_id
          | None -> ())
        kids)
    !rows;
  Xl_automata.Dfa.create ~alphabet_size:k ~states ~start:root_id ~finals ~delta
