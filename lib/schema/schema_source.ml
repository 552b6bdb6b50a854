(** Schema sources for rule R1's filtering.

    Section 8: "The current prototype uses the Relax NG for filtering,
    but other forms of metadata such as Graph Schema can be used as
    well."  This module is that pluggability: R1 consumes any source of
    a path-admissibility test — a DTD's path language, a Relax NG
    schema, or a DataGuide derived from the instance itself when no
    schema was supplied. *)

type t =
  | Dtd_paths of Schema_paths.t
  | Relax_ng of Relaxng.t
  | Data_guide of Dataguide.t




let of_dtd dtd = Dtd_paths (Schema_paths.compile dtd)
let of_relaxng rng = Relax_ng rng
let of_dataguide dg = Data_guide dg

(** Is a node with this tag path possible under the source? *)
let admits (t : t) (path : string list) : bool =
  match t with
  | Dtd_paths sp -> Schema_paths.admits sp path
  | Relax_ng rng -> Relaxng.admits rng path
  | Data_guide dg -> Dataguide.admits dg path

(** A source pre-walked to a fixed path prefix.  R1 holds one per
    (source, fragment base): every membership query of a learning task
    asks about the same absolute prefix followed by a short relative
    word, so the cursor pays for the prefix once instead of per query. *)
type cursor =
  | Dtd_cursor of Schema_paths.t * int  (** stepper at the prefix state *)
  | Guide_cursor of Dataguide.t * bool  (** subtrie at prefix, [at_root] *)
  | Generic of t * string list  (** no incremental form; re-prepend *)
  | Dead  (** the prefix itself is already inadmissible *)

let cursor (t : t) (prefix : string list) : cursor =
  match t with
  | Dtd_paths sp ->
    let q = Schema_paths.run sp (Schema_paths.start sp) prefix in
    (* [q] may be the dead sink; stepping keeps it there, so no special
       case is needed for admissible-prefix checks *)
    Dtd_cursor (sp, q)
  | Data_guide dg -> (
    let rec walk node = function
      | [] -> Some node
      | sym :: rest -> (
        match Dataguide.step node sym with
        | Some next -> walk next rest
        | None -> None)
    in
    match walk dg prefix with
    | Some node -> Guide_cursor (node, prefix = [])
    | None -> Dead)
  | Relax_ng _ -> Generic (t, prefix)

(** [cursor_admits (cursor t prefix) rel = admits t (prefix @ rel)],
    with the prefix walk amortized. *)
let cursor_admits (c : cursor) (rel : string list) : bool =
  match c with
  | Dead -> false
  | Dtd_cursor (sp, q) -> Schema_paths.accepting sp (Schema_paths.run sp q rel)
  | Guide_cursor (node, at_root) ->
    let rec walk node = function
      | [] -> true
      | sym :: rest -> (
        match Dataguide.step node sym with
        | Some next -> walk next rest
        | None -> false)
    in
    (* the empty total path names no node *)
    (rel <> [] || not at_root) && walk node rel
  | Generic (t, prefix) -> admits t (prefix @ rel)

(** [cursor_admits_trie c trie ~symbols terminals] answers
    [cursor_admits c rel] for many relative words at once, where each
    word is spelled by a terminal node of a shared prefix trie and
    [symbols.(i)] names the symbol on the edge into trie node [i].  The
    incremental sources (DTD stepper, DataGuide) propagate their state in
    one forward pass over the trie nodes — each shared prefix is stepped
    once for the whole batch instead of once per word. *)
let cursor_admits_trie (c : cursor) (trie : Xl_automata.Trie.t)
    ~(symbols : string array) (terminals : int list) : bool list =
  let n = Xl_automata.Trie.size trie in
  match c with
  | Dead -> List.map (fun _ -> false) terminals
  | Dtd_cursor (sp, q0) ->
    let states = Array.make n q0 in
    for i = 1 to n - 1 do
      states.(i) <-
        Schema_paths.step sp states.(Xl_automata.Trie.parent trie i) symbols.(i)
    done;
    List.map (fun t -> Schema_paths.accepting sp states.(t)) terminals
  | Guide_cursor (node, at_root) ->
    let states = Array.make n (Some node) in
    for i = 1 to n - 1 do
      states.(i) <-
        (match states.(Xl_automata.Trie.parent trie i) with
        | None -> None
        | Some nd -> Dataguide.step nd symbols.(i))
    done;
    List.map
      (fun t ->
        (* the empty total path names no node *)
        (t <> Xl_automata.Trie.root || not at_root) && states.(t) <> None)
      terminals
  | Generic (t, prefix) ->
    let word term =
      let rec up acc i =
        if i = Xl_automata.Trie.root then acc
        else up (symbols.(i) :: acc) (Xl_automata.Trie.parent trie i)
      in
      up [] term
    in
    List.map (fun term -> admits t (prefix @ word term)) terminals

(** The path language as a DFA, where the source supports it (used to
    tighten learned automata for presentation). *)
let to_dfa (t : t) (alphabet : Xl_automata.Alphabet.t) :
    Xl_automata.Dfa.t option =
  match t with
  | Dtd_paths sp -> Some (Schema_paths.to_dfa sp alphabet)
  | Data_guide dg -> Some (Dataguide.to_dfa dg alphabet)
  | Relax_ng _ -> None

let describe = function
  | Dtd_paths _ -> "DTD path language"
  | Relax_ng _ -> "Relax NG schema"
  | Data_guide _ -> "DataGuide (instance-derived)"
