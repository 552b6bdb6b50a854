(** Shared prefix trie over integer-symbol words.  See the interface for
    the numbering invariant (creation order = topological order).

    Edges are first-child/next-sibling links rather than a hash table:
    an L* fill inserts ~10^5 short words per table sweep, and a
    per-step (node, symbol) hash lookup (tuple allocation + polymorphic
    hash) costs more than the whole DFA walk it is meant to batch.  A
    node's fanout is bounded by the tag alphabet and is small in
    practice, so a linear sibling scan of unboxed ints wins by a wide
    margin.

    A node is four 32-bit fields — parent, symbol, first child, next
    sibling, each -1 when absent — packed in one byte buffer: L* keeps
    every word of its observation table as a node, several times more
    nodes than distinct words, and int arrays would double that
    memory. *)

type t = { mutable data : Bytes.t; mutable len : int }

let root = 0
let node_bytes = 16

(* field offsets within a node *)
let parent_f = 0
let symbol_f = 4
let first_child_f = 8
let next_sibling_f = 12

let get t i f = Int32.to_int (Bytes.get_int32_le t.data ((i * node_bytes) + f))
let set t i f v = Bytes.set_int32_le t.data ((i * node_bytes) + f) (Int32.of_int v)

(* all-ones bytes read as -1 in every field *)
let create () = { data = Bytes.make (64 * node_bytes) '\255'; len = 1 }
let size t = t.len

let grow t =
  let cap = Bytes.length t.data in
  if t.len * node_bytes = cap then begin
    t.data <- Bytes.extend t.data 0 cap;
    Bytes.fill t.data cap cap '\255'
  end

let child t node sym =
  let rec scan c =
    if c < 0 then begin
      grow t;
      let c = t.len in
      set t c parent_f node;
      set t c symbol_f sym;
      (* prepend keeps insertion O(fanout) with no tail pointer *)
      set t c next_sibling_f (get t node first_child_f);
      set t node first_child_f c;
      t.len <- t.len + 1;
      c
    end
    else if get t c symbol_f = sym then c
    else scan (get t c next_sibling_f)
  in
  scan (get t node first_child_f)

let add_word t word = List.fold_left (fun node sym -> child t node sym) root word

let parent t i =
  if i < 0 || i >= t.len then invalid_arg "Trie.parent" else get t i parent_f

let symbol t i =
  if i < 0 || i >= t.len then invalid_arg "Trie.symbol" else get t i symbol_f

let symbols t i =
  if i < 0 || i >= t.len then invalid_arg "Trie.symbols";
  let rec up acc i = if i = root then acc else up (get t i symbol_f :: acc) (get t i parent_f) in
  up [] i
