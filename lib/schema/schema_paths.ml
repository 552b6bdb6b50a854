(** The schema path language used by reduction rule R1 (Section 8).

    A tag path [s] is *schema-consistent* when some instance of the DTD
    can contain a node whose root-to-node tag path equals [s].  R1 answers
    membership queries on schema-inconsistent paths with N automatically.
    The paper's prototype uses Relax NG for this filtering; on DTDs the
    language is the set of walks of the element graph from the root, plus
    declared attribute ["@a"] and ["#text"] leaf steps.

    The language is exposed as an explicit int-state stepper (states:
    initial, one per element name, leaf, dead) so R1 can hold a cursor at
    a fragment's base prefix and answer each membership query by stepping
    only the relative word — and so single (state, symbol) steps can be
    memoized: XMark Q7 asks ~46k schema-reachability questions whose
    steps revisit a few hundred distinct pairs. *)

(* (state, symbol) step memo telemetry; the benchmark reports its hit
   fraction as core.r1_cache.hit_frac *)
let c_r1_hit = Xl_obs.Obs.Counter.make "r1_cache_hit"
let c_r1_miss = Xl_obs.Obs.Counter.make "r1_cache_miss"

type t = {
  dtd : Dtd.t;
  children : (string, string list) Hashtbl.t;  (** element -> child elements *)
  atts : (string, string list) Hashtbl.t;  (** element -> "@a" symbols *)
  mixed : (string, bool) Hashtbl.t;  (** element may contain text *)
  state_of : (string, int) Hashtbl.t;  (** element name -> state 1..n *)
  names : string array;  (** state - 1 -> element name *)
  leaf : int;
  dead : int;
  memo : (int * string, int) Hashtbl.t;  (** (state, symbol) -> next state *)
}

let compile (dtd : Dtd.t) : t =
  let children = Hashtbl.create 64 in
  let atts = Hashtbl.create 64 in
  let mixed = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match Dtd.find dtd name with
      | None -> ()
      | Some el ->
        Hashtbl.replace children name (Content_model.child_names el.Dtd.content);
        Hashtbl.replace atts name
          (List.map (fun a -> "@" ^ a.Dtd.att_name) el.Dtd.atts);
        let m =
          match el.Dtd.content with
          | Content_model.Mixed _ | Content_model.Any -> true
          | Content_model.Empty | Content_model.Children _ -> false
        in
        Hashtbl.replace mixed name m)
    (Dtd.element_names dtd);
  (* the stepper needs a state for every element name the language can
     stand at: declared elements, names a content model references even
     when undeclared (they admit the step but nothing below it), and the
     root *)
  let state_of = Hashtbl.create 64 in
  let names = ref [] in
  let count = ref 0 in
  let register name =
    if not (Hashtbl.mem state_of name) then begin
      incr count;
      Hashtbl.replace state_of name !count;
      names := name :: !names
    end
  in
  register (Dtd.root dtd);
  List.iter register (Dtd.element_names dtd);
  Hashtbl.iter (fun _ kids -> List.iter register kids) children;
  let names = Array.of_list (List.rev !names) in
  let leaf = !count + 1 and dead = !count + 2 in
  {
    dtd;
    children;
    atts;
    mixed;
    state_of;
    names;
    leaf;
    dead;
    memo = Hashtbl.create 256;
  }

let lookup tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

let start (_ : t) = 0

let accepting (t : t) (q : int) = q <> 0 && q <> t.dead

let compute_step (t : t) (q : int) (sym : string) : int =
  if q = t.dead || q = t.leaf then t.dead
  else if q = 0 then
    if String.equal sym (Dtd.root t.dtd) then Hashtbl.find t.state_of sym
    else t.dead
  else
    let name = t.names.(q - 1) in
    if String.length sym > 0 && sym.[0] = '@' then
      if List.mem sym (lookup t.atts name) then t.leaf else t.dead
    else if String.equal sym "#text" then
      if Option.value ~default:false (Hashtbl.find_opt t.mixed name) then t.leaf
      else t.dead
    else if List.mem sym (lookup t.children name) then
      Hashtbl.find t.state_of sym
    else t.dead

let step (t : t) (q : int) (sym : string) : int =
  match Hashtbl.find_opt t.memo (q, sym) with
  | Some q' ->
    Xl_obs.Obs.Counter.incr c_r1_hit;
    q'
  | None ->
    Xl_obs.Obs.Counter.incr c_r1_miss;
    let q' = compute_step t q sym in
    Hashtbl.replace t.memo (q, sym) q';
    q'

let run (t : t) (q : int) (path : string list) : int =
  List.fold_left (fun q sym -> step t q sym) q path

(** Does the schema admit a node with tag path [path]?  [path] starts at
    the root element (e.g. [["site"; "regions"; "africa"; "item"]]).
    The empty path names no node.  ["@a"]/["#text"] leaf steps cannot be
    extended: the leaf state steps to dead. *)
let admits (t : t) (path : string list) : bool =
  accepting t (run t (start t) path)

(** The schema path language as a DFA over [alphabet] (which must contain
    at least the DTD's {!Dtd.path_symbols}).  Accepts exactly the
    schema-consistent paths; used in tests and to intersect hypothesis
    languages with the schema. *)
let to_dfa (t : t) (alphabet : Xl_automata.Alphabet.t) : Xl_automata.Dfa.t =
  let open Xl_automata in
  let names = Dtd.element_names t.dtd in
  let k = Alphabet.size alphabet in
  (* states: 0 = initial, 1..n = "at element i", n+1 = leaf (attr/text),
     n+2 = dead *)
  let n = List.length names in
  let index = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.replace index name (i + 1)) names;
  let leaf = n + 1 and dead = n + 2 in
  let states = n + 3 in
  let finals = Array.make states true in
  finals.(0) <- false;
  finals.(dead) <- false;
  let delta = Array.init states (fun _ -> Array.make k dead) in
  let sym_id s = Alphabet.find alphabet s in
  (* initial state: only the root element symbol *)
  (match sym_id (Dtd.root t.dtd), Hashtbl.find_opt index (Dtd.root t.dtd) with
  | Some a, Some q -> delta.(0).(a) <- q
  | _ -> ());
  List.iter
    (fun name ->
      match Hashtbl.find_opt index name with
      | None -> ()
      | Some q ->
        List.iter
          (fun child ->
            match sym_id child, Hashtbl.find_opt index child with
            | Some a, Some q' -> delta.(q).(a) <- q'
            | _ -> ())
          (lookup t.children name);
        List.iter
          (fun att ->
            match sym_id att with
            | Some a -> delta.(q).(a) <- leaf
            | None -> ())
          (lookup t.atts name);
        if Option.value ~default:false (Hashtbl.find_opt t.mixed name) then
          match sym_id "#text" with
          | Some a -> delta.(q).(a) <- leaf
          | None -> ())
    names;
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
        let kids = lookup t.children name in
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
