(** Deterministic finite automata over dense integer alphabets.

    Transition functions are total (a sink state is added where needed), so
    product constructions and complementation are direct.  States are
    [0 .. states-1]; words are [int list]. *)

type t = {
  alphabet_size : int;
  states : int;
  start : int;
  finals : bool array;
  delta : int array array;  (** [delta.(q).(a)] *)
}

let alphabet_size t = t.alphabet_size
let state_count t = t.states

let create ~alphabet_size ~states ~start ~finals ~delta =
  if Array.length finals <> states then invalid_arg "Dfa.create: finals size";
  if Array.length delta <> states then invalid_arg "Dfa.create: delta size";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet_size then invalid_arg "Dfa.create: delta row")
    delta;
  { alphabet_size; states; start; finals; delta }

let step t q a = t.delta.(q).(a)

let run t word =
  List.fold_left (fun q a -> if q < 0 then q else step t q a) t.start word

let accepts t word =
  let q = run t word in
  q >= 0 && t.finals.(q)

(* forward state propagation over a prefix trie: node ids ascend from
   parents to children, so one left-to-right pass settles every node *)
let trie_states t (trie : Trie.t) : int array =
  let n = Trie.size trie in
  let states = Array.make n t.start in
  for i = 1 to n - 1 do
    let q = states.(Trie.parent trie i) in
    states.(i) <- (if q < 0 then q else step t q (Trie.symbol trie i))
  done;
  states

let accepts_batch t (words : int list list) : bool list =
  let trie = Trie.create () in
  let terminals = List.map (Trie.add_word trie) words in
  let states = trie_states t trie in
  List.map
    (fun node ->
      let q = states.(node) in
      q >= 0 && t.finals.(q))
    terminals

(** DFA accepting the empty language. *)
let empty ~alphabet_size =
  {
    alphabet_size;
    states = 1;
    start = 0;
    finals = [| false |];
    delta = [| Array.make alphabet_size 0 |];
  }

(** DFA accepting every word. *)
let universal ~alphabet_size =
  {
    alphabet_size;
    states = 1;
    start = 0;
    finals = [| true |];
    delta = [| Array.make alphabet_size 0 |];
  }

let complement t =
  { t with finals = Array.map not t.finals }

(** Same automaton started from another state (left-quotient by any word
    reaching [q]). *)
let with_start t q =
  if q < 0 || q >= t.states then invalid_arg "Dfa.with_start";
  { t with start = q }

(** Product construction combining acceptance with [f], over the pairs
    reachable from the start pair only.  Reached pairs keep the order of
    their full-product codes [qa·|B| + qb], so the result is the full
    product's reachable part renumbered monotonically, and {!minimize}
    (which numbers classes by first occurrence) returns the same
    automaton, state for state, as it would from the full product. *)
let product f a b =
  if a.alphabet_size <> b.alphabet_size then
    invalid_arg "Dfa.product: alphabet mismatch";
  let k = a.alphabet_size and nb = b.states in
  let n = a.states * nb in
  (* [number.(code)]: -1 unreached; after the sweep, the state number *)
  let number = Array.make n (-1) in
  let stack = Array.make n 0 in
  let start = (a.start * nb) + b.start in
  number.(start) <- 0;
  stack.(0) <- start;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let code = stack.(!sp) in
    let ra = a.delta.(code / nb) and rb = b.delta.(code mod nb) in
    for s = 0 to k - 1 do
      let c = (ra.(s) * nb) + rb.(s) in
      if number.(c) < 0 then begin
        number.(c) <- 0;
        stack.(!sp) <- c;
        incr sp
      end
    done
  done;
  let states = ref 0 in
  for c = 0 to n - 1 do
    if number.(c) >= 0 then begin
      number.(c) <- !states;
      incr states
    end
  done;
  let finals = Array.make !states false and delta = Array.make !states [||] in
  for c = 0 to n - 1 do
    let q = number.(c) in
    if q >= 0 then begin
      let qa = c / nb and qb = c mod nb in
      let ra = a.delta.(qa) and rb = b.delta.(qb) in
      finals.(q) <- f a.finals.(qa) b.finals.(qb);
      delta.(q) <- Array.init k (fun s -> number.((ra.(s) * nb) + rb.(s)))
    end
  done;
  { alphabet_size = k; states = !states; start = number.(start); finals; delta }

let intersection = product ( && )
let union = product ( || )
let difference = product (fun x y -> x && not y)
let symmetric_difference = product (fun x y -> x <> y)

(** Shortest accepted word (BFS), or [None] if the language is empty. *)
let shortest_accepted t =
  let parent = Array.make t.states None in
  let visited = Array.make t.states false in
  let queue = Queue.create () in
  visited.(t.start) <- true;
  Queue.push t.start queue;
  let found = ref None in
  (try
     while not (Queue.is_empty queue) do
       let q = Queue.pop queue in
       if t.finals.(q) then begin
         found := Some q;
         raise Exit
       end;
       for a = 0 to t.alphabet_size - 1 do
         let q' = t.delta.(q).(a) in
         if not visited.(q') then begin
           visited.(q') <- true;
           parent.(q') <- Some (q, a);
           Queue.push q' queue
         end
       done
     done
   with Exit -> ());
  match !found with
  | None -> None
  | Some q ->
    let rec build acc q =
      match parent.(q) with
      | None -> acc
      | Some (p, a) -> build (a :: acc) p
    in
    Some (build [] q)

let is_empty t = shortest_accepted t = None

(** Per-state "some final state is reachable" flags — the pruning mask
    of the tree-walking and frozen-scan selections: a walk entering a
    non-live state can only produce dead work, so the whole subtree is
    skipped.  Fixpoint over the (small) state set. *)
let liveness t : bool array =
  let live = Array.copy t.finals in
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to t.states - 1 do
      if not live.(q) then
        for a = 0 to t.alphabet_size - 1 do
          if live.(t.delta.(q).(a)) && not live.(q) then begin
            live.(q) <- true;
            changed := true
          end
        done
    done
  done;
  live

(** [equivalent a b] is [Ok ()] when L(a) = L(b), otherwise
    [Error w] with [w] a shortest word in the symmetric difference. *)
let equivalent a b =
  match shortest_accepted (symmetric_difference a b) with
  | None -> Ok ()
  | Some w -> Error w

(** Moore partition-refinement minimization; also removes unreachable
    states.  Each round gives every reachable state the signature (its
    class, its successors' classes) and numbers the distinct signatures
    by first occurrence in ascending state order, through an
    open-addressing table of representative states: a signature is
    hashed and compared in place, never built.  Rounds stop when the
    class count is stable, so the last round's numbering is the output's:
    classes in order of their smallest reachable state. *)
let minimize t =
  let k = t.alphabet_size in
  (* reachable states, ascending *)
  let reach = Array.make t.states false in
  let stack = Array.make t.states 0 in
  reach.(t.start) <- true;
  stack.(0) <- t.start;
  let sp = ref 1 and m = ref 1 in
  while !sp > 0 do
    decr sp;
    Array.iter
      (fun q' ->
        if not reach.(q') then begin
          reach.(q') <- true;
          stack.(!sp) <- q';
          incr sp;
          incr m
        end)
      t.delta.(stack.(!sp))
  done;
  let states = Array.make !m 0 in
  let j = ref 0 in
  Array.iteri
    (fun q r ->
      if r then begin
        states.(!j) <- q;
        incr j
      end)
    reach;
  let m = !m in
  let cls = Array.make t.states 0 and next = Array.make t.states 0 in
  Array.iter (fun q -> cls.(q) <- Bool.to_int t.finals.(q)) states;
  (* 0 is no class count, so at least two rounds run *)
  let count = ref 0 in
  let size = ref 1 in
  while !size < 2 * m do size := 2 * !size done;
  let mask = !size - 1 in
  (* slot -> representative state of a class + 1, 0 when empty *)
  let slots = Array.make !size 0 in
  let hash q =
    let row = t.delta.(q) in
    let h = ref cls.(q) in
    for a = 0 to k - 1 do
      h := (!h * 31) + cls.(row.(a))
    done;
    !h land max_int
  in
  let same p q =
    cls.(p) = cls.(q)
    &&
    let rp = t.delta.(p) and rq = t.delta.(q) in
    let rec go a = a = k || (cls.(rp.(a)) = cls.(rq.(a)) && go (a + 1)) in
    go 0
  in
  let rec refine () =
    Array.fill slots 0 !size 0;
    let fresh = ref 0 in
    Array.iter
      (fun q ->
        let rec probe i =
          let r = slots.(i) in
          if r = 0 then begin
            slots.(i) <- q + 1;
            next.(q) <- !fresh;
            incr fresh
          end
          else if same (r - 1) q then next.(q) <- next.(r - 1)
          else probe ((i + 1) land mask)
        in
        probe (hash q land mask))
      states;
    Array.iter (fun q -> cls.(q) <- next.(q)) states;
    if !fresh <> !count then begin
      count := !fresh;
      refine ()
    end
  in
  refine ();
  let n = !count in
  let finals = Array.make n false and delta = Array.make n [||] in
  Array.iter
    (fun q ->
      let c = cls.(q) in
      if Array.length delta.(c) = 0 then begin
        finals.(c) <- t.finals.(q);
        delta.(c) <- Array.map (fun q' -> cls.(q')) t.delta.(q)
      end)
    states;
  { alphabet_size = k; states = n; start = cls.(t.start); finals; delta }

(** Widen the alphabet: new symbols all lead to a fresh sink state. *)
let extend_alphabet t ~alphabet_size:k =
  if k < t.alphabet_size then invalid_arg "Dfa.extend_alphabet: shrinking";
  if k = t.alphabet_size then t
  else begin
    let sink = t.states in
    let states = t.states + 1 in
    let finals = Array.append t.finals [| false |] in
    let delta =
      Array.init states (fun q ->
          Array.init k (fun a ->
              if q = sink then sink
              else if a < t.alphabet_size then t.delta.(q).(a)
              else sink))
    in
    { alphabet_size = k; states; start = t.start; finals; delta }
  end

(** Enumerate accepted words of length at most [max_len] (tests / demos). *)
let accepted_up_to t max_len =
  let out = ref [] in
  let rec go q word len =
    if t.finals.(q) then out := List.rev word :: !out;
    if len < max_len then
      for a = 0 to t.alphabet_size - 1 do
        go t.delta.(q).(a) (a :: word) (len + 1)
      done
  in
  go t.start [] 0;
  List.rev !out
