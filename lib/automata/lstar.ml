(** Angluin's L* algorithm (Angluin 1987), the learning core behind
    LEARN-X0 (paper Section 5).

    The teacher answers membership queries in batches and equivalence
    queries on hypothesis DFAs.  Every word the observation table holds
    — an access word, a one-symbol extension, either of them followed by
    a suffix of E — is a node of one prefix {!Trie}, and its answer
    lives on that node.  So a teacher is asked about each distinct word
    at most once per run, which is what the paper counts as one
    (potential) interaction.

    Before every observation-table sweep the learner collects the
    unanswered cells of the S rows into one batch and then those of the
    extension rows into a second, each deduplicated by node, in sweep
    order: rows in table order, suffixes in E order within a row.  A
    cell goes to the teacher as its node, its row's node and its index
    in E; the learner spells no word. *)

type batch = {
  trie : Trie.t;
  suffixes : int list array;
  nodes : int array;
  rows : int array;
  cols : int array;
}

type teacher = {
  membership_batch : batch -> bool array;
  equivalence : Dfa.t -> int list option;
}

(* telemetry: rounds and final observation-table size, per learn call;
   batch counters record the fill traffic the teacher answered *)
let h_table_rows = Xl_obs.Obs.Histogram.make "lstar_table_rows"
let h_batch_size = Xl_obs.Obs.Histogram.make "lstar_batch_size"
let c_rounds = Xl_obs.Obs.Counter.make "lstar_rounds"
let c_mq_batched = Xl_obs.Obs.Counter.make "mq_batched"

(* Growable vector: S and E only ever append, but the sweeps iterate them
   constantly — [xs <- xs @ [x]] made every append O(n) and table growth
   quadratic.  A vector appends in O(1) amortized and still iterates in
   insertion order. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length v = v.len
  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let clear v = v.len <- 0

  let mem v x =
    let rec go i = i < v.len && (v.data.(i) = x || go (i + 1)) in
    go 0

  let push v x =
    if v.len = Array.length v.data then begin
      let cap = max 8 (2 * Array.length v.data) in
      let data = Array.make cap x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

type stats = {
  mutable membership_queries : int;  (** distinct words asked *)
  mutable equivalence_queries : int;
  mutable counterexamples : int;
  mutable hypotheses : int;
}

let fresh_stats () =
  { membership_queries = 0; equivalence_queries = 0; counterexamples = 0; hypotheses = 0 }

(* The observation table over one trie.  [exts] mirrors [s] blockwise:
   the i-th access word's a-extension is [exts] index i*A + a, so a walk
   leaves an S node through that index instead of scanning its
   alphabet-wide fanout; every other node has at most |E| children.

   A row is an interned class, kept per S index and per [exts] index.
   Class 0 is the empty row; the row that extends class c by one column
   answered b is class [next.(2c + b)], made on first use.  So classes
   form a binary trie, a class stands for exactly one answer vector, and
   two rows of one width are equal iff their class ids are.  A row may
   be narrower than E (it was filled before a suffix was added); the
   next fill extends it, its old cells are answered facts.  Sweeps that
   compare rows mark classes with [stamp] in [mark] rather than building
   row tables. *)
type table = {
  alphabet_size : int;
  trie : Trie.t;
  s : int Vec.t;  (** access words, prefix-closed, ε first *)
  s_index : (int, int) Hashtbl.t;  (** S node -> its index in [s] *)
  e : int list Vec.t;  (** distinguishing suffixes, ε first *)
  exts : int Vec.t;
  mutable answer : Bytes.t;  (** node -> [unknown], [queued], [no] or [yes] *)
  s_rows : int Vec.t;  (** S index -> its row's class *)
  x_rows : int Vec.t;  (** [exts] index -> its row's class *)
  up : int Vec.t;  (** class -> the class it extends ([-1] for class 0) *)
  width : int Vec.t;  (** class -> its number of columns *)
  next : int Vec.t;  (** [2c + b] -> c extended by b, or -1 *)
  mutable mark : int array;  (** class -> stamp of the sweep that saw it last *)
  mutable tag : int array;  (** class -> per-sweep value: an S index or a state *)
  mutable stamp : int;
  (* scratch of one fill, reused *)
  short : int Vec.t;  (** the short rows' indexes *)
  cells : int Vec.t;  (** their missing cells, row after row *)
  q_nodes : int Vec.t;
  q_rows : int Vec.t;
  q_cols : int Vec.t;
  teacher : teacher;
  stats : stats;
}

let unknown = '\000'
let queued = '\001'  (* in the batch being collected *)
let no = '\002'
let yes = '\003'

(* The trie is the caller's: it may hold nodes from earlier runs, and
   the teacher may add nodes to it between fills, so the answer bytes
   grow to whatever node a step returns. *)
let cover tbl =
  let n = Trie.size tbl.trie and cap = Bytes.length tbl.answer in
  if n > cap then begin
    let cap' = max (2 * cap) n in
    tbl.answer <- Bytes.extend tbl.answer 0 (cap' - cap);
    Bytes.fill tbl.answer cap (cap' - cap) unknown
  end

let child tbl node a =
  let c = Trie.child tbl.trie node a in
  if c >= Bytes.length tbl.answer then cover tbl;
  c

(* the node of [node]'s word followed by [a]; [i] is [node]'s index in
   S, or -1 *)
let step tbl node i a =
  if i >= 0 && a < tbl.alphabet_size then Vec.get tbl.exts ((i * tbl.alphabet_size) + a)
  else child tbl node a

(* the node of [node]'s word followed by [e] *)
let rec walk tbl node = function
  | [] -> node
  | a :: e -> walk tbl (child tbl node a) e

(* [node] joins S unless it is there; its index in S *)
let add_s tbl node =
  match Hashtbl.find_opt tbl.s_index node with
  | Some i -> i
  | None ->
    let i = Vec.length tbl.s in
    Hashtbl.replace tbl.s_index node i;
    Vec.push tbl.s node;
    Vec.push tbl.s_rows 0;
    Array.iter
      (fun c ->
        Vec.push tbl.exts c;
        Vec.push tbl.x_rows 0)
      (Trie.children tbl.trie node tbl.alphabet_size);
    cover tbl;
    i

(* extend S with w and all its prefixes (keeps S prefix-closed) *)
let add_access tbl w =
  ignore
    (List.fold_left
       (fun (node, i) a ->
         let c = step tbl node i a in
         (c, add_s tbl c))
       (Trie.root, 0) w)

(* class [c] extended by one column answered [b] *)
let extend tbl c b =
  let k = (2 * c) + Bool.to_int b in
  let d = Vec.get tbl.next k in
  if d >= 0 then d
  else begin
    let d = Vec.length tbl.up in
    Vec.push tbl.up c;
    Vec.push tbl.width (Vec.get tbl.width c + 1);
    Vec.push tbl.next (-1);
    Vec.push tbl.next (-1);
    Vec.set tbl.next k d;
    d
  end

(* the first column two distinct classes of one width differ in: where
   their chains meet, every earlier column agrees *)
let rec separating_column tbl c1 c2 =
  let u1 = Vec.get tbl.up c1 and u2 = Vec.get tbl.up c2 in
  if u1 = u2 then Vec.get tbl.width c1 - 1 else separating_column tbl u1 u2

(* a fresh stamp, with [mark] and [tag] covering every class *)
let new_sweep tbl =
  let n = Vec.length tbl.up in
  if n > Array.length tbl.mark then begin
    let cap = max n (2 * Array.length tbl.mark) in
    let mark = Array.make cap 0 in
    Array.blit tbl.mark 0 mark 0 (Array.length tbl.mark);
    tbl.mark <- mark;
    tbl.tag <- Array.make cap 0
  end;
  tbl.stamp <- tbl.stamp + 1

(* Complete [rows], the rows of [nodes], through one teacher batch: the
   cells a row lacks, in row order and E order, each unanswered node
   queued at its first occurrence.  [in_s]: [nodes] is S, so a row's
   index is its S index.  A word in both S and the extensions has a row
   in each; the S fill answers its cells first, so the extension fill
   only walks them. *)
let fill tbl (nodes : int Vec.t) (rows : int Vec.t) ~in_s =
  let ncols = Vec.length tbl.e in
  Vec.clear tbl.short;
  Vec.clear tbl.cells;
  Vec.clear tbl.q_nodes;
  Vec.clear tbl.q_rows;
  Vec.clear tbl.q_cols;
  for r = 0 to Vec.length nodes - 1 do
    let from = Vec.get tbl.width (Vec.get rows r) in
    if from < ncols then begin
      let node = Vec.get nodes r in
      Vec.push tbl.short r;
      let i = if in_s then r else -1 in
      for j = from to ncols - 1 do
        let cell =
          match Vec.get tbl.e j with
          | [] -> node
          | a :: e -> walk tbl (step tbl node i a) e
        in
        if Bytes.get tbl.answer cell = unknown then begin
          Bytes.set tbl.answer cell queued;
          Vec.push tbl.q_nodes cell;
          Vec.push tbl.q_rows node;
          Vec.push tbl.q_cols j
        end;
        Vec.push tbl.cells cell
      done
    end
  done;
  let npend = Vec.length tbl.q_nodes in
  if npend > 0 then begin
    let nodes = Vec.to_array tbl.q_nodes in
    let answers =
      tbl.teacher.membership_batch
        {
          trie = tbl.trie;
          suffixes = Vec.to_array tbl.e;
          nodes;
          rows = Vec.to_array tbl.q_rows;
          cols = Vec.to_array tbl.q_cols;
        }
    in
    if Array.length answers <> npend then
      invalid_arg "Lstar: membership_batch answered a different cell count";
    Array.iteri (fun k c -> Bytes.set tbl.answer c (if answers.(k) then yes else no)) nodes;
    tbl.stats.membership_queries <- tbl.stats.membership_queries + npend;
    Xl_obs.Obs.Counter.add c_mq_batched npend;
    Xl_obs.Obs.Histogram.observe h_batch_size npend
  end;
  let k = ref 0 in
  for j = 0 to Vec.length tbl.short - 1 do
    let r = Vec.get tbl.short j in
    let c = ref (Vec.get rows r) in
    for _ = Vec.get tbl.width !c to ncols - 1 do
      c := extend tbl !c (Bytes.get tbl.answer (Vec.get tbl.cells !k) = yes);
      incr k
    done;
    Vec.set rows r !c
  done

(* Fill, close and make consistent *)
let rec close_and_make_consistent tbl =
  (* the teacher answers the whole fill up front: S rows first, then
     the extension rows *)
  fill tbl tbl.s tbl.s_rows ~in_s:true;
  fill tbl tbl.exts tbl.x_rows ~in_s:false;
  let ns = Vec.length tbl.s and nx = Vec.length tbl.exts in
  (* closedness: every one-symbol extension's row appears among S rows *)
  new_sweep tbl;
  for i = 0 to ns - 1 do
    tbl.mark.(Vec.get tbl.s_rows i) <- tbl.stamp
  done;
  let rec unclosed i =
    if i = nx then -1
    else if tbl.mark.(Vec.get tbl.x_rows i) <> tbl.stamp then i
    else unclosed (i + 1)
  in
  let u = unclosed 0 in
  if u >= 0 then begin
    ignore (add_s tbl (Vec.get tbl.exts u));
    close_and_make_consistent tbl
  end
  else begin
    (* consistency: equal rows must stay equal under every extension;
       word i's a-extension row is [exts] index i*A + a.  The first
       conflicting pair (i1, i2) in index order has i1 the first S word
       of its row, so each word is compared with that first word only;
       of the conflicts found, the smallest i1 wins, then the smallest
       i2 and a. *)
    let a_size = tbl.alphabet_size in
    let ext i a = Vec.get tbl.x_rows ((i * a_size) + a) in
    new_sweep tbl;
    let conflict = ref None in
    for i = 0 to ns - 1 do
      let c = Vec.get tbl.s_rows i in
      if tbl.mark.(c) <> tbl.stamp then begin
        tbl.mark.(c) <- tbl.stamp;
        tbl.tag.(c) <- i
      end
      else begin
        let i1 = tbl.tag.(c) in
        match !conflict with
        | Some (j1, _, _) when j1 <= i1 -> ()
        | _ ->
          let rec differs a =
            if a = a_size then ()
            else if ext i1 a <> ext i a then conflict := Some (i1, i, a)
            else differs (a + 1)
          in
          differs 0
      end
    done;
    match !conflict with
    | Some (i1, i2, a) ->
      let new_e = a :: Vec.get tbl.e (separating_column tbl (ext i1 a) (ext i2 a)) in
      if not (Vec.mem tbl.e new_e) then
        (* rows are now short by one column; the next fill extends them *)
        Vec.push tbl.e new_e;
      close_and_make_consistent tbl
    | None -> ()
  end

(* distinct S rows, in first-occurrence order, become states *)
let conjecture tbl : Dfa.t =
  new_sweep tbl;
  let reps = Vec.create () in
  for i = 0 to Vec.length tbl.s - 1 do
    let c = Vec.get tbl.s_rows i in
    if tbl.mark.(c) <> tbl.stamp then begin
      tbl.mark.(c) <- tbl.stamp;
      tbl.tag.(c) <- Vec.length reps;
      Vec.push reps i
    end
  done;
  let state_of c =
    if tbl.mark.(c) = tbl.stamp then tbl.tag.(c)
    else invalid_arg "Lstar.conjecture: row not found (table not closed)"
  in
  (* E starts with ε: column 0 is the access word's own answer, the
     last step of the class's chain up to the empty row *)
  let rec first_answer c =
    let u = Vec.get tbl.up c in
    if u = 0 then Vec.get tbl.next 1 = c else first_answer u
  in
  let n = Vec.length reps and a_size = tbl.alphabet_size in
  let finals = Array.make n false in
  let delta = Array.make_matrix n a_size 0 in
  for q = 0 to n - 1 do
    let i = Vec.get reps q in
    finals.(q) <- first_answer (Vec.get tbl.s_rows i);
    for a = 0 to a_size - 1 do
      delta.(q).(a) <- state_of (Vec.get tbl.x_rows ((i * a_size) + a))
    done
  done;
  Dfa.create ~alphabet_size:a_size ~states:n ~start:(state_of (Vec.get tbl.s_rows 0)) ~finals
    ~delta

(** Run L* on [trie].  [init] words are seeded into the access set before
    the first hypothesis — the paper seeds [path(e)] of the dropped
    example, which spares the teacher the cold-start round of equivalence
    queries.  [max_rounds] bounds the equivalence-query loop as a safety
    net. *)
let learn ?(init = []) ?(max_rounds = 200) ~trie ~alphabet_size (teacher : teacher) :
    Dfa.t * stats =
  Xl_obs.Obs.span ~name:"lstar.learn" (fun () ->
  let tbl =
    {
      alphabet_size;
      trie;
      s = Vec.create ();
      s_index = Hashtbl.create 64;
      e = Vec.create ();
      exts = Vec.create ();
      answer = Bytes.make (max 64 (Trie.size trie)) unknown;
      s_rows = Vec.create ();
      x_rows = Vec.create ();
      up = Vec.create ();
      width = Vec.create ();
      next = Vec.create ();
      mark = [||];
      tag = [||];
      stamp = 0;
      short = Vec.create ();
      cells = Vec.create ();
      q_nodes = Vec.create ();
      q_rows = Vec.create ();
      q_cols = Vec.create ();
      teacher;
      stats = fresh_stats ();
    }
  in
  (* class 0, the empty row *)
  Vec.push tbl.up (-1);
  Vec.push tbl.width 0;
  Vec.push tbl.next (-1);
  Vec.push tbl.next (-1);
  ignore (add_s tbl Trie.root);
  Vec.push tbl.e [];
  List.iter (add_access tbl) init;
  let rec loop round =
    if round > max_rounds then failwith "Lstar.learn: too many rounds";
    Xl_obs.Obs.Counter.incr c_rounds;
    (* one round = close/make-consistent, conjecture, equivalence query;
       the span nests the teacher's extent evaluation under it *)
    let outcome =
      Xl_obs.Obs.span ~name:"lstar.round" (fun () ->
          close_and_make_consistent tbl;
          let hyp = conjecture tbl in
          tbl.stats.hypotheses <- tbl.stats.hypotheses + 1;
          tbl.stats.equivalence_queries <- tbl.stats.equivalence_queries + 1;
          match teacher.equivalence hyp with
          | None -> Ok (Dfa.minimize hyp)
          | Some ce -> Error ce)
    in
    match outcome with
    | Ok dfa ->
      Xl_obs.Obs.Histogram.observe h_table_rows (Vec.length tbl.s);
      (dfa, tbl.stats)
    | Error ce ->
      tbl.stats.counterexamples <- tbl.stats.counterexamples + 1;
      add_access tbl ce;
      loop (round + 1)
  in
  loop 1)
