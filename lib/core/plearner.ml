(** P-Learner: learns the fragment's path expression as a DFA over tag
    paths with Angluin's L*, with the interaction-reduction rules of
    Section 8 answering membership queries automatically:

    - R1: a query on a path the source schema cannot produce is answered
      N (Relax-NG filtering in the prototype; the DTD path language here);
    - R2: after the first positive example ending in tag t1, queries on
      paths ending in a different tag are answered N.  A positive
      counterexample ending in t2 ≠ t1 backtracks to the "any last tag"
      assumption (the last symbol is ignored and answers are keyed by the
      path prefix); a negative counterexample under that assumption turns
      R2 off.  Backtracking restarts L* with the genuine answers kept.

    For every auto-answered query the applicability of both rules is
    recorded independently, giving the Reduced(R1,R2,Both) accounting.

    The learner owns one prefix trie per task and hands it to every L*
    run, so a word is one node for the task's lifetime.  Everything the
    learner knows about a word is one byte on its node: its answer,
    whether it was inherited from an earlier run, whether it was counted
    in Reduced, whether it is a known positive, and — read as a prefix —
    the Any_last answer of the words one symbol longer.  L* hands over
    cells (node, row node, E index), and both rules answer a cell without
    its word: R1 from the row's state in each schema DFA, computed once
    per row, and a memo on (state, E index); R2 from the node's last
    symbol or its parent's byte.  A word is spelled only for the teacher
    or the [on_auto] observer. *)

type config = {
  r1 : bool;
  r2 : bool;
}

let default_config = { r1 = true; r2 = true }

type r2_state =
  | Last_tag of int
      (** the first positive example's last tag as an alphabet id, [-2]
          when the alphabet lacks it *)
  | Any_last
  | Off

(* telemetry: how membership queries were discharged, across all tasks *)
let c_mq_auto = Xl_obs.Obs.Counter.make "mq_auto_answered"
let c_mq_user = Xl_obs.Obs.Counter.make "mq_user"
let c_mq_reused = Xl_obs.Obs.Counter.make "mq_reused"
let c_mq_spelled = Xl_obs.Obs.Counter.make "mq_spelled"

exception Restart

(* The per-node byte.  Answers and Any_last answers are 0 (unknown),
   1 (N) or 2 (Y). *)
let answer_bits = 0b11
let preloaded = 0b100  (* inherited from an earlier run and not yet reused *)
let counted = 0b1000  (* counted in Reduced(R1,R2,Both) *)
let positive = 0b10000  (* dropped example, genuine Y or positive counterexample *)
let canon_shift = 5  (* Any_last: the answer of every word with this prefix *)

let code b = if b then 2 else 1

type t = {
  config : config;
  stats : Stats.t;
  on_auto : (rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit) option;
      (** observation hook: fires on every rule-auto-answered query (the
          fuzz harness checks R1 answers against the target language) *)
  r1 : Xl_automata.Dfa.t array;
      (** the source schemas' path-language DFAs, each started at the
          state its [abs_prefix] reaches: R1 judges the relative word
          alone *)
  alphabet : Xl_automata.Alphabet.t;
  abs_prefix : string list;  (** tag path of the fragment's base node *)
  ask : string list -> bool;  (** the real teacher, one question *)
  ask_batch : string list list -> bool list;
      (** the real teacher, one batch: the genuine questions of a fill
          are deferred and asked through this in first-ask order *)
  trie : Xl_automata.Trie.t;
      (** every word of the task: L*'s cells, the dropped example, known
          answers and counterexamples *)
  mutable flags : Bytes.t;  (** node -> its byte *)
  row_states : (int, int array) Hashtbl.t;
      (** row node -> its state in each R1 DFA ([-1] once a symbol
          outside the DFA's alphabet was read) *)
  mutable r1_memo : Bytes.t array array;
      (** DFA -> state -> E index -> 0 unknown, 1 rejects, 2 admits *)
  mutable memo_suffixes : int list array;  (** the E the memo's columns hold *)
  mutable known_positive : int list list;
  mutable r2_state : r2_state;
  mutable log : int array;
  mutable log_len : int;
      (** while Last_tag: answered nodes in first-answer order, the
          order Any_last is seeded from *)
}

let get t n = Char.code (Bytes.get t.flags n)
let set t n f = Bytes.set t.flags n (Char.chr f)

let ensure t =
  let n = Xl_automata.Trie.size t.trie and cap = Bytes.length t.flags in
  if n > cap then begin
    let more = max n (2 * cap) - cap in
    t.flags <- Bytes.extend t.flags 0 more;
    Bytes.fill t.flags cap more '\000'
  end

let node_of t word =
  let n = Xl_automata.Trie.add_word t.trie word in
  ensure t;
  n

let set_answer t n ans =
  let f = get t n in
  (match t.r2_state with
  | Last_tag _ when f land answer_bits = 0 ->
    if t.log_len = Array.length t.log then
      t.log <- Array.append t.log (Array.make (max 64 t.log_len) 0);
    t.log.(t.log_len) <- n;
    t.log_len <- t.log_len + 1
  | _ -> ());
  set t n (f land lnot answer_bits lor code ans)

(* Any_last keys a word on its prefix, the word without its last symbol
   (the empty word's prefix is itself) *)
let key t n = if n = Xl_automata.Trie.root then n else Xl_automata.Trie.parent t.trie n
let canon t n = (get t (key t n) lsr canon_shift) land answer_bits

let set_canon t n ans =
  let k = key t n in
  set t k (get t k land lnot (answer_bits lsl canon_shift) lor (code ans lsl canon_shift))

let fresh_memo r1 = Array.map (fun (d : Xl_automata.Dfa.t) -> Array.make d.states Bytes.empty) r1

let create ?(config = default_config) ?(known = []) ?on_auto ~ask_batch ~stats
    ~r1_dfas ~alphabet ~abs_prefix ~dropped_path ~ask () =
  let r1 = Array.of_list r1_dfas in
  let t =
    {
      config;
      stats;
      on_auto;
      r1;
      alphabet;
      abs_prefix;
      ask;
      ask_batch;
      trie = Xl_automata.Trie.create ();
      flags = Bytes.make 64 '\000';
      row_states = Hashtbl.create 64;
      r1_memo = fresh_memo r1;
      memo_suffixes = [||];
      known_positive = [];
      r2_state =
        (match List.rev dropped_path with
        | tag :: _ when config.r2 ->
          Last_tag (Option.value ~default:(-2) (Xl_automata.Alphabet.find alphabet tag))
        | _ -> Off);
      log = [||];
      log_len = 0;
    }
  in
  (* import the earlier run's answers; paths outside the alphabet can
     never be queried, so dropping them loses nothing *)
  List.iter
    (fun (k, v) ->
      match Xl_automata.Alphabet.encode_opt alphabet k with
      | Some w ->
        let n = node_of t w in
        set_answer t n v;
        set t n (get t n lor preloaded)
      | None -> ())
    known;
  Option.iter
    (fun w ->
      let n = node_of t w in
      set_answer t n true;
      set t n (get t n lor positive);
      t.known_positive <- [ w ])
    (Xl_automata.Alphabet.encode_opt alphabet dropped_path);
  t

let trie t = t.trie

(* A row's state in each R1 DFA, from its parent row's: a row's parent
   is an access word, itself a row.  Symbols interned after a DFA was
   built cannot be schema symbols (the alphabet is seeded before
   learning), so they lead to the dead state -1. *)
let rec row_state t node =
  match Hashtbl.find_opt t.row_states node with
  | Some qs -> qs
  | None ->
    let qs =
      if node = Xl_automata.Trie.root then
        Array.map (fun (d : Xl_automata.Dfa.t) -> d.start) t.r1
      else begin
        let ps = row_state t (Xl_automata.Trie.parent t.trie node) in
        let a = Xl_automata.Trie.symbol t.trie node in
        Array.mapi
          (fun k (d : Xl_automata.Dfa.t) ->
            let q = ps.(k) in
            if q < 0 || a >= d.alphabet_size then -1 else Xl_automata.Dfa.step d q a)
          t.r1
      end
    in
    Hashtbl.replace t.row_states node qs;
    qs

(* The memo's columns are E indices of one L* run.  E only grows within
   a run and its suffix lists stay the same values, so a batch whose
   suffixes extend the memo's (physically) keeps it; anything else is a
   new run and starts it afresh. *)
let sync_memo t (suffixes : int list array) =
  let old = t.memo_suffixes in
  let n = Array.length old in
  let rec same j = j >= n || (old.(j) == suffixes.(j) && same (j + 1)) in
  if n > Array.length suffixes || not (same 0) then
    t.r1_memo <- fresh_memo t.r1;
  t.memo_suffixes <- suffixes

(* does DFA [k], in state [q], accept suffix [col]? *)
let admits t k q col =
  q >= 0
  &&
  let by_state = t.r1_memo.(k) in
  let m = by_state.(q) in
  let v = if col < Bytes.length m then Char.code (Bytes.get m col) else 0 in
  if v <> 0 then v = 2
  else begin
    let d = t.r1.(k) in
    let rec go q = function
      | [] -> d.Xl_automata.Dfa.finals.(q)
      | a :: rest -> a < d.alphabet_size && go (Xl_automata.Dfa.step d q a) rest
    in
    let ok = go q t.memo_suffixes.(col) in
    let m =
      if col < Bytes.length m then m
      else begin
        let m' = Bytes.make (max (col + 1) (2 * Bytes.length m)) '\000' in
        Bytes.blit m 0 m' 0 (Bytes.length m);
        by_state.(q) <- m';
        m'
      end
    in
    Bytes.set m col (Char.chr (code ok));
    ok
  end

(* R1 applies when there is a schema and no schema admits the word *)
let r1_applicable t qs col =
  let n = Array.length t.r1 in
  let rec none k = k >= n || ((not (admits t k qs.(k) col)) && none (k + 1)) in
  n > 0 && none 0

(* 0 if R2 does not apply, else its answer's code *)
let r2_code t c =
  match t.r2_state with
  | Off -> 0
  | Last_tag a ->
    (* the root's symbol is -1, never a tag: the base node itself is
       never in the extent *)
    if Xl_automata.Trie.symbol t.trie c = a then 0 else 1
  | Any_last -> canon t c

let spell t c =
  Xl_obs.Obs.Counter.incr c_mq_spelled;
  Xl_automata.Trie.symbols t.trie c

(* bookkeeping of a genuine teacher answer (after the ask) *)
let record_genuine t c word ans =
  set_answer t c ans;
  if ans then begin
    t.known_positive <- word :: t.known_positive;
    set t c (get t c lor positive)
  end;
  match t.r2_state with Any_last -> set_canon t c ans | Last_tag _ | Off -> ()

(** The membership oracle handed to L*: one fill's worth of distinct
    cells, in the order L* first asks them, resolved in that order in
    one loop by the node's answer, R1 or R2.  Cells none of them answers
    are genuine questions.

    Outside the Any_last state they are deferred into one teacher batch
    at the end.  Deferral is answer-preserving there because the cells
    are distinct and no genuine answer can influence another cell of the
    same batch: rule applicability and answers depend only on the word,
    and the R2 state changes only between equivalence queries.  Under
    Any_last a genuine answer seeds the prefix answer consulted by later
    cells, so each one is asked on the spot, one at a time. *)
let membership_batch t (b : Xl_automata.Lstar.batch) : bool array =
  ensure t;
  sync_memo t b.suffixes;
  let n = Array.length b.nodes in
  let results = Array.make n false in
  let deferred = ref [] and autos = ref 0 in
  let row = ref (-1) and qs = ref [||] in
  for i = 0 to n - 1 do
    let c = b.nodes.(i) in
    let f = get t c in
    if f land answer_bits <> 0 then begin
      if f land preloaded <> 0 then begin
        (* an answer from an earlier run replaces an interaction *)
        set t c (f land lnot preloaded);
        t.stats.Stats.auto_known <- t.stats.Stats.auto_known + 1;
        Xl_obs.Obs.Counter.incr c_mq_reused
      end;
      results.(i) <- f land answer_bits = 2
    end
    else begin
      if b.rows.(i) <> !row then begin
        row := b.rows.(i);
        qs := row_state t !row
      end;
      (* each rule's applicability once; both the answer and the
         independent Reduced(R1,R2,Both) accounting reuse it *)
      let r1a = r1_applicable t !qs b.cols.(i) in
      let r2 = r2_code t c in
      let r2a = r2 <> 0 in
      let use_r1 = t.config.r1 && r1a and use_r2 = t.config.r2 && r2a in
      if use_r1 || use_r2 then begin
        if f land counted = 0 then begin
          set t c (f lor counted);
          if r1a then t.stats.Stats.reduced_r1 <- t.stats.Stats.reduced_r1 + 1;
          if r2a then t.stats.Stats.reduced_r2 <- t.stats.Stats.reduced_r2 + 1;
          if r1a && r2a then
            t.stats.Stats.reduced_both <- t.stats.Stats.reduced_both + 1
        end;
        let ans = (not use_r1) && r2 = 2 in
        (match t.on_auto with
        | Some observe ->
          (* report the absolute path — R1 judged [abs_prefix @ s], and
             an anchored fragment's relative word is meaningless on its
             own to an observer *)
          observe
            ~rule:(if use_r1 then `R1 else `R2)
            ~path:(t.abs_prefix @ Xl_automata.Alphabet.decode t.alphabet (spell t c))
            ~answer:ans
        | None -> ());
        incr autos;
        (* R1 answers are schema-sound and may be kept; R2 answers are
           assumptions and must stay revisable *)
        if use_r1 then set_answer t c false;
        results.(i) <- ans
      end
      else begin
        t.stats.Stats.mq <- t.stats.Stats.mq + 1;
        Xl_obs.Obs.Counter.incr c_mq_user;
        match t.r2_state with
        | Any_last ->
          let word = spell t c in
          let ans = t.ask (Xl_automata.Alphabet.decode t.alphabet word) in
          record_genuine t c word ans;
          results.(i) <- ans
        | Last_tag _ | Off -> deferred := (i, c) :: !deferred
      end
    end
  done;
  Xl_obs.Obs.Counter.add c_mq_auto !autos;
  (match List.rev !deferred with
  | [] -> ()
  | defs ->
    let words = List.map (fun (_, c) -> spell t c) defs in
    let answers =
      t.ask_batch (List.map (Xl_automata.Alphabet.decode t.alphabet) words)
    in
    if List.length answers <> List.length defs then
      invalid_arg "Plearner: teacher batch answered a different word count";
    List.iter2
      (fun ((i, c), word) ans ->
        record_genuine t c word ans;
        results.(i) <- ans)
      (List.combine defs words) answers);
  results

(* Any_last starts from everything answered so far: each answered word's
   answer becomes its prefix's.  Words under one prefix may disagree (an
   R1 N beside a genuine Y), and the last in this order wins: hash
   buckets ascending, latest first-answer first within a bucket — the
   order the learner's word-keyed answer table iterated in, so the
   interaction counts of a backtracking target are what they were.  The
   hash and bucket count are that table's: a fold over the word from 17,
   and 256 buckets doubled while the entries exceed twice their number. *)
let seed_canonical t =
  let n = t.log_len in
  let buckets = ref 256 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let rec hash c =
    if c = Xl_automata.Trie.root then 17
    else (hash (Xl_automata.Trie.parent t.trie c) * 31) + Xl_automata.Trie.symbol t.trie c + 1
  in
  let bucket = Array.init n (fun k -> hash t.log.(k) land (!buckets - 1)) in
  let order = Array.init n (fun k -> n - 1 - k) in
  Array.stable_sort (fun a b -> compare bucket.(a) bucket.(b)) order;
  Array.iter (fun k -> let c = t.log.(k) in set_canon t c (get t c land answer_bits = 2)) order;
  t.log <- [||];
  t.log_len <- 0

let restart t =
  t.stats.Stats.restarts <- t.stats.Stats.restarts + 1;
  raise Restart

(** Record a positive counterexample path.  Raises {!Restart} when it
    invalidates the current R2 assumption (backtracking) or revises an
    answer L* has already been given. *)
let note_positive t (s : string list) : unit =
  (* counterexample paths always encode: the evaluation context interns
     every symbol of the store before learning starts *)
  let word = Xl_automata.Alphabet.encode t.alphabet s in
  let c = node_of t word in
  let f = get t c in
  let conflict = f land answer_bits = 1 in
  set_answer t c true;
  if f land positive = 0 then begin
    t.known_positive <- word :: t.known_positive;
    set t c (get t c lor positive)
  end;
  (match t.r2_state with
  | Last_tag a when Xl_automata.Trie.symbol t.trie c <> a ->
    (* the "fixed last tag" heuristic failed: relax to Any_last and seed
       the prefix answers with everything answered so far *)
    t.r2_state <- Any_last;
    seed_canonical t;
    restart t
  | _ -> ());
  (* an answer L* has seen never changes within one L* run, so revising
     one restarts it: an earlier N on this path, or an Any_last prefix
     that answered N and now answers Y *)
  let revised =
    match t.r2_state with
    | Any_last ->
      let was = canon t c in
      set_canon t c true;
      was = 1
    | Last_tag _ | Off -> false
  in
  if conflict || revised then restart t

(** Record a negative counterexample path.  Raises {!Restart} when it
    contradicts an Any_last auto-answer (R2 is then switched off). *)
let note_negative t (s : string list) : unit =
  let c = node_of t (Xl_automata.Alphabet.encode t.alphabet s) in
  set_answer t c false;
  match t.r2_state with
  | Any_last when canon t c = 2 ->
    t.r2_state <- Off;
    for n = 0 to Bytes.length t.flags - 1 do
      set t n (get t n land lnot (answer_bits lsl canon_shift))
    done;
    restart t
  | Any_last | Last_tag _ | Off -> ()

let is_known_positive t word = get t (node_of t word) land positive <> 0

(** Run L* to convergence, restarting on R2 backtracks.  [equivalence]
    is the outer equivalence-query loop (extent comparison); it returns a
    counterexample *word* when the path hypothesis must change. *)
let learn t ~(equivalence : Xl_automata.Dfa.t -> int list option) : Xl_automata.Dfa.t =
  let alphabet_size = Xl_automata.Alphabet.size t.alphabet in
  let teacher =
    { Xl_automata.Lstar.membership_batch = membership_batch t; equivalence }
  in
  let rec attempt n =
    if n > 20 then failwith "Plearner.learn: too many restarts";
    match
      Xl_automata.Lstar.learn ~init:t.known_positive ~trie:t.trie ~alphabet_size teacher
    with
    | dfa, _ -> dfa
    | exception Restart -> attempt (n + 1)
  in
  attempt 1
