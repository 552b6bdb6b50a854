(** The P-Learner's per-word reference resolver, kept as a test oracle
    for the node-keyed one in [Xl_core.Plearner].

    This is the resolver the node-keyed one replaced, unchanged but for
    its L* interface: every table is keyed by the encoded word, every
    cell is spelled and every rule is judged on the whole word, and each
    L* run gets a trie of its own.  [test_core]'s differential tests run
    both on the same tasks and require the same answers, Reduced
    counts, reuse counts, observer calls and genuine questions in the
    same order. *)

type config = Xl_core.Plearner.config = {
  r1 : bool;
  r2 : bool;
}

type r2_state =
  | Last_tag of string
  | Any_last
  | Off

(* The learner's tables are keyed by encoded word: the alphabet is fixed
   for the learner's lifetime, so word and path are interchangeable
   keys, and hashing a handful of ints is several times cheaper than
   hashing the same path's strings.  The hash covers the whole word —
   the polymorphic one stops after ~10 list elements, which degenerates
   on L*'s prefix-sharing words. *)
module Word_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = Stdlib.( = )
  let hash (w : int list) = List.fold_left (fun h x -> (h * 31) + x + 1) 17 w
end)

exception Restart

type t = {
  config : config;
  stats : Xl_core.Stats.t;
  on_auto : (rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit) option;
      (** observation hook: fires on every rule-auto-answered query (the
          fuzz harness checks R1 answers against the target language) *)
  r1_dfas : Xl_automata.Dfa.t list;
      (** the source schemas' path-language DFAs, each started at the
          state its [abs_prefix] reaches: R1 judges the relative word
          alone *)
  alphabet : Xl_automata.Alphabet.t;
  abs_prefix : string list;  (** tag path of the fragment's base node *)
  ask : string list -> bool;  (** the real teacher, one question *)
  ask_batch : string list list -> bool list;
      (** the real teacher, one batch: the genuine questions of a fill
          are deferred and asked through this in first-ask order *)
  answers_w : bool Word_tbl.t;
      (** every answer, keyed by encoded word; kept across restarts *)
  preloaded_w : unit Word_tbl.t;
      (** answers inherited from an earlier run ([known]) and not yet
          reused, for reuse counting *)
  counted : unit Word_tbl.t;  (** reduction-counted words *)
  canonical : bool Word_tbl.t;  (** Any_last: word prefix -> answer *)
  mutable known_positive : int list list;
  known_positive_set : unit Word_tbl.t;
      (** same contents as [known_positive]; membership tests against the
          list were O(|positives|) per query on the hot path *)
  mutable r2_state : r2_state;
  r2_last_id : int;
      (** the [Last_tag] tag as an alphabet id ([-2] if unknown), so the
          hot R2 test compares ints instead of decoding the word *)
}

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))
let prefix l = match l with [] -> [] | _ -> List.filteri (fun i _ -> i < List.length l - 1) l
let rec last_sym = function [] -> -1 | [ a ] -> a | _ :: rest -> last_sym rest

let create ?(config = Xl_core.Plearner.default_config) ?(known = []) ?on_auto ~ask_batch ~stats
    ~r1_dfas ~alphabet ~abs_prefix ~dropped_path ~ask () =
  let answers_w = Word_tbl.create 256 in
  let preloaded_w = Word_tbl.create 16 in
  (* import the earlier run's answers under word keys; paths outside the
     alphabet can never be queried, so dropping them loses nothing *)
  List.iter
    (fun (k, v) ->
      match Xl_automata.Alphabet.encode_opt alphabet k with
      | Some w ->
        Word_tbl.replace answers_w w v;
        Word_tbl.replace preloaded_w w ()
      | None -> ())
    known;
  let dropped = Xl_automata.Alphabet.encode_opt alphabet dropped_path in
  let known_positive_set = Word_tbl.create 16 in
  Option.iter
    (fun w ->
      Word_tbl.replace answers_w w true;
      Word_tbl.replace known_positive_set w ())
    dropped;
  {
    config;
    stats;
    on_auto;
    r1_dfas;
    alphabet;
    abs_prefix;
    ask;
    ask_batch;
    answers_w;
    preloaded_w;
    counted = Word_tbl.create 256;
    canonical = Word_tbl.create 64;
    known_positive = Option.to_list dropped;
    known_positive_set;
    r2_state =
      (if config.r2 then
         match last dropped_path with Some tag -> Last_tag tag | None -> Off
       else Off);
    r2_last_id =
      (match last dropped_path with
      | Some tag -> (
        match Xl_automata.Alphabet.find alphabet tag with
        | Some a -> a
        | None -> -2)
      | None -> -2);
  }

(* Does a relativized schema DFA accept the word?  Symbols interned
   after the DFA was built cannot be schema symbols (the alphabet is
   seeded before learning), so they step to the dead sink. *)
let dfa_admits (dfa : Xl_automata.Dfa.t) (w : int list) : bool =
  let asize = dfa.Xl_automata.Dfa.alphabet_size in
  let rec go q = function
    | [] -> dfa.Xl_automata.Dfa.finals.(q)
    | a :: rest -> a < asize && go (Xl_automata.Dfa.step dfa q a) rest
  in
  go dfa.Xl_automata.Dfa.start w

(* R1 applies when there is a schema and no schema admits the word *)
let r1_applicable t (word : int list) =
  t.r1_dfas <> [] && not (List.exists (fun dfa -> dfa_admits dfa word) t.r1_dfas)

(* (applicable, auto answer if used) *)
let r2_applicable t (word : int list) =
  match t.r2_state with
  | Off -> (false, false)
  | Last_tag _ -> (
    match word with
    | [] -> (true, false)  (* the base node itself is never in the extent *)
    | _ -> if last_sym word = t.r2_last_id then (false, false) else (true, false))
  | Any_last -> (
    match Word_tbl.find_opt t.canonical (prefix word) with
    | Some ans -> (true, ans)
    | None -> (false, false))

(* Resolve one query without the teacher: memoized answers, known
   positives and the rules, with the Reduced(R1,R2,Both) accounting.
   [None] means the word needs a genuine teacher question. *)
let resolve_auto (t : t) (word : int list) : bool option =
  match Word_tbl.find_opt t.answers_w word with
  | Some ans ->
    if
      Word_tbl.length t.preloaded_w > 0 (* don't hash against an empty table *)
      && Word_tbl.mem t.preloaded_w word
    then begin
      (* an answer from an earlier run replaces an interaction *)
      Word_tbl.remove t.preloaded_w word;
      t.stats.Xl_core.Stats.auto_known <- t.stats.Xl_core.Stats.auto_known + 1
    end;
    Some ans
  | None ->
    (* no known-positive check here: every known positive is written into
       [answers_w] the moment it is learned ([create], [record_genuine],
       [note_positive]), so known_positive ⊆ answers_w invariantly and a
       word that misses [answers_w] cannot be a known positive *)
    (* evaluate each rule's applicability once; both the answer and
       the independent Reduced(R1,R2,Both) accounting reuse it *)
    let r1a = r1_applicable t word in
    let r2a, r2_ans = r2_applicable t word in
    let r1 = t.config.r1 && r1a in
    let r2 = t.config.r2 && r2a in
    if r1 || r2 then begin
      if not (Word_tbl.mem t.counted word) then begin
        Word_tbl.replace t.counted word ();
        if r1a then t.stats.Xl_core.Stats.reduced_r1 <- t.stats.Xl_core.Stats.reduced_r1 + 1;
        if r2a then t.stats.Xl_core.Stats.reduced_r2 <- t.stats.Xl_core.Stats.reduced_r2 + 1;
        if r1a && r2a then
          t.stats.Xl_core.Stats.reduced_both <- t.stats.Xl_core.Stats.reduced_both + 1
      end;
      let ans = if r1 then false else r2_ans in
      (match t.on_auto with
      | Some f ->
        (* report the absolute path — R1 judged [abs_prefix @ s], and
           an anchored fragment's relative word is meaningless on its
           own to an observer *)
        f ~rule:(if r1 then `R1 else `R2)
          ~path:(t.abs_prefix @ Xl_automata.Alphabet.decode t.alphabet word)
          ~answer:ans
      | None -> ());
      (* R1 answers are schema-sound and may be memoized; R2 answers
         are assumptions and must stay revisable *)
      if r1 then Word_tbl.replace t.answers_w word ans;
      Some ans
    end
    else None

(* bookkeeping of a genuine teacher answer (after the ask) *)
let record_genuine (t : t) (word : int list) (ans : bool) : unit =
  Word_tbl.replace t.answers_w word ans;
  if ans then begin
    t.known_positive <- word :: t.known_positive;
    Word_tbl.replace t.known_positive_set word ()
  end;
  if t.r2_state = Any_last then Word_tbl.replace t.canonical (prefix word) ans

(** The membership oracle handed to L*: one fill's worth of distinct
    words, in the order L* first asks them, resolved in that order in
    one loop.  Words no rule or memo answers are genuine questions.

    Outside the Any_last state they are deferred into one teacher batch
    at the end.  Deferral is answer-preserving there because the words
    are distinct and no genuine answer can influence another word of the
    same batch: rule applicability and memo lookups depend only on the
    word, and the R2 state changes only between equivalence queries.
    Under Any_last a genuine answer seeds the canonical table consulted
    by later words, so each one is asked on the spot, one at a time. *)
let membership_batch (t : t) (words : int list list) : bool list =
  let results = Array.make (List.length words) false in
  let deferred = ref [] in
  List.iteri
    (fun i word ->
      match resolve_auto t word with
      | Some ans -> results.(i) <- ans
      | None ->
        t.stats.Xl_core.Stats.mq <- t.stats.Xl_core.Stats.mq + 1;
        if t.r2_state = Any_last then begin
          let ans = t.ask (Xl_automata.Alphabet.decode t.alphabet word) in
          record_genuine t word ans;
          results.(i) <- ans
        end
        else deferred := (i, word) :: !deferred)
    words;
  (match List.rev !deferred with
  | [] -> ()
  | defs ->
    let answers =
      t.ask_batch
        (List.map (fun (_, w) -> Xl_automata.Alphabet.decode t.alphabet w) defs)
    in
    if List.length answers <> List.length defs then
      invalid_arg "Plearner: teacher batch answered a different word count";
    List.iter2
      (fun (i, word) ans ->
        record_genuine t word ans;
        results.(i) <- ans)
      defs answers);
  Array.to_list results

let restart t =
  t.stats.Xl_core.Stats.restarts <- t.stats.Xl_core.Stats.restarts + 1;
  raise Restart

(** Record a positive counterexample path.  Raises {!Restart} when it
    invalidates the current R2 assumption (backtracking) or revises an
    answer L* has already been given. *)
let note_positive (t : t) (s : string list) : unit =
  (* counterexample paths always encode: the evaluation context interns
     every symbol of the store before learning starts *)
  let word = Xl_automata.Alphabet.encode t.alphabet s in
  let conflict = Word_tbl.find_opt t.answers_w word = Some false in
  Word_tbl.replace t.answers_w word true;
  if not (Word_tbl.mem t.known_positive_set word) then begin
    t.known_positive <- word :: t.known_positive;
    Word_tbl.replace t.known_positive_set word ()
  end;
  (match t.r2_state with
  | Last_tag t1 when last s <> Some t1 ->
    (* the "fixed last tag" heuristic failed: relax to Any_last and seed
       the canonical table with everything answered so far *)
    t.r2_state <- Any_last;
    Word_tbl.iter (fun w ans -> Word_tbl.replace t.canonical (prefix w) ans) t.answers_w;
    restart t
  | _ -> ());
  (* an answer L* has seen never changes within one L* run, so revising
     one restarts it: an earlier N on this path, or an Any_last prefix
     that answered N and now answers Y *)
  let revised =
    match t.r2_state with
    | Any_last ->
      let p = prefix word in
      let was = Word_tbl.find_opt t.canonical p in
      Word_tbl.replace t.canonical p true;
      was = Some false
    | Last_tag _ | Off -> false
  in
  if conflict || revised then restart t

(** Record a negative counterexample path.  Raises {!Restart} when it
    contradicts an Any_last auto-answer (R2 is then switched off). *)
let note_negative (t : t) (s : string list) : unit =
  let word = Xl_automata.Alphabet.encode t.alphabet s in
  Word_tbl.replace t.answers_w word false;
  if t.r2_state = Any_last && Word_tbl.find_opt t.canonical (prefix word) = Some true
  then begin
    t.r2_state <- Off;
    Word_tbl.reset t.canonical;
    restart t
  end

let is_known_positive t word = Word_tbl.mem t.known_positive_set word

(* the cell interface: spell every cell, answer the words *)
let membership_cells (t : t) (b : Xl_automata.Lstar.batch) : bool array =
  Array.of_list
    (membership_batch t
       (Array.to_list (Array.map (Xl_automata.Trie.symbols b.trie) b.nodes)))

let learn (t : t)
    ~(equivalence : Xl_automata.Dfa.t -> int list option) : Xl_automata.Dfa.t =
  let alphabet_size = Xl_automata.Alphabet.size t.alphabet in
  let teacher =
    { Xl_automata.Lstar.membership_batch = membership_cells t; equivalence }
  in
  let rec attempt n =
    if n > 20 then failwith "Plearner.learn: too many restarts";
    match
      Xl_automata.Lstar.learn ~init:t.known_positive ~trie:(Xl_automata.Trie.create ())
        ~alphabet_size teacher
    with
    | dfa, _ -> dfa
    | exception Restart -> attempt (n + 1)
  in
  attempt 1
