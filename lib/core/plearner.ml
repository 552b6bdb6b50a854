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
    recorded independently, giving the Reduced(R1,R2,Both) accounting. *)

type config = {
  r1 : bool;
  r2 : bool;
}

let default_config = { r1 = true; r2 = true }

type r2_state =
  | Last_tag of string
  | Any_last
  | Off

(* telemetry: how membership queries were discharged, across all tasks *)
let c_mq_auto = Xl_obs.Obs.Counter.make "mq_auto_answered"
let c_mq_user = Xl_obs.Obs.Counter.make "mq_user"
let c_mq_reused = Xl_obs.Obs.Counter.make "mq_reused"

(* int-word-keyed table, full-depth hash (see Lstar.Words for why the
   polymorphic hash is unusable on prefix-sharing words).  Bookkeeping
   private to one learner instance may key by the encoded word — the
   alphabet is fixed for the learner's lifetime, so word and path are
   interchangeable keys, and hashing a handful of ints is several times
   cheaper than hashing the same path's strings. *)
module Word_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = Stdlib.( = )
  let hash (w : int list) = List.fold_left (fun h x -> (h * 31) + x + 1) 17 w
end)

exception Restart

type t = {
  config : config;
  stats : Stats.t;
  on_auto : (rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit) option;
      (** observation hook: fires on every rule-auto-answered query (the
          fuzz harness checks R1 answers against the target language) *)
  schemas : Xl_schema.Schema_source.t list;
  cursors : Xl_schema.Schema_source.cursor list;
      (** [schemas] pre-walked to [abs_prefix]: every R1 test concerns
          the same absolute prefix followed by a short relative word, so
          the prefix is paid once here instead of per membership query *)
  r1_dfas : (Xl_automata.Dfa.t * int) list option;
      (** the schemas compiled to DFAs over [alphabet], each paired with
          the state its start reaches on [abs_prefix]: the cursor in
          int-only form.  Batched R1 answers whole fills by folding the
          transition arrays — no string hashing, no step memo.  [None]
          when any source lacks an exact DFA rendering (then the batch
          falls back to the cursor pass). *)
  alphabet : Xl_automata.Alphabet.t;
  abs_prefix : string list;  (** tag path of the fragment's base node *)
  ask : string list -> bool;  (** the real teacher *)
  ask_batch : (string list list -> bool list) option;
      (** the real teacher's batched form, when it has one; the genuine
          questions of a batch are deferred and asked through this in
          first-ask order *)
  answers_w : bool Word_tbl.t;
      (** every answer, keyed by encoded word; kept across restarts *)
  preloaded_w : unit Word_tbl.t;
      (** answers inherited from an earlier run ([known]) and not yet
          reused, for reuse counting *)
  counted : unit Word_tbl.t;  (** reduction-counted words *)
  canonical : bool Path_tbl.t;  (** Any_last: prefix -> answer *)
  mutable known_positive : string list list;
  known_positive_set : unit Path_tbl.t;
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

let create ?(config = default_config) ?(known = []) ?on_auto ?ask_batch ~stats
    ~schemas ~alphabet ~abs_prefix ~dropped_path ~ask () =
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
  let known_positive_set = Path_tbl.create 16 in
  Path_tbl.replace known_positive_set dropped_path ();
  let cursors =
    List.map
      (fun schema -> Xl_schema.Schema_source.cursor schema abs_prefix)
      schemas
  in
  let r1_dfas =
    (* DTD sources only: [Schema_paths.to_dfa] is state-for-state the
       stepper itself, so the fold answers exactly like the cursor.  The
       DataGuide's empty-path-at-root special case lives in its cursor,
       not its DFA, so it keeps the trie pass. *)
    let compile schema =
      match (schema : Xl_schema.Schema_source.t) with
      | Dtd_paths _ -> (
        match Xl_schema.Schema_source.to_dfa schema alphabet with
        | Some dfa ->
          let q0 =
            List.fold_left
              (fun q tag ->
                if q < 0 then q
                else
                  match Xl_automata.Alphabet.find alphabet tag with
                  | Some a when a < dfa.Xl_automata.Dfa.alphabet_size ->
                    Xl_automata.Dfa.step dfa q a
                  | _ -> -1 (* unknown symbol: the stepper's dead sink *))
              dfa.Xl_automata.Dfa.start abs_prefix
          in
          Some (dfa, q0)
        | None -> None)
      | Relax_ng _ | Data_guide _ -> None
    in
    match schemas with
    | [] -> None
    | _ ->
      let all = List.map compile schemas in
      if List.for_all Option.is_some all then Some (List.map Option.get all)
      else None
  in
  let t =
    {
      config;
      stats;
      on_auto;
      schemas;
      cursors;
      r1_dfas;
      alphabet;
      abs_prefix;
      ask;
      ask_batch;
      answers_w;
      preloaded_w;
      counted = Word_tbl.create 256;
      canonical = Path_tbl.create 64;
      known_positive = [ dropped_path ];
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
  in
  (match Xl_automata.Alphabet.encode_opt alphabet dropped_path with
  | Some w -> Word_tbl.replace t.answers_w w true
  | None -> ());
  t

let r1_applicable t s =
  match t.cursors with
  | [] -> false
  | cursors ->
    not
      (List.exists
         (fun cursor -> Xl_schema.Schema_source.cursor_admits cursor s)
         cursors)

(* (applicable, auto answer if used).  [word] is the encoded path; [s],
   when the caller already decoded it, spares the Any_last branch a
   decode — the two hot states need only the word's last symbol id. *)
let r2_applicable t ~(word : int list) ~(s : string list option) =
  match t.r2_state with
  | Off -> (false, false)
  | Last_tag _ -> (
    match word with
    | [] -> (true, false)  (* the base node itself is never in the extent *)
    | _ -> if last_sym word = t.r2_last_id then (false, false) else (true, false))
  | Any_last -> (
    let s =
      match s with Some p -> p | None -> Xl_automata.Alphabet.decode t.alphabet word
    in
    match Path_tbl.find_opt t.canonical (prefix s) with
    | Some ans -> (true, ans)
    | None -> (false, false))

(* Resolve one query without the teacher, given the word's (possibly
   precomputed) R1 applicability: memoized answers, known positives and
   the rules, with the Reduced(R1,R2,Both) accounting.  [None] means the
   word needs a genuine teacher question.

   Everything on the hit path is keyed by the encoded word — int-list
   hashes; [s] (the decoded path, when the caller has it anyway) is only
   consulted on the rare steps that need strings: the Any_last canonical
   lookup and the [on_auto] observer. *)
let resolve_auto (t : t) ~(word : int list) ~(s : string list option)
    ~(r1a : bool) : bool option =
  let path () =
    match s with Some p -> p | None -> Xl_automata.Alphabet.decode t.alphabet word
  in
  match Word_tbl.find_opt t.answers_w word with
  | Some ans ->
    if
      Word_tbl.length t.preloaded_w > 0 (* don't hash against an empty table *)
      && Word_tbl.mem t.preloaded_w word
    then begin
      (* an answer from an earlier run replaces an interaction *)
      Word_tbl.remove t.preloaded_w word;
      t.stats.Stats.auto_known <- t.stats.Stats.auto_known + 1;
      Xl_obs.Obs.Counter.incr c_mq_reused
    end;
    Some ans
  | None ->
    (* no known-positive check here: every known positive is written into
       [answers_w] the moment it is learned ([create], [record_genuine],
       [note_positive]), so known_positive ⊆ answers_w invariantly and a
       word that misses [answers_w] cannot be a known positive *)
    (* evaluate each rule's applicability once; both the answer and
       the independent Reduced(R1,R2,Both) accounting reuse it *)
    let r2a, r2_ans = r2_applicable t ~word ~s in
    let r1 = t.config.r1 && r1a in
    let r2 = t.config.r2 && r2a in
    if r1 || r2 then begin
      if not (Word_tbl.mem t.counted word) then begin
        Word_tbl.replace t.counted word ();
        if r1a then t.stats.Stats.reduced_r1 <- t.stats.Stats.reduced_r1 + 1;
        if r2a then t.stats.Stats.reduced_r2 <- t.stats.Stats.reduced_r2 + 1;
        if r1a && r2a then
          t.stats.Stats.reduced_both <- t.stats.Stats.reduced_both + 1
      end;
      let ans = if r1 then false else r2_ans in
      (match t.on_auto with
      | Some f ->
        (* report the absolute path — R1 judged [abs_prefix @ s], and
           an anchored fragment's relative word is meaningless on its
           own to an observer *)
        f ~rule:(if r1 then `R1 else `R2) ~path:(t.abs_prefix @ path ()) ~answer:ans
      | None -> ());
      Xl_obs.Obs.Counter.incr c_mq_auto;
      (* R1 answers are schema-sound and may be memoized; R2 answers
         are assumptions and must stay revisable *)
      if r1 then Word_tbl.replace t.answers_w word ans;
      Some ans
    end
    else None

(* bookkeeping of a genuine teacher answer (after the ask) *)
let record_genuine (t : t) ~(word : int list) (s : string list) (ans : bool) :
    unit =
  Word_tbl.replace t.answers_w word ans;
  if ans then begin
    t.known_positive <- s :: t.known_positive;
    Path_tbl.replace t.known_positive_set s ()
  end;
  if t.r2_state = Any_last then Path_tbl.replace t.canonical (prefix s) ans

(** The membership oracle handed to L*. *)
let membership (t : t) (word : int list) : bool =
  let s = Xl_automata.Alphabet.decode t.alphabet word in
  let r1a = r1_applicable t s in
  match resolve_auto t ~word ~s:(Some s) ~r1a with
  | Some ans -> ans
  | None ->
    t.stats.Stats.mq <- t.stats.Stats.mq + 1;
    Xl_obs.Obs.Counter.incr c_mq_user;
    let ans = t.ask s in
    record_genuine t ~word s ans;
    ans

(* Does the compiled schema DFA, pre-walked to state [q0], accept the
   relative word?  [-1] is the out-of-alphabet dead sink (symbols
   interned after compilation cannot be schema symbols — the alphabet is
   seeded before learning — so they step dead, like the stepper). *)
let dfa_admits (dfa : Xl_automata.Dfa.t) (q0 : int) (w : int list) : bool =
  let asize = dfa.Xl_automata.Dfa.alphabet_size in
  let rec go q = function
    | [] -> q >= 0 && dfa.Xl_automata.Dfa.finals.(q)
    | a :: rest ->
      q >= 0 && go (if a >= asize then -1 else Xl_automata.Dfa.step dfa q a) rest
  in
  go q0 w

(** The batched membership oracle: one fill's worth of distinct words,
    in the exact order the word-at-a-time sweep would first ask them.

    R1 admissibility for the whole batch is computed by one forward pass
    per schema cursor over the batch's shared prefix trie; every word is
    then resolved in order with exactly the sequential bookkeeping, and
    the genuine questions are deferred into one teacher batch at the end.

    Deferral is answer-preserving because the words are distinct and,
    outside the Any_last state, no genuine answer can influence another
    word of the same batch (rule applicability and memo lookups depend
    only on the word; R2 state changes only between equivalence queries).
    Under Any_last a genuine answer seeds the canonical table consulted
    by later words, so that state falls back to word-at-a-time order. *)
let membership_batch (t : t) (words : int list list) : bool list =
  match t.r2_state with
  | Any_last -> List.map (membership t) words
  | Last_tag _ | Off ->
    let n = List.length words in
    (* R1 for the batch: a word is R1-applicable when no schema admits
       it (same truth table as [r1_applicable]).  With compiled DFAs the
       answer is a fold over unboxed transition arrays; otherwise one
       cursor pass per schema over the batch's shared prefix trie.  No
       word is decoded unless it reaches the teacher. *)
    let r1a_arr = Array.make (max n 1) false in
    (match t.cursors, t.r1_dfas with
    | [], _ -> ()
    | _, Some dfas ->
      List.iteri
        (fun i w ->
          r1a_arr.(i) <-
            not (List.exists (fun (dfa, q0) -> dfa_admits dfa q0 w) dfas))
        words
    | cursors, None ->
      let trie = Xl_automata.Trie.create () in
      let terms = List.map (Xl_automata.Trie.add_word trie) words in
      let symbols =
        let arr = Array.make (Xl_automata.Trie.size trie) "" in
        for i = 1 to Array.length arr - 1 do
          arr.(i) <-
            Xl_automata.Alphabet.name t.alphabet (Xl_automata.Trie.symbol trie i)
        done;
        arr
      in
      Array.fill r1a_arr 0 n true;
      List.iter
        (fun cursor ->
          let admits =
            Xl_schema.Schema_source.cursor_admits_trie cursor trie ~symbols terms
          in
          List.iteri (fun i a -> if a then r1a_arr.(i) <- false) admits)
        cursors);
    let results = Array.make (max n 1) false in
    let deferred = ref [] in
    List.iteri
      (fun i word ->
        match resolve_auto t ~word ~s:None ~r1a:r1a_arr.(i) with
        | Some ans -> results.(i) <- ans
        | None ->
          t.stats.Stats.mq <- t.stats.Stats.mq + 1;
          Xl_obs.Obs.Counter.incr c_mq_user;
          deferred := (i, word) :: !deferred)
      words;
    (match List.rev !deferred with
    | [] -> ()
    | defs ->
      let defs =
        List.map
          (fun (i, w) -> (i, w, Xl_automata.Alphabet.decode t.alphabet w))
          defs
      in
      let paths = List.map (fun (_, _, s) -> s) defs in
      let answers =
        match t.ask_batch with
        | Some f -> f paths
        | None -> List.map t.ask paths
      in
      if List.length answers <> List.length paths then
        invalid_arg "Plearner: teacher batch answered a different word count";
      List.iter2
        (fun (i, word, s) ans ->
          record_genuine t ~word s ans;
          results.(i) <- ans)
        defs answers);
    List.filteri (fun i _ -> i < n) (Array.to_list results)

(** Record a positive counterexample path.  Raises {!Restart} when it
    invalidates the current R2 assumption (backtracking). *)
let note_positive (t : t) (s : string list) : unit =
  (* counterexample paths always encode: the evaluation context interns
     every symbol of the store before learning starts *)
  let word = Xl_automata.Alphabet.encode t.alphabet s in
  let conflict = Word_tbl.find_opt t.answers_w word = Some false in
  Word_tbl.replace t.answers_w word true;
  if not (Path_tbl.mem t.known_positive_set s) then begin
    t.known_positive <- s :: t.known_positive;
    Path_tbl.replace t.known_positive_set s ()
  end;
  (match t.r2_state with
  | Last_tag t1 when last s <> Some t1 ->
    (* the "fixed last tag" heuristic failed: relax to Any_last and seed
       the canonical table with everything answered so far *)
    t.r2_state <- Any_last;
    Word_tbl.iter
      (fun w ans ->
        Path_tbl.replace t.canonical
          (prefix (Xl_automata.Alphabet.decode t.alphabet w))
          ans)
      t.answers_w;
    t.stats.Stats.restarts <- t.stats.Stats.restarts + 1;
    raise Restart
  | _ -> ());
  if t.r2_state = Any_last then Path_tbl.replace t.canonical (prefix s) true;
  if conflict then begin
    (* an earlier N on this path was misattributed; restart with the
       corrected table *)
    t.stats.Stats.restarts <- t.stats.Stats.restarts + 1;
    raise Restart
  end

(** Record a negative counterexample path.  Raises {!Restart} when it
    contradicts an Any_last auto-answer (R2 is then switched off). *)
let note_negative (t : t) (s : string list) : unit =
  let record () =
    Word_tbl.replace t.answers_w (Xl_automata.Alphabet.encode t.alphabet s) false
  in
  (match t.r2_state with
  | Any_last when Path_tbl.find_opt t.canonical (prefix s) = Some true ->
    t.r2_state <- Off;
    Path_tbl.reset t.canonical;
    record ();
    t.stats.Stats.restarts <- t.stats.Stats.restarts + 1;
    raise Restart
  | _ -> ());
  record ()

let known_positive_paths t = t.known_positive

(** Run L* to convergence, restarting on R2 backtracks.  [equivalence]
    is the outer equivalence-query loop (extent comparison); it returns a
    counterexample *word* when the path hypothesis must change. *)
let learn (t : t)
    ~(equivalence : Xl_automata.Dfa.t -> int list option) : Xl_automata.Dfa.t =
  let alphabet_size = Xl_automata.Alphabet.size t.alphabet in
  let teacher =
    {
      Xl_automata.Lstar.membership = membership t;
      membership_batch = Some (membership_batch t);
      equivalence;
    }
  in
  let rec attempt n =
    if n > 20 then failwith "Plearner.learn: too many restarts";
    let init =
      List.filter_map
        (fun s -> Xl_automata.Alphabet.encode_opt t.alphabet s)
        t.known_positive
    in
    match Xl_automata.Lstar.learn ~init ~alphabet_size teacher with
    | dfa, _ -> dfa
    | exception Restart -> attempt (n + 1)
  in
  attempt 1
