(** Angluin's L* algorithm (Angluin 1987), the learning core behind
    LEARN-X0 (paper Section 5).

    The teacher answers membership queries in batches and equivalence
    queries on hypothesis DFAs.  Every word the observation table holds
    — an access word, a one-symbol extension, either of them followed by
    a suffix of E — is a node of one prefix {!Trie}, and its answer and
    row live on that node.  So a teacher is asked about each distinct
    word at most once, which is what the paper counts as one (potential)
    interaction, and a word that is both in S and an extension has one
    row.

    Before every observation-table sweep the learner collects the
    unanswered words of the S rows into one batch and then those of the
    extension rows into a second, each deduplicated, in sweep order:
    rows in table order, suffixes in E order within a row. *)

type teacher = {
  membership_batch : int list list -> bool list;
      (** Answer many words at once; input words are distinct and must be
          answered in order. *)
  equivalence : Dfa.t -> int list option;
      (** [None] = hypothesis accepted; [Some w] = counterexample word *)
}

(* telemetry: rounds and final observation-table size, per learn call;
   batch counters record the fill traffic the teacher answered *)
let h_table_rows = Xl_obs.Obs.Histogram.make "lstar_table_rows"
let h_batch_size = Xl_obs.Obs.Histogram.make "lstar_batch_size"
let c_rounds = Xl_obs.Obs.Counter.make "lstar_rounds"
let c_mq_batched = Xl_obs.Obs.Counter.make "mq_batched"

module Rows = Hashtbl.Make (struct
  type t = bool array

  let equal = Stdlib.( = )
  let hash (r : bool array) = Array.fold_left (fun h b -> (h * 2) + Bool.to_int b) 1 r
end)

(* Growable vector: S and E only ever append, but the sweeps iterate them
   constantly — [xs <- xs @ [x]] made every append O(n) and table growth
   quadratic.  A vector appends in O(1) amortized and still iterates in
   insertion order. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length v = v.len
  let get v i = v.data.(i)

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
   alphabet-wide fanout; every other node has at most |E| children.  A
   row may be shorter than E (it was filled before a suffix was added);
   the next fill extends it, its old cells are answered facts. *)
type table = {
  alphabet_size : int;
  trie : Trie.t;
  s : int Vec.t;  (** access words, prefix-closed, ε first *)
  s_index : (int, int) Hashtbl.t;  (** S node -> its index in [s] *)
  e : int list Vec.t;  (** distinguishing suffixes, ε first *)
  exts : int Vec.t;
  mutable answer : Bytes.t;  (** node -> [unknown], [queued], [no] or [yes] *)
  rows : (int, bool array) Hashtbl.t;  (** S or extension node -> its row *)
  teacher : teacher;
  stats : stats;
}

let unknown = '\000'
let queued = '\001'  (* in the batch being collected *)
let no = '\002'
let yes = '\003'

let child tbl node a =
  let c = Trie.child tbl.trie node a in
  let cap = Bytes.length tbl.answer in
  if c >= cap then begin
    tbl.answer <- Bytes.extend tbl.answer 0 cap;
    Bytes.fill tbl.answer cap cap unknown
  end;
  c

(* the node of [node]'s word followed by [a]; [i] is [node]'s index in
   S, or -1 *)
let step tbl node i a =
  if i >= 0 && a < tbl.alphabet_size then Vec.get tbl.exts ((i * tbl.alphabet_size) + a)
  else child tbl node a

(* [node] joins S unless it is there; its index in S *)
let add_s tbl node =
  match Hashtbl.find_opt tbl.s_index node with
  | Some i -> i
  | None ->
    let i = Vec.length tbl.s in
    Hashtbl.replace tbl.s_index node i;
    Vec.push tbl.s node;
    for a = 0 to tbl.alphabet_size - 1 do
      Vec.push tbl.exts (child tbl node a)
    done;
    i

(* extend S with w and all its prefixes (keeps S prefix-closed) *)
let add_access tbl w =
  ignore
    (List.fold_left
       (fun (node, i) a ->
         let c = step tbl node i a in
         (c, add_s tbl c))
       (Trie.root, 0) w)

(* The rows of [nodes], in order, completed through one teacher batch:
   the cells a row lacks, in row order and E order, each unanswered node
   queued at its first occurrence. *)
let fill tbl (nodes : int Vec.t) : bool array array =
  let ncols = Vec.length tbl.e in
  let rows = Array.make (Vec.length nodes) [||] in
  let short = ref [] and pending = ref [] and npend = ref 0 in
  for r = 0 to Vec.length nodes - 1 do
    let node = Vec.get nodes r in
    rows.(r) <- Option.value ~default:[||] (Hashtbl.find_opt tbl.rows node);
    let from = Array.length rows.(r) in
    if from < ncols then begin
      let i = Option.value ~default:(-1) (Hashtbl.find_opt tbl.s_index node) in
      let cells =
        Array.init (ncols - from) (fun j ->
            match Vec.get tbl.e (from + j) with
            | [] -> node
            | a :: e -> List.fold_left (fun n a -> child tbl n a) (step tbl node i a) e)
      in
      (* a queued word is spelled as the row's word followed by the
         suffix, which it shares with E *)
      let word = lazy (Trie.symbols tbl.trie node) in
      Array.iteri
        (fun j c ->
          if Bytes.get tbl.answer c = unknown then begin
            Bytes.set tbl.answer c queued;
            pending := (c, Lazy.force word @ Vec.get tbl.e (from + j)) :: !pending;
            incr npend
          end)
        cells;
      short := (r, cells) :: !short
    end
  done;
  if !npend > 0 then begin
    let pending = List.rev !pending in
    let answers = tbl.teacher.membership_batch (List.map snd pending) in
    if List.length answers <> !npend then
      invalid_arg "Lstar: membership_batch answered a different word count";
    List.iter2
      (fun (c, _) b -> Bytes.set tbl.answer c (if b then yes else no))
      pending answers;
    tbl.stats.membership_queries <- tbl.stats.membership_queries + !npend;
    Xl_obs.Obs.Counter.add c_mq_batched !npend;
    Xl_obs.Obs.Histogram.observe h_batch_size !npend
  end;
  List.iter
    (fun (r, cells) ->
      let from = Array.length rows.(r) in
      let row = Array.make ncols false in
      Array.blit rows.(r) 0 row 0 from;
      Array.iteri (fun j c -> row.(from + j) <- Bytes.get tbl.answer c = yes) cells;
      Hashtbl.replace tbl.rows (Vec.get nodes r) row;
      rows.(r) <- row)
    !short;
  rows

(* Fill, close and make consistent; the rows of S and of the extensions
   once the table is both *)
let rec close_and_make_consistent tbl =
  (* the teacher answers the whole fill up front: S rows first, then
     the extension rows *)
  let s_rows = fill tbl tbl.s in
  let ext_rows = fill tbl tbl.exts in
  let ns = Array.length s_rows and nx = Array.length ext_rows in
  (* closedness: every one-symbol extension's row appears among S rows *)
  let s_row_set = Rows.create ns in
  Array.iter (fun r -> Rows.replace s_row_set r ()) s_rows;
  let unclosed = ref (-1) in
  (try
     for i = 0 to nx - 1 do
       if not (Rows.mem s_row_set ext_rows.(i)) then begin
         unclosed := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !unclosed >= 0 then begin
    ignore (add_s tbl (Vec.get tbl.exts !unclosed));
    close_and_make_consistent tbl
  end
  else begin
    (* consistency: equal rows must stay equal under every extension;
       word i's a-extension row is ext_rows index i*A + a *)
    let conflict = ref None in
    (try
       for i1 = 0 to ns - 1 do
         for i2 = i1 + 1 to ns - 1 do
           if s_rows.(i1) = s_rows.(i2) then
             for a = 0 to tbl.alphabet_size - 1 do
               let r1 = ext_rows.((i1 * tbl.alphabet_size) + a)
               and r2 = ext_rows.((i2 * tbl.alphabet_size) + a) in
               if r1 <> r2 then begin
                 (* find the separating suffix *)
                 let rec sep j = if r1.(j) <> r2.(j) then j else sep (j + 1) in
                 conflict := Some (a :: Vec.get tbl.e (sep 0));
                 raise Exit
               end
             done
         done
       done
     with Exit -> ());
    match !conflict with
    | Some new_e ->
      if not (Vec.mem tbl.e new_e) then
        (* rows are now short by one column; the next fill extends them *)
        Vec.push tbl.e new_e;
      close_and_make_consistent tbl
    | None -> (s_rows, ext_rows)
  end

let conjecture tbl (s_rows, ext_rows) : Dfa.t =
  (* distinct rows, in first-occurrence order, become states *)
  let index = Rows.create 16 in
  let states = ref [] in
  Array.iteri
    (fun i r ->
      if not (Rows.mem index r) then begin
        Rows.replace index r (Rows.length index);
        states := (r, i) :: !states
      end)
    s_rows;
  let states = List.rev !states in
  let n = List.length states in
  let index_of r =
    match Rows.find_opt index r with
    | Some i -> i
    | None -> invalid_arg "Lstar.conjecture: row not found (table not closed)"
  in
  let start = index_of s_rows.(0) in
  let finals = Array.make n false in
  let delta = Array.init n (fun _ -> Array.make tbl.alphabet_size 0) in
  List.iteri
    (fun q (r, i) ->
      (* E starts with ε: column 0 is the access word's own answer *)
      finals.(q) <- r.(0);
      for a = 0 to tbl.alphabet_size - 1 do
        delta.(q).(a) <- index_of ext_rows.((i * tbl.alphabet_size) + a)
      done)
    states;
  Dfa.create ~alphabet_size:tbl.alphabet_size ~states:n ~start ~finals ~delta

(** Run L*.  [init] words are seeded into the access set before the first
    hypothesis — the paper seeds [path(e)] of the dropped example, which
    spares the teacher the cold-start round of equivalence queries.
    [max_rounds] bounds the equivalence-query loop as a safety net. *)
let learn ?(init = []) ?(max_rounds = 200) ~alphabet_size (teacher : teacher) :
    Dfa.t * stats =
  Xl_obs.Obs.span ~name:"lstar.learn" (fun () ->
  let tbl =
    {
      alphabet_size;
      trie = Trie.create ();
      s = Vec.create ();
      s_index = Hashtbl.create 64;
      e = Vec.create ();
      exts = Vec.create ();
      answer = Bytes.make 64 unknown;
      rows = Hashtbl.create 256;
      teacher;
      stats = fresh_stats ();
    }
  in
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
          let hyp = conjecture tbl (close_and_make_consistent tbl) in
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
