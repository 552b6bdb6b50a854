(* Unit and property tests for the automata substrate (xl_automata),
   including Angluin's L*. *)

open Xl_automata

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int

(* ---------- Alphabet ------------------------------------------------------ *)

let test_alphabet () =
  let a = Alphabet.create () in
  let i1 = Alphabet.intern a "site" in
  let i2 = Alphabet.intern a "item" in
  check cint "distinct ids" 1 i2;
  check cint "idempotent intern" i1 (Alphabet.intern a "site");
  check cbool "name roundtrip" true (Alphabet.name a i2 = "item");
  check cbool "find" true (Alphabet.find a "item" = Some i2);
  check cbool "find missing" true (Alphabet.find a "nope" = None);
  check cbool "encode/decode" true
    (Alphabet.decode a (Alphabet.encode a [ "site"; "item" ]) = [ "site"; "item" ]);
  check cbool "encode_opt missing" true (Alphabet.encode_opt a [ "nope" ] = None)

(* ---------- Regex / DFA ---------------------------------------------------- *)

let k = 4

(* the running path language: 0 1 (2|3) over a 4-symbol alphabet *)
let sample_regex = Regex.(seq [ Sym 0; Sym 1; Alt (Sym 2, Sym 3) ])
let sample_dfa () = Regex.to_dfa ~alphabet_size:k sample_regex

let test_regex_matching () =
  let d = sample_dfa () in
  check cbool "accepts 012" true (Dfa.accepts d [ 0; 1; 2 ]);
  check cbool "accepts 013" true (Dfa.accepts d [ 0; 1; 3 ]);
  check cbool "rejects 01" false (Dfa.accepts d [ 0; 1 ]);
  check cbool "rejects 0123" false (Dfa.accepts d [ 0; 1; 2; 3 ]);
  check cbool "rejects empty" false (Dfa.accepts d [])

let test_star_any () =
  let d = Regex.to_dfa ~alphabet_size:k Regex.(Seq (Star Any, Sym 2)) in
  check cbool "ends with 2" true (Dfa.accepts d [ 3; 1; 0; 2 ]);
  check cbool "just 2" true (Dfa.accepts d [ 2 ]);
  check cbool "not ending with 2" false (Dfa.accepts d [ 2; 3 ])

let test_dfa_ops () =
  let d = sample_dfa () in
  let comp = Dfa.complement d in
  check cbool "complement flips" true (Dfa.accepts comp [ 0 ] && not (Dfa.accepts comp [ 0; 1; 2 ]));
  let inter = Dfa.intersection d (Regex.to_dfa ~alphabet_size:k Regex.(seq [ Sym 0; Sym 1; Sym 2 ])) in
  check cbool "intersection" true (Dfa.accepts inter [ 0; 1; 2 ] && not (Dfa.accepts inter [ 0; 1; 3 ]));
  let diff = Dfa.difference d (Regex.to_dfa ~alphabet_size:k Regex.(seq [ Sym 0; Sym 1; Sym 2 ])) in
  check cbool "difference" true (Dfa.accepts diff [ 0; 1; 3 ] && not (Dfa.accepts diff [ 0; 1; 2 ]))

let test_shortest_and_empty () =
  let d = sample_dfa () in
  check cbool "shortest accepted has length 3" true
    (match Dfa.shortest_accepted d with Some w -> List.length w = 3 | None -> false);
  check cbool "empty language" true (Dfa.is_empty (Dfa.empty ~alphabet_size:k));
  check cbool "universal accepts empty word" true
    (Dfa.accepts (Dfa.universal ~alphabet_size:k) [])

let test_equivalence_witness () =
  let d1 = sample_dfa () in
  let d2 = Regex.to_dfa ~alphabet_size:k Regex.(seq [ Sym 0; Sym 1; Sym 2 ]) in
  (match Dfa.equivalent d1 d2 with
  | Ok () -> Alcotest.fail "should differ"
  | Error w ->
    check cbool "witness separates" true (Dfa.accepts d1 w <> Dfa.accepts d2 w));
  check cbool "self equivalence" true (Dfa.equivalent d1 d1 = Ok ())

let test_minimize () =
  let d = sample_dfa () in
  let m = Dfa.minimize d in
  check cbool "language preserved" true (Dfa.equivalent d m = Ok ());
  check cbool "no larger" true (Dfa.state_count m <= Dfa.state_count d);
  (* minimal DFA for 01(2|3): q0 q1 q2 accept + sink = 5 states *)
  check cint "minimal size" 5 (Dfa.state_count m)

let test_with_start_and_extend () =
  let d = Dfa.minimize (sample_dfa ()) in
  let q1 = Dfa.step d d.Dfa.start 0 in
  let suffix = Dfa.with_start d q1 in
  check cbool "left quotient" true (Dfa.accepts suffix [ 1; 2 ] && not (Dfa.accepts suffix [ 0; 1; 2 ]));
  let wide = Dfa.extend_alphabet d ~alphabet_size:(k + 3) in
  check cbool "old words unchanged" true (Dfa.accepts wide [ 0; 1; 2 ]);
  check cbool "new symbols rejected" false (Dfa.accepts wide [ 0; 1; 5 ])

let test_accepted_up_to () =
  let d = sample_dfa () in
  check cint "exactly two words of length <= 3" 2 (List.length (Dfa.accepted_up_to d 3))

(* ---------- DFA -> regex (state elimination) -------------------------------- *)

let test_of_dfa_roundtrip () =
  let d = Dfa.minimize (sample_dfa ()) in
  let r = Regex.of_dfa d in
  let d2 = Regex.to_dfa ~alphabet_size:k r in
  check cbool "language preserved by extraction" true (Dfa.equivalent d d2 = Ok ())

let test_regex_print () =
  let names = [| "a"; "b"; "c"; "d" |] in
  check Alcotest.string "pretty" "a/b/(c|d)"
    (Regex.to_string ~sep:"/" ~name:(fun i -> names.(i)) sample_regex)

(* ---------- NFA -------------------------------------------------------------- *)

let test_nfa_direct () =
  let n = Nfa.create ~alphabet_size:2 ~states:3 ~start:0 ~finals:[ 2 ] in
  Nfa.add_transition n 0 0 1;
  Nfa.add_epsilon n 1 2;
  check cbool "nfa accepts via epsilon" true (Nfa.accepts n [ 0 ]);
  check cbool "nfa rejects" false (Nfa.accepts n [ 1 ]);
  let d = Nfa.to_dfa n in
  check cbool "determinized agrees" true (Dfa.accepts d [ 0 ] && not (Dfa.accepts d [ 1 ]))

(* ---------- L* ---------------------------------------------------------------- *)

(* answers each cell by spelling its word from the trie, and checks that
   the word is the cell's row's followed by its suffix *)
let exact_teacher ?(asked = ref []) target =
  {
    Lstar.membership_batch =
      (fun (b : Lstar.batch) ->
        Array.mapi
          (fun i node ->
            let w = Trie.symbols b.trie node in
            if w <> Trie.symbols b.trie b.rows.(i) @ b.suffixes.(b.cols.(i)) then
              Alcotest.failf "cell %d: node is not row . suffix" i;
            asked := w :: !asked;
            Dfa.accepts target w)
          b.nodes);
    equivalence =
      (fun h -> match Dfa.equivalent h target with Ok () -> None | Error w -> Some w);
  }

let test_lstar_learns_sample () =
  let target = Dfa.minimize (sample_dfa ()) in
  let asked = ref [] in
  let learned, stats = Lstar.learn ~trie:(Trie.create ()) ~alphabet_size:k (exact_teacher ~asked target) in
  check cbool "language learned exactly" true (Dfa.equivalent learned target = Ok ());
  check cbool "used some membership queries" true (stats.Lstar.membership_queries > 0);
  (* every word reaches the teacher once, in some batch *)
  check Alcotest.int "one count per word asked" (List.length !asked)
    stats.Lstar.membership_queries;
  check Alcotest.int "no word asked twice"
    (List.length (List.sort_uniq compare !asked))
    (List.length !asked)

let test_lstar_with_seed () =
  let target = Dfa.minimize (sample_dfa ()) in
  let learned, _ =
    Lstar.learn ~init:[ [ 0; 1; 2 ] ] ~trie:(Trie.create ()) ~alphabet_size:k
      (exact_teacher target)
  in
  check cbool "seeded learning converges" true (Dfa.equivalent learned target = Ok ())

let test_lstar_empty_and_universal () =
  let empty = Dfa.empty ~alphabet_size:2 in
  let learned, _ = Lstar.learn ~trie:(Trie.create ()) ~alphabet_size:2 (exact_teacher empty) in
  check cbool "learns the empty language" true (Dfa.equivalent learned empty = Ok ());
  let uni = Dfa.universal ~alphabet_size:2 in
  let learned, _ = Lstar.learn ~trie:(Trie.create ()) ~alphabet_size:2 (exact_teacher uni) in
  check cbool "learns the universal language" true (Dfa.equivalent learned uni = Ok ())

(* random regex generator for property tests *)
let gen_regex =
  let open QCheck2.Gen in
  fix
    (fun self depth ->
      if depth = 0 then map (fun s -> Regex.Sym s) (0 -- (k - 1))
      else
        frequency
          [
            (3, map (fun s -> Regex.Sym s) (0 -- (k - 1)));
            (1, pure Regex.Eps);
            (2, map2 (fun a b -> Regex.Seq (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Regex.Alt (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> Regex.Star a) (self (depth - 1)));
          ])
    3

let prop_lstar_learns_random_regex =
  QCheck2.Test.make ~name:"L* learns random regular languages exactly" ~count:40
    gen_regex (fun r ->
      let target = Dfa.minimize (Regex.to_dfa ~alphabet_size:k r) in
      let learned, _ =
        Lstar.learn ~trie:(Trie.create ()) ~alphabet_size:k (exact_teacher target)
      in
      Dfa.equivalent learned target = Ok ())

let prop_of_dfa_roundtrip =
  QCheck2.Test.make ~name:"DFA -> regex -> DFA preserves the language" ~count:60
    gen_regex (fun r ->
      let d = Dfa.minimize (Regex.to_dfa ~alphabet_size:k r) in
      let d2 = Regex.to_dfa ~alphabet_size:k (Regex.of_dfa d) in
      Dfa.equivalent d d2 = Ok ())

let prop_minimize_preserves =
  QCheck2.Test.make ~name:"minimization preserves the language" ~count:60 gen_regex
    (fun r ->
      let d = Regex.to_dfa ~alphabet_size:k r in
      Dfa.equivalent d (Dfa.minimize d) = Ok ())

let prop_product_correct =
  QCheck2.Test.make ~name:"intersection agrees pointwise" ~count:40
    QCheck2.Gen.(triple gen_regex gen_regex (list_size (0 -- 5) (0 -- (k - 1))))
    (fun (r1, r2, w) ->
      let d1 = Regex.to_dfa ~alphabet_size:k r1 in
      let d2 = Regex.to_dfa ~alphabet_size:k r2 in
      Dfa.accepts (Dfa.intersection d1 d2) w = (Dfa.accepts d1 w && Dfa.accepts d2 w))

(* ---------- reference product and minimizer ------------------------------ *)

(* A plain construction kept as the oracle for [Dfa]: every state pair
   of the product, and Moore refinement hashing an [Array.to_list]
   signature per state in every round.  The differential properties below require the same
   automaton, state for state, from both. *)
module Ref_dfa = struct
  open Dfa

  let product f a b =
    if a.alphabet_size <> b.alphabet_size then
      invalid_arg "Dfa.product: alphabet mismatch";
    let k = a.alphabet_size in
    let encode qa qb = (qa * b.states) + qb in
    let n = a.states * b.states in
    let finals = Array.make n false in
    let delta = Array.init n (fun _ -> Array.make k 0) in
    for qa = 0 to a.states - 1 do
      for qb = 0 to b.states - 1 do
        let q = encode qa qb in
        finals.(q) <- f a.finals.(qa) b.finals.(qb);
        for s = 0 to k - 1 do
          delta.(q).(s) <- encode a.delta.(qa).(s) b.delta.(qb).(s)
        done
      done
    done;
    { alphabet_size = k; states = n; start = encode a.start b.start; finals; delta }

  let intersection = product ( && )
  let symmetric_difference = product (fun x y -> x <> y)

  let equivalent a b =
    match shortest_accepted (symmetric_difference a b) with None -> Ok () | Some w -> Error w

  let minimize t =
    (* reachable states *)
    let reach = Array.make t.states false in
    let rec dfs q =
      if not reach.(q) then begin
        reach.(q) <- true;
        Array.iter dfs t.delta.(q)
      end
    in
    dfs t.start;
    let reach_states = ref [] in
    for q = t.states - 1 downto 0 do
      if reach.(q) then reach_states := q :: !reach_states
    done;
    let states = !reach_states in
    (* partition ids *)
    let cls = Array.make t.states 0 in
    List.iter (fun q -> cls.(q) <- (if t.finals.(q) then 1 else 0)) states;
    let changed = ref true in
    while !changed do
      changed := false;
      (* signature = (class, classes of successors) *)
      let sigs = Hashtbl.create 64 in
      let next_cls = Array.make t.states 0 in
      let counter = ref 0 in
      List.iter
        (fun q ->
          let s = (cls.(q), Array.to_list (Array.map (fun q' -> cls.(q')) t.delta.(q))) in
          let c =
            match Hashtbl.find_opt sigs s with
            | Some c -> c
            | None ->
              let c = !counter in
              incr counter;
              Hashtbl.replace sigs s c;
              c
          in
          next_cls.(q) <- c)
        states;
      let distinct_before =
        let seen = Hashtbl.create 16 in
        List.iter (fun q -> Hashtbl.replace seen cls.(q) ()) states;
        Hashtbl.length seen
      in
      if !counter <> distinct_before then changed := true;
      List.iter (fun q -> cls.(q) <- next_cls.(q)) states
    done;
    let class_count =
      let seen = Hashtbl.create 16 in
      List.iter (fun q -> Hashtbl.replace seen cls.(q) ()) states;
      Hashtbl.length seen
    in
    (* renumber classes densely in order of first occurrence *)
    let renum = Hashtbl.create 16 in
    let next = ref 0 in
    List.iter
      (fun q ->
        if not (Hashtbl.mem renum cls.(q)) then begin
          Hashtbl.replace renum cls.(q) !next;
          incr next
        end)
      states;
    let cid q = Hashtbl.find renum cls.(q) in
    let finals = Array.make class_count false in
    let delta = Array.init class_count (fun _ -> Array.make t.alphabet_size 0) in
    List.iter
      (fun q ->
        finals.(cid q) <- t.finals.(q);
        for a = 0 to t.alphabet_size - 1 do
          delta.(cid q).(a) <- cid t.delta.(q).(a)
        done)
      states;
    { alphabet_size = t.alphabet_size; states = class_count; start = cid t.start; finals; delta }
end

(* a random DFA over [k] symbols with 1..7 states, unreachable states
   included *)
let gen_dfa =
  let open QCheck2.Gen in
  1 -- 7 >>= fun n ->
  map3
    (fun start finals delta ->
      Dfa.create ~alphabet_size:k ~states:n ~start ~finals:(Array.of_list finals)
        ~delta:(Array.of_list (List.map Array.of_list delta)))
    (0 -- (n - 1))
    (list_repeat n bool)
    (list_repeat n (list_repeat k (0 -- (n - 1))))

let prop_minimize_matches_reference =
  QCheck2.Test.make ~name:"minimize matches the reference state for state" ~count:300 gen_dfa
    (fun d -> Dfa.minimize d = Ref_dfa.minimize d)

let prop_product_matches_reference =
  QCheck2.Test.make
    ~name:"minimize (intersection a b) and equivalent match the full product" ~count:300
    QCheck2.Gen.(pair gen_dfa gen_dfa)
    (fun (a, b) ->
      Dfa.minimize (Dfa.intersection a b) = Ref_dfa.minimize (Ref_dfa.intersection a b)
      && Dfa.equivalent a b = Ref_dfa.equivalent a b
      && Dfa.equivalent (Dfa.minimize a) a = Ok ())

(* ---------- L* against the bool-array table ------------------------------ *)

type event =
  | Batch of int list array * int array * int array * int array
  | Hypothesis of Dfa.t

(* An exact teacher that logs every batch and every hypothesis.  Its
   counterexample is the last word of length at most 5 in the symmetric
   difference, not the shortest: long counterexamples put many prefixes
   into S, which is what makes tables inconsistent. *)
let recording_teacher target log =
  {
    Lstar.membership_batch =
      (fun (b : Lstar.batch) ->
        log := Batch (b.suffixes, b.nodes, b.rows, b.cols) :: !log;
        Array.map (fun node -> Dfa.accepts target (Trie.symbols b.trie node)) b.nodes);
    equivalence =
      (fun h ->
        log := Hypothesis h :: !log;
        match List.rev (Dfa.accepted_up_to (Dfa.symmetric_difference h target) 5) with
        | w :: _ -> Some w
        | [] -> (match Dfa.equivalent h target with Ok () -> None | Error w -> Some w));
  }

let prop_lstar_matches_reference =
  QCheck2.Test.make ~name:"L* matches the bool-array table batch for batch" ~count:200
    QCheck2.Gen.(
      triple gen_regex gen_regex (list_size (0 -- 2) (list_size (0 -- 4) (0 -- (k - 1)))))
    (fun (r1, r2, init) ->
      let r = Regex.Alt (Regex.Seq (r1, Regex.Star r2), Regex.Seq (r2, r1)) in
      let target = Dfa.minimize (Regex.to_dfa ~alphabet_size:k r) in
      let log = ref [] and ref_log = ref [] in
      let learned, stats =
        Lstar.learn ~init ~trie:(Trie.create ()) ~alphabet_size:k (recording_teacher target log)
      in
      let ref_learned, ref_stats =
        Ref_lstar.learn ~init ~trie:(Trie.create ()) ~alphabet_size:k
          (recording_teacher target ref_log)
      in
      !log = !ref_log && learned = ref_learned && stats = ref_stats)

(* ---------- Batched membership ------------------------------------------ *)

(* An observation-table-shaped batch: S is every word over {0..3} up to
   length 4 (prefix-closed, like L*'s row labels), E a small suffix set,
   the batch S x E.  The one DFA pass over the batch's prefix trie must
   answer exactly like one automaton walk per word, and the trie must
   share prefixes: fewer nodes than the per-word symbol steps. *)
let test_accepts_batch () =
  let dfa =
    Regex.to_dfa ~alphabet_size:8
      Regex.(seq [ Sym 0; Star (alt [ Sym 1; Sym 2; Sym 3 ]); Sym 4 ])
  in
  let s_rows =
    let rec grow acc frontier k =
      if k = 0 then acc
      else
        let next = List.concat_map (fun w -> List.init 4 (fun s -> s :: w)) frontier in
        grow (acc @ next) next (k - 1)
    in
    List.map List.rev (grow [ [] ] [ [] ] 4)
  in
  let e_cols = [ []; [ 4 ]; [ 2; 4 ]; [ 5 ] ] in
  let words = List.concat_map (fun s -> List.map (fun e -> s @ e) e_cols) s_rows in
  check (Alcotest.list cbool) "batched answers equal per-word answers"
    (List.map (Dfa.accepts dfa) words)
    (Dfa.accepts_batch dfa words);
  let steps = List.fold_left (fun acc w -> acc + List.length w) 0 words in
  let trie = Trie.create () in
  List.iter (fun w -> ignore (Trie.add_word trie w)) words;
  let shared = Trie.size trie - 1 in
  if not (shared < steps) then
    Alcotest.failf "prefix trie has %d nodes for %d per-word symbol steps" shared steps;
  (* a word's node spells the word, and inserting it again finds it *)
  List.iter
    (fun w ->
      check (Alcotest.list Alcotest.int) "node spells its word" w
        (Trie.symbols trie (Trie.add_word trie w)))
    words;
  check Alcotest.int "no node added on reinsertion" (shared + 1) (Trie.size trie)

let () =
  Alcotest.run "xl_automata"
    [
      ("alphabet", [ Alcotest.test_case "interning" `Quick test_alphabet ]);
      ( "dfa",
        [
          Alcotest.test_case "regex matching" `Quick test_regex_matching;
          Alcotest.test_case "star-any" `Quick test_star_any;
          Alcotest.test_case "boolean ops" `Quick test_dfa_ops;
          Alcotest.test_case "shortest/empty" `Quick test_shortest_and_empty;
          Alcotest.test_case "equivalence witness" `Quick test_equivalence_witness;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "with_start/extend" `Quick test_with_start_and_extend;
          Alcotest.test_case "accepted_up_to" `Quick test_accepted_up_to;
          Alcotest.test_case "batched membership" `Quick test_accepts_batch;
        ] );
      ( "regex",
        [
          Alcotest.test_case "of_dfa roundtrip" `Quick test_of_dfa_roundtrip;
          Alcotest.test_case "printing" `Quick test_regex_print;
        ] );
      ("nfa", [ Alcotest.test_case "epsilon and subset" `Quick test_nfa_direct ]);
      ( "lstar",
        [
          Alcotest.test_case "learns the sample path language" `Quick test_lstar_learns_sample;
          Alcotest.test_case "seeded" `Quick test_lstar_with_seed;
          Alcotest.test_case "degenerate languages" `Quick test_lstar_empty_and_universal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lstar_learns_random_regex;
            prop_of_dfa_roundtrip;
            prop_minimize_preserves;
            prop_product_correct;
            prop_minimize_matches_reference;
            prop_product_matches_reference;
            prop_lstar_matches_reference;
          ] );
    ]
