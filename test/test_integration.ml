(* Integration tests: full learning sessions over the benchmark
   scenarios, checking the properties the paper's evaluation depends on.
   The fastest scenarios run here; the complete Figure-16 sweep lives in
   the benchmark harness (bench/main.exe). *)

open Xl_core

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int

let find suite name = List.assoc name suite

let assert_session ?(max_mq = 40) ?(max_ce = 10) (r : Learn.result) =
  let s = r.Learn.stats in
  check cbool "verified against the target" true r.Learn.verified;
  check cbool "membership queries bounded" true (s.Stats.mq <= max_mq);
  check cbool "counterexamples bounded" true (s.Stats.ce <= max_ce);
  check cint "reduced identity"
    (Stats.reduced_total s)
    (s.Stats.reduced_r1 + s.Stats.reduced_r2 - s.Stats.reduced_both);
  check cbool "R1 dominates the reduction (regular data)" true
    (s.Stats.reduced_r1 >= s.Stats.reduced_r2)

(* ---------- all XMP sessions (small instance, fast) -------------------------- *)

let test_xmp_all () =
  List.iter
    (fun (name, sc) ->
      let r = Learn.run sc in
      check cbool (name ^ " verified") true r.Learn.verified;
      assert_session r)
    (Xl_workload.Xmp_scenarios.all ())

let test_xmp_paper_dd_alignment () =
  (* D&D is a static property of the scenario; it matches the paper
     exactly for most XMP queries *)
  let mismatches = ref [] in
  List.iter
    (fun (name, sc) ->
      let r = Learn.run sc in
      match
        List.find_opt
          (fun (p : Xl_workload.Paper_reference.fig16_row) ->
            p.Xl_workload.Paper_reference.id = name)
          Xl_workload.Paper_reference.xmp
      with
      | Some p ->
        if r.Learn.stats.Stats.dd <> p.Xl_workload.Paper_reference.dd then
          mismatches := name :: !mismatches
      | None -> ())
    (Xl_workload.Xmp_scenarios.all ());
  check cbool "at most 3 D&D deviations from the paper" true
    (List.length !mismatches <= 3)

(* ---------- selected XMark sessions -------------------------------------------- *)

let xmark = lazy (Xl_workload.Xmark_scenarios.all ())

let run_xmark name =
  let sc = find (Lazy.force xmark) name in
  Learn.run sc

let test_xmark_q1 () =
  let r = run_xmark "Q1" in
  assert_session r;
  let s = r.Learn.stats in
  check cint "Q1 one drop" 1 s.Stats.dd;
  check cint "Q1 one condition box" 1 s.Stats.cb;
  check cint "Q1 box terminals" 3 s.Stats.cb_terminals;
  check cbool "Q1 thousands auto-answered" true (Stats.reduced_total s > 1000)

let test_xmark_q13 () =
  let r = run_xmark "Q13" in
  assert_session r;
  check cint "Q13 two drops" 2 r.Learn.stats.Stats.dd;
  check cint "Q13 no boxes" 0 r.Learn.stats.Stats.cb

let test_xmark_q17_ncb () =
  let r = run_xmark "Q17" in
  assert_session r;
  let s = r.Learn.stats in
  check cint "Q17 negative condition box" 1 s.Stats.cb;
  check cint "Q17 box terminals" 2 s.Stats.cb_terminals;
  (* the learned person fragment carries a negated predicate *)
  let person = Option.get (Xl_xqtree.Xqtree.find r.Learn.learned "N1.1") in
  check cbool "negation in the learned where clause" true
    (List.exists
       (function Xl_xqtree.Cond.Neg _ -> true | _ -> false)
       person.Xl_xqtree.Xqtree.conds)

let test_xmark_q19_orderby () =
  let r = run_xmark "Q19" in
  assert_session r;
  check cint "Q19 one OrderBy box" 1 r.Learn.stats.Stats.ob;
  let item = Option.get (Xl_xqtree.Xqtree.find r.Learn.learned "N1.1") in
  check cbool "sort key on the item fragment" true (item.Xl_xqtree.Xqtree.order_by <> [])

let test_xmark_q5_function () =
  let r = run_xmark "Q5" in
  assert_session r;
  let s = r.Learn.stats in
  check cint "Q5 one drop into the nested box" 1 s.Stats.dd;
  check cint "Q5 count() adds a terminal" 2 s.Stats.dd_terminals

(* Q11's income theta join is stated in a Condition Box.  On these
   seeds the drop context needs no condition, so learning ends without
   one and only the repair sweep, routing the negative counterexample to
   a Condition Box, can add it. *)
let test_xmark_q11_seeded () =
  List.iter
    (fun seed ->
      let sc = find (Xl_workload.Xmark_scenarios.all ~seed ()) "Q11" in
      let r = Learn.run sc in
      let tag = Printf.sprintf "Q11 seed %d" seed in
      check cbool (tag ^ " verified") true r.Learn.verified;
      check cbool (tag ^ " condition box raised") true (r.Learn.stats.Stats.cb >= 1))
    [ 8; 28; 46 ]

(* ---------- ablation: the rules are what makes it practical --------------------- *)

let test_ablation_rules () =
  let sc = find (Xl_workload.Xmp_scenarios.all ()) "Q9" in
  let mq rules =
    (Learn.run ~config:{ Learn.default_config with rules } sc).Learn.stats.Stats.mq
  in
  let both = mq { Plearner.r1 = true; r2 = true } in
  let none = mq { Plearner.r1 = false; r2 = false } in
  check cbool "rules reduce user MQs dramatically" true (both * 5 < none);
  check cbool "interactive with rules" true (both <= 10)

(* ---------- the paper driver's other rows, pinned -------------------------------- *)

(* The rows bench/main.exe prints beside Figure 16: the R1/R2 ablation
   (four rule configurations over XMark Q1/Q13/Q15/Q17 and XMP Q9), the
   SGML suite and the Section 11 reuse pairs.  Each is a [Stats.to_json]
   object in paper_rows.json (a declared test dep), keyed
   "leg/subject[/variant]"; the "none" configuration is the one where
   every membership query reaches the teacher. *)
let paper_rows () : (string * string) list =
  let pick names suite = List.filter (fun (n, _) -> List.mem n names) suite in
  let xmark = Lazy.force xmark and xmp = Xl_workload.Xmp_scenarios.all () in
  let configs =
    [
      ("r1+r2", { Plearner.r1 = true; r2 = true });
      ("r1", { Plearner.r1 = true; r2 = false });
      ("r2", { Plearner.r1 = false; r2 = true });
      ("none", { Plearner.r1 = false; r2 = false });
    ]
  in
  let row (r : Learn.result) = Stats.to_json r.Learn.stats in
  let ablation =
    List.concat_map
      (fun (name, sc) ->
        List.map
          (fun (cname, rules) ->
            ( Printf.sprintf "ablation/%s/%s" name cname,
              row (Learn.run ~config:{ Learn.default_config with rules } sc) ))
          configs)
      (List.map (fun (n, sc) -> ("XMark-" ^ n, sc)) (pick [ "Q1"; "Q13"; "Q15"; "Q17" ] xmark)
      @ List.map (fun (n, sc) -> ("XMP-" ^ n, sc)) (pick [ "Q9" ] xmp))
  in
  let sgml =
    List.map
      (fun (n, sc) -> ("sgml/" ^ n, row (Learn.run sc)))
      (Xl_workload.Sgml_scenarios.all ())
  in
  let reuse =
    List.concat_map
      (fun (n, sc) ->
        let run ?prior () =
          let m = Machine.start ?prior sc in
          Machine.drive ~teacher:(Machine.oracle_teacher m) m
        in
        let r1, m1 = run () in
        let r2, _ = run ~prior:m1 () in
        [ ("reuse/" ^ n ^ "/first", row r1); ("reuse/" ^ n ^ "/second", row r2) ])
      (pick [ "Q13"; "Q14"; "Q19" ] xmark @ pick [ "Q9" ] xmp)
  in
  ablation @ sgml @ reuse

let test_paper_rows_pinned () =
  let module Json = Xl_json.Json in
  let parse what s =
    match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" what e
  in
  let pinned =
    (* dune runtest runs in _build/default/test, dune exec in the root *)
    match List.find_opt Sys.file_exists [ "paper_rows.json"; "test/paper_rows.json" ] with
    | None -> Alcotest.fail "paper_rows.json not found (declared test dep)"
    | Some path -> (
      match parse path (In_channel.with_open_bin path In_channel.input_all) with
      | Json.Obj rows -> rows
      | _ -> Alcotest.failf "%s: not a JSON object" path)
  in
  let rows = paper_rows () in
  check (Alcotest.list Alcotest.string) "one pinned row per paper-driver row"
    (List.map fst pinned) (List.map fst rows);
  List.iter
    (fun (key, got) ->
      let want = List.assoc key pinned in
      if want <> parse key got then
        Alcotest.failf "%s: pinned %s, got %s" key (Json.to_string want) got)
    rows

(* The Figure-16 scenarios learned with no schema: R1 then judges words
   by the instance's DataGuide.  Each row is a [Stats.to_json] object in
   dataguide_rows.json (a declared test dep), keyed "suite/name", and
   every query still verifies. *)
let test_dataguide_rows_pinned () =
  let module Json = Xl_json.Json in
  let parse what s =
    match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" what e
  in
  let pinned =
    match
      List.find_opt Sys.file_exists [ "dataguide_rows.json"; "test/dataguide_rows.json" ]
    with
    | None -> Alcotest.fail "dataguide_rows.json not found (declared test dep)"
    | Some path -> (
      match parse path (In_channel.with_open_bin path In_channel.input_all) with
      | Json.Obj rows -> rows
      | _ -> Alcotest.failf "%s: not a JSON object" path)
  in
  let rows =
    List.map
      (fun (key, sc) ->
        let r = Learn.run { sc with Scenario.source_dtd = None; more_dtds = [] } in
        check cbool (key ^ ": verified") true r.Learn.verified;
        (key, Stats.to_json r.Learn.stats))
      (List.map (fun (n, sc) -> ("xmark/" ^ n, sc)) (Lazy.force xmark)
      @ List.map (fun (n, sc) -> ("xmp/" ^ n, sc)) (Xl_workload.Xmp_scenarios.all ()))
  in
  check (Alcotest.list Alcotest.string) "one pinned row per scenario"
    (List.map fst pinned) (List.map fst rows);
  List.iter
    (fun (key, got) ->
      let want = List.assoc key pinned in
      if want <> parse key got then
        Alcotest.failf "%s: pinned %s, got %s" key (Json.to_string want) got)
    rows

(* The query text of every Figure-16 scenario on the default instance,
   pinned by fig16_queries.json (a declared test dep), keyed
   "suite/name".  The text depends on more than the interaction counts:
   the state numbering of the schema-tightened path DFA decides the
   printed path, and the condition minimization decides which
   predicates are printed. *)
let test_fig16_queries_pinned () =
  let module Json = Xl_json.Json in
  let pinned =
    match
      List.find_opt Sys.file_exists [ "fig16_queries.json"; "test/fig16_queries.json" ]
    with
    | None -> Alcotest.fail "fig16_queries.json not found (declared test dep)"
    | Some path -> (
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok (Json.Obj rows) ->
        List.map
          (function
            | key, Json.Str q -> (key, q)
            | key, _ -> Alcotest.failf "%s: %s is not a string" path key)
          rows
      | Ok _ -> Alcotest.failf "%s: not a JSON object" path
      | Error e -> Alcotest.failf "%s: %s" path e)
  in
  let rows =
    List.map
      (fun (key, sc) -> (key, (Learn.run sc).Learn.query_text))
      (List.map (fun (n, sc) -> ("xmark/" ^ n, sc)) (Lazy.force xmark)
      @ List.map (fun (n, sc) -> ("xmp/" ^ n, sc)) (Xl_workload.Xmp_scenarios.all ()))
  in
  check (Alcotest.list Alcotest.string) "one pinned query per scenario"
    (List.map fst pinned) (List.map fst rows);
  List.iter (fun (key, got) -> check Alcotest.string key (List.assoc key pinned) got) rows

(* ---------- determinism ----------------------------------------------------------- *)

let test_sessions_deterministic () =
  let sc = find (Xl_workload.Xmp_scenarios.all ()) "Q1" in
  let r1 = Learn.run sc and r2 = Learn.run sc in
  check cbool "same stats" true (Stats.to_row r1.Learn.stats = Stats.to_row r2.Learn.stats);
  check cbool "same query" true (String.equal r1.Learn.query_text r2.Learn.query_text)

let () =
  Alcotest.run "integration"
    [
      ( "xmp",
        [
          Alcotest.test_case "all 11 sessions verify" `Slow test_xmp_all;
          Alcotest.test_case "D&D aligns with Figure 16" `Slow test_xmp_paper_dd_alignment;
        ] );
      ( "xmark",
        [
          Alcotest.test_case "Q1 (value box)" `Slow test_xmark_q1;
          Alcotest.test_case "Q13 (pure paths)" `Slow test_xmark_q13;
          Alcotest.test_case "Q17 (negative box)" `Slow test_xmark_q17_ncb;
          Alcotest.test_case "Q19 (order by)" `Slow test_xmark_q19_orderby;
          Alcotest.test_case "Q5 (drop-box function)" `Slow test_xmark_q5_function;
          Alcotest.test_case "Q11 verified on seeds 8, 28, 46" `Slow test_xmark_q11_seeded;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "R1/R2 off" `Slow test_ablation_rules;
          Alcotest.test_case "paper-driver rows pinned" `Slow test_paper_rows_pinned;
          Alcotest.test_case "DataGuide rows pinned" `Slow test_dataguide_rows_pinned;
          Alcotest.test_case "Figure-16 query texts pinned" `Slow test_fig16_queries_pinned;
        ] );
      ("determinism", [ Alcotest.test_case "repeatable sessions" `Quick test_sessions_deterministic ]);
    ]
