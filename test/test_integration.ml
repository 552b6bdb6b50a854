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
        ] );
      ( "ablation",
        [
          Alcotest.test_case "R1/R2 off" `Slow test_ablation_rules;
          Alcotest.test_case "paper-driver rows pinned" `Slow test_paper_rows_pinned;
        ] );
      ("determinism", [ Alcotest.test_case "repeatable sessions" `Quick test_sessions_deterministic ]);
    ]
