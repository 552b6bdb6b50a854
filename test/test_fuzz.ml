(* The property-based differential testing harness (lib/fuzz):

   - a 200-case deterministic campaign of the main equivalence property
     (learned query extent-equivalent to the target on the training
     document and on fresh documents of the same DTD);
   - bit-reproducibility of the campaign report across worker counts;
   - injected learner bugs (dropped condition, widened path) are caught
     by the differential oracle and minimized to tiny cases;
   - pinned regression fixtures (examples/fuzz): minimized
     counterexamples that exposed real pipeline bugs during harness
     development, re-learned and re-checked here. *)

module Fuzz = Xl_fuzz.Fuzz
module Case = Xl_fuzz.Case
module Props = Xl_fuzz.Props
module Pool = Xl_exec.Pool
module Store = Xl_xml.Store
module Learn = Xl_core.Learn

let seed = 20040301

(* ---------- the main campaign ------------------------------------------ *)

let test_campaign () =
  let pool = Pool.create ~domains:4 () in
  let r = Fuzz.run ~pool ~cases:200 ~seed () in
  let failures =
    String.concat "; "
      (List.map
         (fun (c : Fuzz.case_report) ->
           Printf.sprintf "case %d: %s" c.Fuzz.index
             (match c.Fuzz.failure with
             | Some f -> Props.failure_to_string f
             | None -> "?"))
         r.Fuzz.failed)
  in
  Alcotest.(check string) "no surviving counterexamples" "" failures;
  Alcotest.(check int) "no admission fallbacks" 0 r.Fuzz.fallbacks

let test_determinism () =
  let sequential = Fuzz.run ~cases:25 ~seed () in
  let pool = Pool.create ~domains:3 () in
  let parallel = Fuzz.run ~pool ~cases:25 ~seed () in
  Alcotest.(check string)
    "report identical at -j 1 and -j 3"
    (Fuzz.report_to_string sequential)
    (Fuzz.report_to_string parallel)

(* ---------- injected bugs ---------------------------------------------- *)

let check_bug_caught name bug =
  let caught = ref 0 in
  for index = 0 to 19 do
    let r = Fuzz.run_case ~bug ~seed ~index () in
    match r.Fuzz.failure with
    | None -> ()
    | Some _ ->
      incr caught;
      if r.Fuzz.training_size > 15 then
        Alcotest.failf "%s: case %d minimized to %d element nodes (> 15)"
          name index r.Fuzz.training_size
  done;
  if !caught = 0 then
    Alcotest.failf "%s: no case in 0..19 caught the injected bug" name

let test_drop_cond_caught () =
  check_bug_caught "drop-cond" Props.Drop_learned_cond

let test_widen_path_caught () =
  check_bug_caught "widen-path" Props.Widen_learned_path

(* ---------- pinned regression fixtures --------------------------------- *)

let check_fixture (f : Xl_fuzz_fixtures.Fixtures.t) () =
  let open Xl_fuzz_fixtures in
  let dtd = Xl_schema.Dtd_parser.parse ~root:f.Fixtures.root f.Fixtures.dtd in
  let doc = Xl_xml.Xml_parser.parse_doc ~uri:"fixture.xml" f.Fixtures.training in
  Alcotest.(check bool)
    "fixture document valid for its DTD" true
    (Xl_schema.Validate.is_valid dtd doc);
  let store = Store.of_docs [ doc ] in
  let scenario =
    Xl_core.Scenario.make ~description:f.Fixtures.bug ~source_dtd:dtd ~store
      ~target:f.Fixtures.target f.Fixtures.name
  in
  let r = Learn.run scenario in
  Alcotest.(check bool) "learning verified" true r.Learn.verified;
  Alcotest.(check string)
    "learned query extent-equivalent on the training document"
    (Props.eval_to_string f.Fixtures.target store)
    (Props.eval_to_string r.Learn.learned store)

let fixture_tests =
  List.map
    (fun (f : Xl_fuzz_fixtures.Fixtures.t) ->
      Alcotest.test_case f.Xl_fuzz_fixtures.Fixtures.name `Quick
        (check_fixture f))
    Xl_fuzz_fixtures.Fixtures.all

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "fuzz"
    [
      ( "campaign",
        [
          Alcotest.test_case "200 cases, seed 20040301" `Slow test_campaign;
          Alcotest.test_case "report deterministic across -j" `Quick
            test_determinism;
        ] );
      ( "injected-bugs",
        [
          Alcotest.test_case "dropped condition caught and minimized" `Slow
            test_drop_cond_caught;
          Alcotest.test_case "widened path caught and minimized" `Slow
            test_widen_path_caught;
        ] );
      ("fixtures", fixture_tests);
    ]
