(* The benchmark's own tests: seeded inputs are reproducible and
   seed-dependent, the output checks catch a wrong or unverified result,
   every metric name is well formed and matches BENCHMARK.json, and the
   Figure-16 reference rows still match EXPERIMENTS.md. *)

module Inputs = Perfbench.Inputs
module Json = Xl_json.Json

let read path = In_channel.with_open_bin path In_channel.input_all

(* the test runs in _build/default/perfbench *)
let root f = Filename.concat Filename.parent_dir_name f

let catalog = List.init 35 (fun i -> Printf.sprintf "s%d" i)
let targets = List.init 17 (fun i -> Printf.sprintf "t%d" i)

let uploads seed = List.init 200 (Inputs.upload ~seed ~targets)
let catalog_sessions seed = List.init 200 (Inputs.catalog_session ~seed ~catalog)
let learn_order seed = List.map fst (Inputs.fig16_scenarios ~seed)

let inputs seed = (Inputs.upload_xml ~seed 3, learn_order seed, uploads seed, catalog_sessions seed)

let test_same_seed () = Alcotest.(check bool) "identical inputs" true (inputs 7 = inputs 7)

let test_other_seed () =
  let xml_a, order_a, up_a, cat_a = inputs 7 in
  let xml_b, order_b, up_b, cat_b = inputs 8 in
  Alcotest.(check bool) "upload documents differ" true (xml_a <> xml_b);
  Alcotest.(check bool) "scenario orders differ" true (order_a <> order_b);
  Alcotest.(check (list string)) "same scenarios" (List.sort compare order_a) (List.sort compare order_b);
  Alcotest.(check bool) "uploads differ" true (up_a <> up_b);
  Alcotest.(check bool) "catalog sessions differ" true (cat_a <> cat_b)

(* every block of the catalog's size holds each scenario once; every
   other upload brings the next new document, the others one already out *)
let test_mix_fixed () =
  let whole seed =
    List.filteri (fun i _ -> i < 175) (catalog_sessions seed)
    |> List.map (fun (c : Inputs.catalog_session) -> c.scenario)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same multiset" (whole 7) (whole 8);
  Alcotest.(check int) "five whole cycles" 175 (List.length (List.sort_uniq compare (whole 7)) * 5);
  List.iteri
    (fun k (u : Inputs.upload) ->
      if k mod 2 = 0 then Alcotest.(check int) "new document" (k / 2) u.doc
      else Alcotest.(check bool) "earlier document" true (u.doc <= k / 2))
    (uploads 7);
  Alcotest.(check int) "uploads of a 30 s run" 240 (Inputs.uploads ~seconds:30.);
  Alcotest.(check int) "documents they bring" 120 (Inputs.new_docs ~seconds:30.);
  Alcotest.(check int) "uploads of a 15 s half" 120 (Inputs.uploads ~seconds:15.);
  let docs = Inputs.new_docs ~seconds:30. in
  List.iter
    (fun k -> Alcotest.(check bool) "document generated" true ((Inputs.upload ~seed:7 ~targets k).doc < docs))
    (List.init (Inputs.uploads ~seconds:30.) Fun.id)

(* uploads learn the catalog's XMark targets, except the two that name a
   person of the catalog's own instance *)
let test_upload_targets () =
  let names = List.map fst (Perfbench.Serve_wl.local_catalog ()) in
  let t = Inputs.upload_targets names in
  Alcotest.(check int) "seventeen targets" 17 (List.length t);
  Alcotest.(check bool) "XMark only" true (List.for_all (String.starts_with ~prefix:"xmark/") t);
  Alcotest.(check bool) "no Q4, no Q16" true
    (not (List.mem "xmark/Q4" t || List.mem "xmark/Q16" t))

(* ---- output checks ------------------------------------------------------- *)

let learned =
  lazy
    (let sc = List.assoc "Q1" (Xl_workload.Xmp_scenarios.all ()) in
     match Perfbench.Learn_wl.learn (Perfbench.Learn_wl.timing ()) sc with
     | Ok r -> r
     | Error e -> Alcotest.fail e)

let test_learn_checks () =
  let module L = Perfbench.Learn_wl in
  let r = Lazy.force learned in
  let outcome = L.outcome_of (Ok r) in
  let row = Perfbench.Expected_fig16.of_stats r.stats in
  let c = L.check () in
  L.judge c "xmp/Q1" ~expected:(Some row) outcome;
  Alcotest.(check (pair int int)) "reference row passes" (0, 0) (c.failed, c.mismatched);
  L.judge c "xmp/Q1" ~expected:(Some (row ^ " ")) outcome;
  Alcotest.(check (pair int int)) "perturbed row is a wrong output" (1, 1) (c.failed, c.mismatched);
  L.judge c "xmp/Q1" ~expected:(Some row) (L.outcome_of (Ok { r with verified = false }));
  Alcotest.(check (pair int int)) "unverified result fails" (2, 1) (c.failed, c.mismatched);
  Alcotest.(check int) "attempted" 3 c.attempted;
  (* timed passes are held to the warm-up's outcome, and count no new
     operations *)
  let c = L.check () in
  L.recheck c "xmp/Q1" ~reference:outcome outcome;
  Alcotest.(check int) "same outcome" 0 c.mismatched;
  L.recheck c "xmp/Q1" ~reference:outcome (L.outcome_of (Ok { r with verified = false }));
  L.recheck c "xmp/Q1" ~reference:outcome (Error "learning failed");
  Alcotest.(check int) "other outcomes are wrong outputs" 2 c.mismatched;
  Alcotest.(check (pair int int)) "no operations counted" (0, 0) (c.attempted, c.failed)

let test_served_checks () =
  let module S = Perfbench.Serve_wl in
  let r = Lazy.force learned in
  let rf = S.reference [] in
  let expected =
    {
      S.row = Xl_core.Stats.to_row r.stats;
      stats = S.stats_string r.stats;
      verified = true;
      answer_ms = 1.;
    }
  in
  Hashtbl.replace rf.cache "xmp/Q1" (Ok expected);
  Hashtbl.replace rf.cache "upload" (Error "learning failed: no consistent drag-and-drop assignment exists");
  let stats = match Json.parse expected.stats with Ok j -> j | Error e -> Alcotest.fail e in
  let served ?(row = expected.row) ?(verified = true) () =
    Json.Obj [ ("row", Json.str row); ("stats", stats); ("verified", Json.Bool verified) ]
  in
  let session ?(key = "xmp/Q1") ?failure ?result () =
    {
      S.f_name = key;
      f_key = key;
      f_make = (fun () -> Alcotest.fail "the reference is cached");
      f_failure = failure;
      f_result = result;
      f_served_ms = 2.;
    }
  in
  let judged sessions =
    let sh = S.shared () in
    sh.finished <- List.rev sessions;
    S.judge_all sh rf;
    sh
  in
  let counts sh = (sh.S.attempted, sh.S.failed, sh.S.mismatched) in
  let ok = session ~result:(served ()) () in
  Alcotest.(check (triple int int int)) "matching rows" (1, 0, 0) (counts (judged [ ok; ok; ok ]));
  Alcotest.(check (triple int int int))
    "perturbed row is a mismatch" (1, 1, 1)
    (counts (judged [ ok; session ~result:(served ~row:(expected.row ^ "1") ()) (); ok ]));
  Alcotest.(check (triple int int int))
    "unverified result is a mismatch too" (1, 1, 1)
    (counts (judged [ session ~result:(served ~verified:false ()) () ]));
  Alcotest.(check (triple int int int))
    "a failure shared in process is no mismatch" (2, 1, 0)
    (counts (judged [ ok; session ~key:"upload" ~failure:(500, "learning failed") () ]));
  Alcotest.(check (triple int int int))
    "a failure not shared in process is" (1, 1, 2)
    (counts (judged [ session ~failure:(500, "internal error") (); ok; session ~failure:(503, "busy") () ]))

(* ---- names and the benchmark file ---------------------------------------- *)

let test_names () =
  let all = Perfbench.Spec.end_to_end @ Perfbench.Spec.per_layer in
  List.iter
    (fun (n, _) -> Alcotest.(check bool) ("well-formed name " ^ n) true (Perfbench.Report.valid_name n))
    all;
  Alcotest.(check bool) "names used once" true
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Perfbench.Report.valid_name bad))
    [ ""; "a b"; ".x"; "p99%"; "x/y" ]

let test_benchmark_file () =
  let j = match Json.parse (read (root "BENCHMARK.json")) with Ok j -> j | Error e -> Alcotest.fail e in
  let metrics key =
    List.map
      (fun m -> (Option.get (Json.mem_str "name" m), Option.get (Json.mem_str "unit" m)))
      (Option.get (Json.mem_list key j))
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Perfbench.Spec.end_to_end (metrics "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Perfbench.Spec.per_layer (metrics "per_layer");
  List.iter
    (fun w ->
      let name = Option.get (Json.mem_str "name" w) in
      Alcotest.(check bool) ("known workload " ^ name) true (List.mem name Perfbench.Spec.workloads))
    (Option.get (Json.mem_list "workloads" j))

(* ---- the Figure-16 reference ---------------------------------------------- *)

let experiments_rows () =
  let suite = ref None in
  let strip_brackets s =
    let b = Buffer.create (String.length s) in
    let skip = ref false in
    String.iter
      (fun c ->
        if c = '[' then skip := true
        else if c = ']' then skip := false
        else if not !skip then Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"## Figure 16 (top)" line then suite := Some "xmark"
      else if String.starts_with ~prefix:"## Figure 16 (bottom)" line then suite := Some "xmp"
      else if String.starts_with ~prefix:"## " line then suite := None;
      match (!suite, String.split_on_char '|' line) with
      | Some s, [ ""; q; ours; _; "" ] when String.length (String.trim q) > 1 && (String.trim q).[0] = 'Q'
        ->
        Some (s ^ "/" ^ String.trim q, strip_brackets (String.trim ours))
      | _ -> None)
    (String.split_on_char '\n' (read (root "EXPERIMENTS.md")))

let test_fig16_rows () =
  Alcotest.(check (list (pair string string)))
    "EXPERIMENTS.md rows" (experiments_rows ()) Perfbench.Expected_fig16.rows

let test_p99_rule () =
  let s = Perfbench.Sample.create () in
  for i = 1 to 999 do
    Perfbench.Sample.add s (float_of_int i)
  done;
  Alcotest.(check bool) "no p99 below ten samples beyond it" true (Perfbench.Sample.p99 s = None);
  Perfbench.Sample.add s 1000.;
  Alcotest.(check bool) "p99 at ten" true (Perfbench.Sample.p99 s <> None)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed;
          Alcotest.test_case "mix fixed per cycle" `Quick test_mix_fixed;
          Alcotest.test_case "upload targets" `Quick test_upload_targets;
        ] );
      ( "checks",
        [
          Alcotest.test_case "in-process results" `Quick test_learn_checks;
          Alcotest.test_case "served results" `Quick test_served_checks;
        ] );
      ( "report",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_file;
          Alcotest.test_case "Figure-16 rows" `Quick test_fig16_rows;
          Alcotest.test_case "p99 rule" `Quick test_p99_rule;
        ] );
    ]
