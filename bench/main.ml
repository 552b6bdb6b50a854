(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Figures 15 and 16), adds an R1/R2 ablation, and measures
   the pipeline's building blocks with Bechamel.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig15        -- expressive power table
     dune exec bench/main.exe -- fig16-xmark  -- interaction counts, XMark
     dune exec bench/main.exe -- fig16-xmp    -- interaction counts, XMP
     dune exec bench/main.exe -- ablation     -- rules R1/R2 on/off
     dune exec bench/main.exe -- perf         -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- perf-json    -- machine-readable baseline
                                                 (writes BENCH_perf.json)
     dune exec bench/main.exe -- perf-gate    -- diff BENCH_perf.json against
                                                 BENCH_baseline.json (make bench-gate)
     dune exec bench/main.exe -- frozen       -- frozen-store scan micro on the
                                                 domain pool (make bench-frozen)
     dune exec bench/main.exe -- stream       -- streaming ingestion + snapshot
                                                 scale ladder, 10x fig16 variant
                                                 (make bench-stream)
     dune exec bench/main.exe -- batch        -- batched vs per-word membership
                                                 micro, fig16 batching share
                                                 (make bench-batch)
     dune exec bench/main.exe -- obs-report T -- offline analysis of a JSONL
                                                 trace T: span-tree self time,
                                                 worker utilization, critical
                                                 path (make obs-report)

   The Figure-16 suites and the perf-json baseline fan their independent
   learn-and-verify scenario runs across OCaml 5 domains (Xl_exec.Pool).
   Worker count: -j N / --jobs N, else the XLEARNER_JOBS environment
   variable, else Domain.recommended_domain_count () - 1 (floor 1).
   Results are collected per scenario and printed in suite order, so the
   output is byte-identical whatever the worker count. *)

module Pool = Xl_exec.Pool
module Obs = Xl_obs.Obs
module Profiler = Xl_obs.Profiler
module Perfetto = Xl_obs.Perfetto
module Trace_analysis = Xl_obs.Trace_analysis

let jobs_override : int option ref = ref None
let pool () = Pool.create ?domains:!jobs_override ()

(* --trace PATH (or XLEARNER_TRACE=PATH): enable telemetry and write the
   JSONL trace + summary table when the selected benchmarks finish *)
let trace_path : string option ref = ref None

(* --perfetto PATH: also write the merged spans as a Chrome trace-event
   file (opens in ui.perfetto.dev); --profile PATH: run the sampling
   profiler for the whole selection and write folded (flamegraph)
   stacks; --profile-interval-us N tunes the sampling period *)
let perfetto_path : string option ref = ref None
let profile_path : string option ref = ref None
let profile_interval_us = ref 1000

(* obs-report options *)
let obs_report_top = ref 10
let obs_check_perfetto : string option ref = ref None
let obs_check_folded : string option ref = ref None
let obs_expect_stack : string option ref = ref None

(* a suite's scenarios share one store; freeze its lazy indexes while the
   store is still visible to a single domain (Pool's confinement rule),
   and make any later lazy build — a data race under the fan-out — fail
   loudly instead of silently falling back *)
let prepare_scenarios scenarios =
  List.iter
    (fun (_, sc) ->
      Xl_xml.Store.prepare sc.Xl_core.Scenario.store;
      Xl_xml.Store.set_strict sc.Xl_core.Scenario.store true)
    scenarios;
  scenarios

let line = String.make 78 '-'

(* ---------- Figure 15 -------------------------------------------------- *)

let fig15 () =
  print_endline line;
  print_endline "Figure 15 — Expressive Power of XLearner (queries in XQ_I)";
  print_endline line;
  Printf.printf "%-14s %-18s %-18s %s\n" "Suite" "Ours" "Paper" "Blocked by";
  let rows = Xl_workload.Usecases.classify_all () in
  List.iter
    (fun (r : Xl_workload.Usecases.row) ->
      let paper_pct = 100. *. float_of_int r.paper /. float_of_int r.total in
      let blockers =
        String.concat ", "
          (List.map (fun (q, why) -> Printf.sprintf "%s (%s)" q why) r.blockers)
      in
      Printf.printf "%-14s %5.1f%% (%2d/%2d)    %5.1f%% (%2d/%2d)    %s\n" r.name
        r.percentage r.learnable r.total paper_pct r.paper r.total blockers)
    rows;
  let ok =
    List.for_all (fun (r : Xl_workload.Usecases.row) -> r.learnable = r.paper) rows
  in
  Printf.printf "\n=> classification matches the paper on every suite: %b\n\n" ok

(* ---------- Figure 16 -------------------------------------------------- *)

let header () =
  Printf.printf "%-5s %-52s | %-40s %s\n" ""
    "Ours: D&D(#t) MQ CE CB(#t) OB Reduced(R1,R2,Both)" "Paper" "verified";
  Printf.printf "%s\n" line

(* One Figure-16 row, computed inside a pool worker: the default run, the
   adversarial worst-case rerun, and the fully formatted output line.
   Printing happens on the main domain, in scenario order — the parallel
   table is byte-identical to the sequential one. *)
let fig16_row paper_rows (name, sc) : string * bool =
  let paper =
    match
      List.find_opt
        (fun (r : Xl_workload.Paper_reference.fig16_row) ->
          String.equal r.Xl_workload.Paper_reference.id name)
        paper_rows
    with
    | Some r -> Xl_workload.Paper_reference.fig16_row_to_string r
    | None -> "-"
  in
  match Xl_core.Learn.run sc with
  | r ->
    (* the paper's bracketed worst case: re-run with the adversarial
       counterexample strategy and report its CE when it differs *)
    let worst_ce =
      match
        Xl_core.Learn.run
          ~config:
            { Xl_core.Learn.default_config with strategy = Xl_core.Oracle.Worst }
          sc
      with
      | w ->
        let ce = w.Xl_core.Learn.stats.Xl_core.Stats.ce in
        if ce > r.Xl_core.Learn.stats.Xl_core.Stats.ce then
          Printf.sprintf "[%d]" ce
        else ""
      | exception _ -> ""
    in
    let s = r.Xl_core.Learn.stats in
    let ours =
      Printf.sprintf "%d(%d)\t%d\t%d%s\t%d(%d)\t%d\t%d(%d,%d,%d)"
        s.Xl_core.Stats.dd s.Xl_core.Stats.dd_terminals s.Xl_core.Stats.mq
        s.Xl_core.Stats.ce worst_ce s.Xl_core.Stats.cb
        s.Xl_core.Stats.cb_terminals s.Xl_core.Stats.ob
        (Xl_core.Stats.reduced_total s)
        s.Xl_core.Stats.reduced_r1 s.Xl_core.Stats.reduced_r2
        s.Xl_core.Stats.reduced_both
    in
    ( Printf.sprintf "%-5s %-52s | %-40s %b" name ours paper
        r.Xl_core.Learn.verified,
      r.Xl_core.Learn.verified )
  | exception e ->
    (Printf.sprintf "%-5s FAILED: %s" name (Printexc.to_string e), false)

let run_suite ~title scenarios paper_rows =
  print_endline line;
  Printf.printf "Figure 16 — The Number of Interactions for Learning (%s)\n" title;
  print_endline line;
  header ();
  let rows = Pool.map (pool ()) (fig16_row paper_rows) (prepare_scenarios scenarios) in
  List.iter (fun (row, _) -> print_endline row) rows;
  let verified_count =
    List.length (List.filter (fun (_, v) -> v) rows)
  in
  Printf.printf
    "\n=> %d/%d learned queries verified equivalent to the target on the instance\n\n"
    verified_count (List.length rows)

let fig16_xmark () =
  run_suite ~title:"XMark"
    (Xl_workload.Xmark_scenarios.all ())
    Xl_workload.Paper_reference.xmark

let fig16_xmp () =
  run_suite ~title:"XML Query Use Case \"XMP\""
    (Xl_workload.Xmp_scenarios.all ())
    Xl_workload.Paper_reference.xmp

(* ---------- Ablation: rules R1/R2 -------------------------------------- *)

let ablation () =
  print_endline line;
  print_endline
    "Ablation — user membership queries with reduction rules toggled (Section 8)";
  print_endline line;
  Printf.printf "%-8s %12s %12s %12s %12s\n" "Query" "R1+R2" "R1 only" "R2 only" "none";
  let configs =
    [
      { Xl_core.Plearner.r1 = true; r2 = true };
      { Xl_core.Plearner.r1 = true; r2 = false };
      { Xl_core.Plearner.r1 = false; r2 = true };
      { Xl_core.Plearner.r1 = false; r2 = false };
    ]
  in
  let subjects =
    (List.filter
       (fun (n, _) -> List.mem n [ "Q1"; "Q13"; "Q15"; "Q17" ])
       (Xl_workload.Xmark_scenarios.all ())
    |> List.map (fun (n, sc) -> ("XMark-" ^ n, sc)))
    @ (List.filter (fun (n, _) -> String.equal n "Q9") (Xl_workload.Xmp_scenarios.all ())
      |> List.map (fun (n, sc) -> ("XMP-" ^ n, sc)))
  in
  List.iter
    (fun (name, sc) ->
      let mqs =
        List.map
          (fun rules ->
            match
              Xl_core.Learn.run ~config:{ Xl_core.Learn.default_config with rules } sc
            with
            | r -> string_of_int r.Xl_core.Learn.stats.Xl_core.Stats.mq
            | exception _ -> "fail")
          configs
      in
      match mqs with
      | [ a; b; c; d ] -> Printf.printf "%-8s %12s %12s %12s %12s\n%!" name a b c d
      | _ -> ())
    subjects;
  print_endline
    "\n=> each rule alone already removes most membership queries; together they";
  print_endline "   leave the handful the paper reports (MQ column of Figure 16)\n"

(* ---------- Extra suite: SGML (ours) ------------------------------------ *)

let sgml () =
  print_endline line;
  print_endline
    "Extra suite (ours) — UC \"SGML\" learning sessions (Figure 15 says 11/11 learnable)";
  print_endline line;
  header ();
  List.iter
    (fun (name, sc) ->
      match Xl_core.Learn.run sc with
      | r ->
        Printf.printf "%-5s %-52s | %-40s %b\n%!" name
          (Xl_core.Stats.to_row r.Xl_core.Learn.stats) "-" r.Xl_core.Learn.verified
      | exception e -> Printf.printf "%-5s FAILED: %s\n%!" name (Printexc.to_string e))
    (Xl_workload.Sgml_scenarios.all ());
  print_newline ()

(* ---------- Session reuse (Section 11 future work) ---------------------- *)

let reuse () =
  print_endline line;
  print_endline
    "Reuse of past interactions (Section 11) — re-learning the same drop boxes";
  print_endline line;
  Printf.printf "%-10s %28s %28s %8s\n" "Query" "first run (MQ CE CB)" "second run (MQ CE CB)" "reused";
  let subjects =
    List.filter (fun (n, _) -> List.mem n [ "Q13"; "Q14"; "Q19" ])
      (Xl_workload.Xmark_scenarios.all ())
    @ List.filter (fun (n, _) -> String.equal n "Q9") (Xl_workload.Xmp_scenarios.all ())
  in
  List.iter
    (fun (name, sc) ->
      let session = Xl_core.Session.create () in
      let before = Xl_core.Session.hits session in
      let r1 = Xl_core.Learn.run ~session sc in
      let r2 = Xl_core.Learn.run ~session sc in
      let fmt (r : Xl_core.Learn.result) =
        Printf.sprintf "%d %d %d" r.Xl_core.Learn.stats.Xl_core.Stats.mq
          r.Xl_core.Learn.stats.Xl_core.Stats.ce r.Xl_core.Learn.stats.Xl_core.Stats.cb
      in
      Printf.printf "%-10s %28s %28s %8d\n%!" name (fmt r1) (fmt r2)
        (Xl_core.Session.hits session - before))
    subjects;
  print_endline
    "\n=> a re-learned drop box replays the stored answers: zero membership";
  print_endline "   queries the second time around\n"

(* ---------- Bechamel micro-benchmarks ----------------------------------- *)

let perf () =
  print_endline line;
  print_endline "Micro-benchmarks (Bechamel; monotonic clock per run)";
  print_endline line;
  let open Bechamel in
  let scale = Xl_workload.Xmark_gen.tiny_scale in
  let doc = Xl_workload.Xmark_gen.generate scale in
  let store = Xl_xml.Store.of_docs [ doc ] in
  let ctx = Xl_xquery.Eval.make_ctx store in
  let q1_text =
    {|for $c in /site/categories/category
      return <category>{$c/name}{
        for $i in /site/regions/(europe|africa)/item
        where $i/incategory/@category = $c/@id
        return <item>{$i/name}</item>}</category>|}
  in
  let q1_ast = Xl_xquery.Parser.parse q1_text in
  let xml_text = Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root doc) in
  let lstar_target =
    Xl_automata.Regex.to_dfa ~alphabet_size:20
      Xl_automata.Regex.(
        seq [ Sym 0; Sym 1; Alt (Sym 2, Sym 3); Sym 4 ])
  in
  let tests =
    Test.make_grouped ~name:"xlearner"
      [
        Test.make ~name:"xmark-generate"
          (Staged.stage (fun () -> ignore (Xl_workload.Xmark_gen.generate scale)));
        Test.make ~name:"xml-parse"
          (Staged.stage (fun () -> ignore (Xl_xml.Xml_parser.parse xml_text)));
        Test.make ~name:"xquery-eval-q1"
          (Staged.stage (fun () -> ignore (Xl_xquery.Eval.run ctx q1_ast)));
        Test.make ~name:"data-graph-build"
          (Staged.stage (fun () -> ignore (Xl_core.Data_graph.build store)));
        Test.make ~name:"lstar-learn-path"
          (Staged.stage (fun () ->
               let teacher =
                 {
                   Xl_automata.Lstar.membership =
                     (fun w -> Xl_automata.Dfa.accepts lstar_target w);
                   membership_batch = None;
                   equivalence =
                     (fun h ->
                       match Xl_automata.Dfa.equivalent h lstar_target with
                       | Ok () -> None
                       | Error w -> Some w);
                 }
               in
               ignore (Xl_automata.Lstar.learn ~alphabet_size:20 teacher)));
        Test.make ~name:"dtd-validate"
          (Staged.stage (fun () ->
               ignore (Xl_schema.Validate.validate (Xl_workload.Xmark_dtd.get ()) doc)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Printf.printf "%-36s %16s\n" "benchmark" "time/run";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
          else Printf.sprintf "%8.2f ns" est
        in
        Printf.printf "%-36s %16s\n" name pretty
      | _ -> Printf.printf "%-36s %16s\n" name "n/a")
    results;
  print_newline ()

(* ---------- machine-readable perf baseline ------------------------------ *)

(* [perf-json] writes BENCH_perf.json: wall-clock micro-benchmarks of the
   evaluation building blocks (including the Q1 join query with the hash
   join on and off) plus the end-to-end Figure-16 learning suites.  The
   file is the perf baseline the next optimization PR diffs against. *)

(* ns/run by adaptive repetition: double the iteration count until the
   measured batch takes at least [min_time] seconds, then report the best
   of three batches at that count — the minimum discards scheduler and GC
   noise, which a 25% regression gate cannot tolerate on µs-scale runs. *)
let time_ns ?(min_time = 0.2) (f : unit -> unit) : float * int =
  f ();
  (* warmup: fill evaluator caches, trigger first GC growth *)
  let batch iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let rec calibrate iters =
    let dt = batch iters in
    if dt < min_time && iters < 1_000_000 then calibrate (iters * 2)
    else (dt, iters)
  in
  let dt0, iters = calibrate 1 in
  let dt = min dt0 (min (batch iters) (batch iters)) in
  (dt *. 1e9 /. float_of_int iters, iters)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The "server": {...} block of BENCH_perf.json is owned by [bench
   serve], while the rest of the file is owned by [perf-json] — so each
   writer splices the other's part in unchanged.  The block is
   machine-written and none of its strings contain braces, so matching
   the closing brace by nesting depth is exact. *)
let server_block_span text =
  let n = String.length text and key = {|"server":|} in
  let k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.equal (String.sub text i k) key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some key_at -> (
    match String.index_from_opt text key_at '{' with
    | None -> None
    | Some brace ->
      let rec scan i depth =
        if i >= n then None
        else
          match text.[i] with
          | '{' -> scan (i + 1) (depth + 1)
          | '}' -> if depth = 1 then Some (i + 1) else scan (i + 1) (depth - 1)
          | _ -> scan (i + 1) depth
      in
      Option.map (fun stop -> (key_at, brace, stop)) (scan brace 0))

(* replace (or add) the "server" block, keeping everything else;
   [block] is the {...} object text *)
let splice_server_block text block =
  let text =
    match server_block_span text with
    | None -> text
    | Some (key_at, _, stop) ->
      (* also drop the comma and whitespace that introduced the block *)
      let s = ref key_at in
      while !s > 0 && (text.[!s - 1] = ' ' || text.[!s - 1] = '\n') do decr s done;
      let s = if !s > 0 && text.[!s - 1] = ',' then !s - 1 else !s in
      String.sub text 0 s ^ String.sub text stop (String.length text - stop)
  in
  match String.rindex_opt text '}' with
  | None -> Printf.sprintf "{\n  \"server\": %s\n}\n" block
  | Some last ->
    let pre = String.trim (String.sub text 0 last) in
    Printf.sprintf "%s,\n  \"server\": %s\n}\n" pre block

let existing_server_block path =
  if not (Sys.file_exists path) then None
  else
    let text = read_file path in
    match server_block_span text with
    | None -> None
    | Some (_, brace, stop) -> Some (String.sub text brace (stop - brace))

let perf_json () =
  (* micro-benchmarks run with telemetry off: the span buffer over
     thousands of timed iterations would distort the numbers it measures.
     Telemetry switches on at the fig16 boundary below, so the telemetry
     block (and any --trace output) attributes the learning suites. *)
  Obs.set_enabled false;
  let micro = ref [] in
  let bench name f =
    let ns, runs = time_ns f in
    Printf.printf "%-28s %12.0f ns/run  (%d runs)\n%!" name ns runs;
    micro := (name, ns, runs) :: !micro;
    ns
  in
  (* data set for the micro-benchmarks: larger than tiny_scale so the
     join benchmark has enough items for the asymptotics to show *)
  let scale =
    {
      Xl_workload.Xmark_gen.categories = 24;
      items_per_region = 30;
      people = 30;
      open_auctions = 20;
      closed_auctions = 25;
    }
  in
  let doc = Xl_workload.Xmark_gen.generate scale in
  let xml_text = Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root doc) in
  let store = Xl_xml.Store.of_docs [ doc ] in
  let ctx = Xl_xquery.Eval.make_ctx store in
  let q1_join =
    Xl_xquery.Parser.parse
      {|for $c in /site/categories/category
        return <category>{$c/name}{
          for $i in /site/regions/(europe|africa)/item
          where $i/incategory/@category = $c/@id
          return <item>{$i/name}</item>}</category>|}
  in
  ignore (bench "xmark-generate" (fun () -> ignore (Xl_workload.Xmark_gen.generate scale)));
  ignore (bench "xml-parse" (fun () -> ignore (Xl_xml.Xml_parser.parse xml_text)));
  (* document ingestion: the legacy two-walk path (parse to a tree, index
     it, re-walk to freeze) against the one-pass streaming builder, plus
     binary snapshot save/load of the streamed result *)
  let tree_ns =
    bench "parse-plus-freeze" (fun () ->
        ignore (Xl_xml.Frozen.freeze (Xl_xml.Xml_parser.parse_doc xml_text)))
  in
  let stream_ns =
    bench "stream-freeze" (fun () -> ignore (Xl_xml.Frozen_builder.parse xml_text))
  in
  let _, ingest_fz = Xl_xml.Frozen_builder.parse xml_text in
  let snap = Xl_xml.Snapshot.to_string ingest_fz in
  ignore
    (bench "snapshot-save" (fun () ->
         ignore (Xl_xml.Snapshot.to_string ingest_fz)));
  let snap_load_ns =
    bench "snapshot-load" (fun () -> ignore (Xl_xml.Snapshot.of_string snap))
  in
  let xml_bytes = String.length xml_text in
  let parse_mb_s = float_of_int xml_bytes /. (stream_ns /. 1e9) /. 1e6 in
  let stream_speedup = tree_ns /. stream_ns in
  let load_speedup = tree_ns /. snap_load_ns in
  Printf.printf
    "=> ingest: stream %.2fx vs parse+freeze, %.1f MB/s; snapshot load %.1fx vs re-parse\n%!"
    stream_speedup parse_mb_s load_speedup;
  ignore (bench "store-nodes" (fun () -> ignore (Xl_xml.Store.nodes store)));
  ignore (bench "data-graph-build" (fun () -> ignore (Xl_core.Data_graph.build store)));
  (* the deep-path workload (the AST is pre-parsed, like q1's: these
     time evaluation, not the parser) — the frozen scan memoized per
     (DFA, base), the steady state of the learning loop *)
  let deep_ast = Xl_xquery.Parser.parse "/site/regions/europe/item/description" in
  ignore
    (bench "path-eval-deep" (fun () -> ignore (Xl_xquery.Eval.run ctx deep_ast)));
  (* Q1's join: the hash join against the nested-loop reference *)
  let hash_ns = bench "q1-eval-hash-join" (fun () -> ignore (Xl_xquery.Eval.run ctx q1_join)) in
  let nested_ns =
    bench "q1-eval-nested-loop" (fun () -> ignore (Xl_fuzz.Ref_eval.run ctx q1_join))
  in
  let speedup = nested_ns /. hash_ns in
  Printf.printf "=> Q1 join: hash %.0f ns vs nested %.0f ns (%.1fx)\n%!" hash_ns
    nested_ns speedup;
  (* end-to-end Figure-16 suites: one Learn.run per scenario, default
     strategy (no adversarial rerun), recording stats + wall time.  Each
     suite runs twice — on one worker and on the configured pool — both
     to measure the realized speedup and to prove (make bench-check) that
     the per-scenario rows do not depend on the worker count. *)
  let run_suite ?(config = Xl_core.Learn.default_config) ~on scenarios =
    let t0 = Unix.gettimeofday () in
    let rows =
      Pool.map on
        (fun (name, sc) ->
          match Xl_core.Learn.run ~config sc with
          | r ->
            Printf.sprintf "{\"name\":\"%s\",\"verified\":%b,\"stats\":%s}"
              (json_escape name) r.Xl_core.Learn.verified
              (Xl_core.Stats.to_json r.Xl_core.Learn.stats)
          | exception e ->
            Printf.sprintf "{\"name\":\"%s\",\"error\":\"%s\"}" (json_escape name)
              (json_escape (Printexc.to_string e)))
        scenarios
    in
    (rows, Unix.gettimeofday () -. t0)
  in
  (* scaled XMark: one-shot wall clock at 10x the default populations —
     the document sizes the streaming path exists for.  Single runs, not
     adaptive batches: at this size the times are far above timer noise. *)
  let scaled_factor = 10 in
  let sscale = Xl_workload.Xmark_gen.scale_factor scaled_factor in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let (_, sfz), stream_gen_s =
    wall (fun () -> Xl_workload.Xmark_gen.generate_frozen sscale)
  in
  let tree_doc, tree_gen_s = wall (fun () -> Xl_workload.Xmark_gen.generate sscale) in
  let _, tree_freeze_s = wall (fun () -> Xl_xml.Frozen.freeze tree_doc) in
  let snap_scaled, scaled_save_s =
    wall (fun () -> Xl_xml.Snapshot.to_string sfz)
  in
  let scaled_loaded, scaled_load_s =
    wall (fun () -> Xl_xml.Snapshot.of_string snap_scaled)
  in
  let scaled_load_ok = Xl_xml.Frozen.structural_equal sfz scaled_loaded in
  let scaled_nodes = Xl_xml.Frozen.size sfz in
  Printf.printf
    "=> xmark x%d: %d nodes; stream gen %.3f s vs tree gen+freeze %.3f s; snapshot %d bytes, save %.3f s, load %.3f s, round-trip equal: %b\n%!"
    scaled_factor scaled_nodes stream_gen_s (tree_gen_s +. tree_freeze_s)
    (String.length snap_scaled) scaled_save_s scaled_load_s scaled_load_ok;
  let xmark_scenarios = prepare_scenarios (Xl_workload.Xmark_scenarios.all ()) in
  let xmp_scenarios = prepare_scenarios (Xl_workload.Xmp_scenarios.all ()) in
  Obs.reset ();
  Obs.set_enabled true;
  print_endline "running fig16 suites (sequential)...";
  let seq = Pool.create ~domains:1 () in
  (* sequence watermarks bracket each sequential leg: the xmark and xmp
     scenarios share names (Q1..Q19), so per-scenario latency spans are
     attributed by the seq window of their own suite *)
  let w0 = Obs.next_seq () in
  let xmark_rows, xmark_s = run_suite ~on:seq xmark_scenarios in
  let w1 = Obs.next_seq () in
  let xmp_rows, xmp_s = run_suite ~on:seq xmp_scenarios in
  let w2 = Obs.next_seq () in
  Printf.printf "fig16-xmark %.2f s, fig16-xmp %.2f s\n%!" xmark_s xmp_s;
  let par = pool () in
  Printf.printf "running fig16 suites (parallel, %d jobs)...\n%!" (Pool.domains par);
  (* the parallel leg also hands the pool to each Learn.run: the
     intra-scenario fan-outs (oracle batch chunks, schema precompute,
     the C-Learner relay scan) reuse idle workers when the suite's own
     scenario fan-out leaves some — and degrade to sequential inside a
     busy worker (Pool nesting rule), so the rows stay byte-identical *)
  let par_config = { Xl_core.Learn.default_config with pool = Some par } in
  let par_xmark_rows, par_xmark_s =
    run_suite ~config:par_config ~on:par xmark_scenarios
  in
  let par_xmark_stats = Pool.stats par in
  let par_xmp_rows, par_xmp_s =
    run_suite ~config:par_config ~on:par xmp_scenarios
  in
  let par_xmp_stats = Pool.stats par in
  Printf.printf "fig16-xmark %.2f s, fig16-xmp %.2f s\n%!" par_xmark_s par_xmp_s;
  let rows_match = xmark_rows = par_xmark_rows && xmp_rows = par_xmp_rows in
  (* per-scenario latency quantiles from the sequential leg's learn.task
     spans (detail = "scenario/task"), appended to the row strings only
     AFTER the sequential/parallel comparison above: the compared rows
     must stay latency-free, or timing jitter would fail rows_match *)
  let scenario_latency ~lo ~hi scenarios rows =
    let spans = Obs.spans () in
    let durs_for name =
      let prefix = name ^ "/" in
      let plen = String.length prefix in
      List.filter_map
        (fun (r : Obs.span_rec) ->
          if
            r.Obs.sp_seq >= lo && r.Obs.sp_seq < hi
            && String.equal r.Obs.sp_name "learn.task"
          then
            match r.Obs.sp_detail with
            | Some d
              when String.length d >= plen && String.equal (String.sub d 0 plen) prefix
              ->
              Some r.Obs.sp_dur_ns
            | _ -> None
          else None)
        spans
    in
    List.map2
      (fun (name, _) row ->
        match durs_for name with
        | [] -> row
        | durs ->
          let p q = Obs.quantile_of durs q in
          Printf.sprintf
            "%s,\"latency_ns\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"samples\":%d}}"
            (String.sub row 0 (String.length row - 1))
            (p 0.5) (p 0.95) (p 0.99) (List.length durs))
      scenarios rows
  in
  let xmark_rows = scenario_latency ~lo:w0 ~hi:w1 xmark_scenarios xmark_rows in
  let xmp_rows = scenario_latency ~lo:w1 ~hi:w2 xmp_scenarios xmp_rows in
  let seq_total = xmark_s +. xmp_s and par_total = par_xmark_s +. par_xmp_s in
  Printf.printf
    "=> fig16 wall: sequential %.2f s, parallel %.2f s (%.2fx on %d jobs), rows match: %b\n%!"
    seq_total par_total (seq_total /. par_total) (Pool.domains par) rows_match;
  let micro_json =
    String.concat ",\n    "
      (List.rev_map
         (fun (name, ns, runs) ->
           Printf.sprintf "{\"name\":\"%s\",\"ns_per_run\":%.1f,\"runs\":%d}"
             (json_escape name) ns runs)
         !micro)
  in
  (* telemetry block: per-phase span totals + metric snapshot over the
     fig16 suites, and the parallel pool's per-worker scheduling stats *)
  let worker_stats_json stats =
    String.concat ","
      (Array.to_list
         (Array.map
            (fun (s : Pool.worker_stat) ->
              Printf.sprintf "{\"tasks\":%d,\"busy_ns\":%d}" s.Pool.tasks
                s.Pool.busy_ns)
            stats))
  in
  let telemetry_json =
    Printf.sprintf
      "{\n    \"obs\": %s,\n    \"pool\": {\"jobs\":%d,\"xmark_workers\":[%s],\"xmp_workers\":[%s]}\n  }"
      (Obs.telemetry_json ~indent:"    " ())
      (Pool.domains par)
      (worker_stats_json par_xmark_stats)
      (worker_stats_json par_xmp_stats)
  in
  let json =
    Printf.sprintf
      {|{
  "schema": "xlearner-perf/1",
  "micro": [
    %s
  ],
  "q1_join": {
    "hash_ns_per_run": %.1f,
    "nested_ns_per_run": %.1f,
    "speedup": %.2f
  },
  "ingest": {
    "xml_bytes": %d,
    "parse_throughput_mb_s": %.1f,
    "stream_vs_tree_speedup": %.2f,
    "snapshot_load_vs_reparse": %.2f
  },
  "xmark_scaled": {
    "factor": %d,
    "nodes": %d,
    "stream_generate_s": %.3f,
    "tree_generate_freeze_s": %.3f,
    "snapshot_bytes": %d,
    "snapshot_save_s": %.3f,
    "snapshot_load_s": %.3f,
    "roundtrip_equal": %b
  },
  "fig16": {
    "xmark": { "wall_s": %.3f, "scenarios": [
      %s
    ] },
    "xmp": { "wall_s": %.3f, "scenarios": [
      %s
    ] },
    "total_wall_s": %.3f,
    "parallel": {
      "jobs": %d,
      "sequential_wall_s": %.3f,
      "parallel_wall_s": %.3f,
      "speedup": %.2f,
      "rows_match": %b
    }
  },
  "telemetry": %s
}
|}
      micro_json hash_ns nested_ns speedup xml_bytes parse_mb_s
      stream_speedup load_speedup scaled_factor scaled_nodes stream_gen_s
      (tree_gen_s +. tree_freeze_s)
      (String.length snap_scaled)
      scaled_save_s scaled_load_s scaled_load_ok xmark_s
      (String.concat ",\n      " xmark_rows)
      xmp_s
      (String.concat ",\n      " xmp_rows)
      (xmark_s +. xmp_s) (Pool.domains par) seq_total par_total
      (seq_total /. par_total) rows_match telemetry_json
  in
  (* keep the "server" block (owned by `bench serve`) across rewrites *)
  let json =
    match existing_server_block "BENCH_perf.json" with
    | Some block -> splice_server_block json block
    | None -> json
  in
  let oc = open_out "BENCH_perf.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_perf.json\n%!";
  if not rows_match then begin
    Printf.eprintf
      "FAIL: fig16 scenario rows differ between sequential and parallel runs\n";
    exit 1
  end;
  if speedup <= 1.0 then begin
    Printf.eprintf "FAIL: hash join (%.0f ns) not faster than nested loop (%.0f ns)\n"
      hash_ns nested_ns;
    exit 1
  end;
  if stream_speedup <= 1.0 then begin
    Printf.eprintf
      "FAIL: streaming ingest (%.0f ns) not faster than parse+freeze (%.0f ns)\n"
      stream_ns tree_ns;
    exit 1
  end;
  if load_speedup < 10.0 then begin
    Printf.eprintf
      "FAIL: snapshot load (%.0f ns) not >= 10x faster than re-parsing (%.0f ns)\n"
      snap_load_ns tree_ns;
    exit 1
  end;
  if not scaled_load_ok then begin
    Printf.eprintf "FAIL: scaled snapshot round-trip is not structurally equal\n";
    exit 1
  end

(* ---------- frozen-store scan micro (make bench-frozen) ------------------ *)

(* [frozen] exercises the frozen-snapshot selection engine under domain
   fan-out: one store, frozen once by [Store.prepare], scanned
   concurrently by every pool worker through per-domain evaluation
   contexts (the snapshots are immutable and shared).  Each engine's
   results are fingerprinted; a digest mismatch — across domains or
   between the frozen scan and the pointer-walking reference evaluator
   ({!Xl_fuzz.Ref_eval}) — fails the run.  Worker count: -j N as
   elsewhere. *)
let frozen_bench () =
  print_endline line;
  print_endline "Frozen-store single-pass selection (shared snapshots across domains)";
  print_endline line;
  let scale =
    {
      Xl_workload.Xmark_gen.categories = 24;
      items_per_region = 30;
      people = 30;
      open_auctions = 20;
      closed_auctions = 25;
    }
  in
  let doc = Xl_workload.Xmark_gen.generate scale in
  let store = Xl_xml.Store.of_docs [ doc ] in
  Xl_xml.Store.prepare store;
  Xl_xml.Store.set_strict store true;
  let paths =
    [
      "/site/regions/europe/item/description";
      "/site/regions/(europe|africa)/item/incategory/@category";
      "/site/categories/category/name";
      "/site/people/person/@id";
      "/site/open_auctions/open_auction/bidder";
    ]
  in
  let p = pool () in
  let jobs = Pool.domains p in
  let tasks = max 2 (jobs * 2) in
  let rounds = 100 in
  let task engine _index =
    (* per-task context: domain-confined mutable state over the shared
       read-only store, per the pool's confinement contract *)
    let ctx = Xl_xquery.Eval.make_ctx store in
    let run =
      match engine with
      | `Frozen ->
        fun ast ->
          (* raw scan speed, not memoized replay *)
          Hashtbl.reset ctx.Xl_xquery.Eval.extent_cache;
          Xl_xquery.Eval.run_to_string ctx ast
      | `Pointer_walk -> Xl_fuzz.Ref_eval.run_to_string ctx
    in
    let asts = List.map Xl_xquery.Parser.parse paths in
    let buf = Buffer.create 4096 in
    for _ = 1 to rounds do
      Buffer.clear buf;
      List.iter (fun ast -> Buffer.add_string buf (run ast)) asts
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let time label engine =
    let t0 = Unix.gettimeofday () in
    let digests = Pool.map p (task engine) (List.init tasks Fun.id) in
    let dt = Unix.gettimeofday () -. t0 in
    let digest =
      match digests with
      | d :: rest when List.for_all (String.equal d) rest -> d
      | _ ->
        Printf.eprintf "FAIL: %s results differ across domains\n" label;
        exit 1
    in
    Printf.printf "%-24s %3d jobs %10.1f ms  (%d tasks x %d rounds x %d paths)\n%!"
      label jobs (dt *. 1e3) tasks rounds (List.length paths);
    (dt, digest)
  in
  let fz_s, fz_digest = time "frozen-scan" `Frozen in
  let pw_s, pw_digest = time "pointer-walk" `Pointer_walk in
  if not (String.equal fz_digest pw_digest) then begin
    Printf.eprintf "FAIL: frozen scan and pointer walk disagree\n";
    exit 1
  end;
  Printf.printf "=> frozen scan %.2fx vs pointer walk at %d jobs, results identical\n\n%!"
    (pw_s /. fz_s) jobs

(* ---------- streaming ingestion bench (make bench-stream) ---------------- *)

(* [stream] measures document ingestion at growing XMark scales — the
   one-pass streaming builder against the tree walk + freeze, XML parse
   throughput, and binary snapshot save/load — then runs the Figure-16
   XMark suite over a 10x streamed store to show the learner is
   oblivious to how its documents entered the store. *)
let stream_bench () =
  Obs.set_enabled false;
  print_endline line;
  print_endline "Streaming ingestion vs the tree path (XMark scale ladder)";
  print_endline line;
  Printf.printf "%6s %9s %9s %9s %6s %9s %8s %8s %7s\n" "factor" "nodes"
    "tree_s" "stream_s" "gain" "parse" "snap_MB" "load_ms" "vs_rep";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun factor ->
      let scale = Xl_workload.Xmark_gen.scale_factor factor in
      (* same fragment for both legs: the comparison is pure ingestion *)
      let frag = Xl_workload.Xmark_gen.generate_frag scale in
      (* untimed warm-up build: grow the heap to the peak working set up
         front, so whichever timed leg runs while the other leg's result
         is still live doesn't pay the one-time allocator growth *)
      ignore (Xl_xml.Frozen_builder.of_frag ~uri:"auction.xml" frag);
      let tree_fz, tree_s =
        wall (fun () -> Xl_xml.Frozen.freeze (Xl_xml.Doc.of_frag ~uri:"auction.xml" frag))
      in
      let (_, stream_fz), stream_s =
        wall (fun () -> Xl_xml.Frozen_builder.of_frag ~uri:"auction.xml" frag)
      in
      if not (Xl_xml.Frozen.structural_equal tree_fz stream_fz) then begin
        Printf.eprintf "FAIL: streamed snapshot differs from frozen tree at x%d\n"
          factor;
        exit 1
      end;
      let xml_text =
        Xl_xml.Serialize.node_to_string
          (Xl_xml.Doc.root (Xl_xml.Frozen.doc tree_fz))
      in
      let (_, parsed_fz), parse_s =
        wall (fun () -> Xl_xml.Frozen_builder.parse ~uri:"auction.xml" xml_text)
      in
      let mb_s = float_of_int (String.length xml_text) /. parse_s /. 1e6 in
      let snap, _save_s = wall (fun () -> Xl_xml.Snapshot.to_string stream_fz) in
      let loaded, load_s = wall (fun () -> Xl_xml.Snapshot.of_string snap) in
      if not (Xl_xml.Frozen.structural_equal stream_fz loaded) then begin
        Printf.eprintf "FAIL: snapshot round-trip differs at x%d\n" factor;
        exit 1
      end;
      ignore parsed_fz;
      (* persist the 10x snapshot: CI uploads it as a build artifact so a
         scaled store can be loaded without re-running the generator *)
      if factor = 10 then Xl_xml.Snapshot.save "XMARK_10x.snapshot" stream_fz;
      Printf.printf "%6d %9d %9.3f %9.3f %5.1fx %7.1fMB/s %7.2f %8.1f %6.1fx\n%!"
        factor
        (Xl_xml.Frozen.size stream_fz)
        tree_s stream_s (tree_s /. stream_s) mb_s
        (float_of_int (String.length snap) /. 1e6)
        (load_s *. 1e3) (parse_s /. load_s))
    [ 1; 10; 100 ];
  (* the scaled Figure-16 variant: the whole XMark suite over a 10x
     document that entered the store through the streaming builder *)
  print_endline line;
  print_endline "Figure 16 (XMark suite) on a 10x streamed store";
  print_endline line;
  let scenarios =
    prepare_scenarios
      (Xl_workload.Xmark_scenarios.all
         ~scale:(Xl_workload.Xmark_gen.scale_factor 10)
         ~streamed:true ())
  in
  let t0 = Unix.gettimeofday () in
  let rows =
    Pool.map (pool ())
      (fun (name, sc) ->
        let r = Xl_core.Learn.run sc in
        (name, r.Xl_core.Learn.verified, Xl_core.Stats.to_row r.Xl_core.Learn.stats))
      scenarios
  in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (name, verified, row) ->
      Printf.printf "%-5s %s %s\n" name (if verified then "ok  " else "FAIL") row)
    rows;
  let bad = List.filter (fun (_, v, _) -> not v) rows in
  Printf.printf "=> %d/%d scenarios verified on the streamed 10x store in %.2f s\n\n%!"
    (List.length rows - List.length bad)
    (List.length rows) dt;
  if bad <> [] then exit 1

(* ---------- batched-oracle micro + end-to-end (make bench-batch) --------- *)

(* [batch] quantifies the batched membership oracle: first a micro
   comparison — one DFA pass over a fill's shared prefix trie vs one
   automaton walk per word, on an observation-table-shaped batch, whose
   answers must agree (exit 1 otherwise) — then the Figure-16 suites
   end-to-end, reporting how much of L* the batched oracle carries. *)
let batch_bench () =
  print_endline line;
  print_endline "Batched membership oracle vs word-at-a-time (make bench-batch)";
  print_endline line;
  Obs.set_enabled false;
  (* micro: S is every word over {0..3} up to length 4 (prefix-closed,
     like L*'s row labels), E a small suffix set; the batch is S x E *)
  let dfa =
    Xl_automata.Regex.to_dfa ~alphabet_size:8
      Xl_automata.Regex.(
        seq [ Sym 0; Star (alt [ Sym 1; Sym 2; Sym 3 ]); Sym 4 ])
  in
  let s_rows =
    let rec grow acc frontier k =
      if k = 0 then acc
      else
        let next =
          List.concat_map (fun w -> List.init 4 (fun s -> s :: w)) frontier
        in
        grow (acc @ next) next (k - 1)
    in
    List.map List.rev (grow [ [] ] [ [] ] 4)
  in
  let e_cols = [ []; [ 4 ]; [ 2; 4 ]; [ 5 ] ] in
  let words =
    List.concat_map (fun s -> List.map (fun e -> s @ e) e_cols) s_rows
  in
  if
    List.map (Xl_automata.Dfa.accepts dfa) words
    <> Xl_automata.Dfa.accepts_batch dfa words
  then begin
    Printf.eprintf "FAIL: batched answers differ from per-word answers\n";
    exit 1
  end;
  let per_word_ns, _ =
    time_ns (fun () -> ignore (List.map (Xl_automata.Dfa.accepts dfa) words))
  in
  let batched_ns, _ =
    time_ns (fun () -> ignore (Xl_automata.Dfa.accepts_batch dfa words))
  in
  (* the structural win is prefix sharing: count the symbol steps a
     per-word sweep walks vs the trie's distinct nodes.  On a raw
     in-memory DFA the per-word walk is nearly free, so the trie pass
     only pays off once a query carries real per-call overhead (memo
     probes, decoding, trace accounting) — report that breakeven *)
  let n_words = List.length words in
  let n_steps = List.fold_left (fun acc w -> acc + List.length w) 0 words in
  let n_shared =
    let trie = Xl_automata.Trie.create () in
    List.iter (fun w -> ignore (Xl_automata.Trie.add_word trie w)) words;
    Xl_automata.Trie.size trie - 1
  in
  Printf.printf
    "oracle micro: %d-word fill, %d symbol steps per-word vs %d shared (%.1fx fewer)\n\
    \              raw DFA walk %.0f ns, trie pass %.0f ns -> batching pays once a query costs > %.0f ns of overhead\n%!"
    n_words n_steps n_shared
    (float_of_int n_steps /. float_of_int n_shared)
    per_word_ns batched_ns
    ((batched_ns -. per_word_ns) /. float_of_int n_words);
  (* end-to-end: both fig16 suites *)
  let scenarios =
    prepare_scenarios (Xl_workload.Xmark_scenarios.all ())
    @ prepare_scenarios (Xl_workload.Xmp_scenarios.all ())
  in
  let span_ns name =
    match
      List.find_opt
        (fun (t : Obs.span_total) -> String.equal t.Obs.st_name name)
        (Obs.span_totals ())
    with
    | Some t -> t.Obs.st_total_ns
    | None -> 0
  in
  Obs.reset ();
  Obs.set_enabled true;
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, sc) -> ignore (Xl_core.Learn.run sc)) scenarios;
  let wall = Unix.gettimeofday () -. t0 in
  let lstar_ns = span_ns "lstar.learn" and oracle_batch_ns = span_ns "oracle.batch" in
  let mq_batched =
    match Obs.Counter.find "mq_batched" with
    | Some c -> Obs.Counter.value c
    | None -> 0
  in
  Obs.set_enabled false;
  Printf.printf
    "fig16 end-to-end: wall %.2f s, lstar.learn %.1f ms, oracle.batch %.1f ms, %d membership queries batch-answered\n\n%!"
    wall
    (float_of_int lstar_ns /. 1e6)
    (float_of_int oracle_batch_ns /. 1e6)
    mq_batched

(* ---------- resumable machine smoke (bench machine) ---------------------- *)

(* The learner state-machine protocol end-to-end on both Figure-16
   suites.  For every scenario: [record] drive it through Machine.step,
   checking the interaction row against the synchronous Learn.run;
   [replay] re-feed the recorded answers into a fresh machine and check
   the row again; [resume] snapshot at the middle question, restore the
   snapshot and finish, checking the final query and row once more.
   Exits non-zero on any mismatch. *)
let machine_bench () =
  print_endline line;
  print_endline "Resumable learner machine: record, replay, snapshot/restore";
  print_endline line;
  let module M = Xl_core.Machine in
  let scenarios =
    prepare_scenarios (Xl_workload.Xmark_scenarios.all ())
    @ prepare_scenarios (Xl_workload.Xmp_scenarios.all ())
  in
  let failures = ref 0 in
  let total_steps = ref 0 in
  List.iter
    (fun (name, sc) ->
      Printf.printf "  %-5s %!" name;
      match Xl_core.Learn.run sc with
      | exception e ->
        Printf.printf "skip (%s)\n%!" (Printexc.to_string e)
      | reference ->
        let ref_row = Xl_core.Stats.to_row reference.Xl_core.Learn.stats in
        (* record *)
        let m0 = M.start sc in
        let teacher = M.oracle_teacher m0 in
        let rec record answers m =
          match M.outcome m with
          | `Done r -> (r, List.rev answers)
          | `Ask q ->
            let a = M.answer_with teacher q in
            record (a :: answers) (snd (M.step m a))
        in
        let r_rec, answers = record [] m0 in
        let row_rec = Xl_core.Stats.to_row r_rec.Xl_core.Learn.stats in
        let nsteps = List.length answers in
        total_steps := !total_steps + nsteps;
        (* replay the recorded answers into a fresh machine *)
        let row_replay =
          let rec refeed m = function
            | [] -> m
            | a :: rest -> refeed (snd (M.step m a)) rest
          in
          match M.outcome (refeed (M.start sc) answers) with
          | `Done r -> Xl_core.Stats.to_row r.Xl_core.Learn.stats
          | `Ask _ -> "replay still asking after the full transcript"
        in
        (* snapshot at the middle question, restore, finish.  The fresh
           machine is driven by its own oracle teacher — the condition-box
           queues are per-run state, so a teacher borrowed from another
           machine would already be drained *)
        let row_resume, query_resume =
          let mid = nsteps / 2 in
          let m_fresh = M.start sc in
          let t2 = M.oracle_teacher m_fresh in
          let rec to_mid i m =
            match M.outcome m with
            | `Done _ -> m
            | `Ask _ when i = mid -> m
            | `Ask q -> to_mid (i + 1) (snd (M.step m (M.answer_with t2 q)))
          in
          let m_mid = to_mid 0 m_fresh in
          let snap = M.snapshot m_mid in
          M.abort m_mid;
          let m = M.restore ~scenario:sc snap in
          let r = M.drive ~teacher:(M.oracle_teacher m) m in
          (Xl_core.Stats.to_row r.Xl_core.Learn.stats, r.Xl_core.Learn.query_text)
        in
        let ok =
          String.equal ref_row row_rec
          && String.equal ref_row row_replay
          && String.equal ref_row row_resume
          && String.equal reference.Xl_core.Learn.query_text query_resume
        in
        if not ok then begin
          incr failures;
          Printf.printf "FAIL\n    sync   %s\n    record %s\n    replay %s\n    resume %s\n%!"
            ref_row row_rec row_replay row_resume
        end
        else
          Printf.printf "ok  %3d steps, rows identical across record/replay/resume\n%!"
            nsteps)
    scenarios;
  if !failures > 0 then begin
    Printf.eprintf "FAIL: %d scenarios diverged under the machine protocol\n" !failures;
    exit 1
  end;
  Printf.printf
    "=> %d scenarios, %d machine steps: every row byte-identical to the synchronous driver\n\n%!"
    (List.length scenarios) !total_steps

(* ---------- learning-as-a-service load harness (bench serve) ------------- *)

let serve_sessions = ref 1024
let serve_no_block = ref false

(* [serve] measures lib/server end-to-end over a real Unix socket: an
   in-process server, client threads speaking actual HTTP/1.1 + JSON.
   Three legs:

   - parity: every Figure-16 scenario driven to completion through
     [POST .../answer {"auto":n}] must report the same interaction row,
     stats JSON and verified flag as a synchronous [Learn.run] on an
     independently built scenario — the server path answers the paper's
     numbers byte-for-byte;
   - load: [--sessions N] (default 1024) sessions created first — all
     live at once — then driven to completion by interleaved auto-steps
     from several client threads, measuring sessions/sec and
     per-request latency quantiles at the client;
   - suspend/resume: round-trip micros for snapshot-to-spool and back
     on a live session, which must still finish verified afterwards.

   The results land in the "server" block of BENCH_perf.json (gated by
   perf-gate); --no-block skips that write (CI smoke mode).  Exits
   non-zero on any parity mismatch, request error or failed
   verification. *)
let serve_bench () =
  let module Server = Xl_server.Server in
  let module Client = Xl_server.Client in
  let module Json = Xl_json.Json in
  print_endline line;
  print_endline
    "Learning-as-a-service: concurrent sessions over a Unix socket (bench serve)";
  print_endline line;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xlearner-bench-%d.sock" (Unix.getpid ()))
  in
  let spool = socket ^ ".spool" in
  let server = Server.create ?workers:!jobs_override ~spool ~socket () in
  let server_thread = Thread.create Server.serve server in
  let failures = ref 0 in
  let req c meth path ?body () =
    let status, j = Client.request c ~meth ~path ?body () in
    if status >= 400 then
      failwith
        (Printf.sprintf "%s %s -> %d: %s" meth path status (Json.to_string j));
    j
  in
  let auto n = Json.Obj [ ("auto", Json.int n) ] in
  let drive c id first =
    let rec go j =
      match Json.member "done" j with
      | Some d -> d
      | None ->
        go (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 10_000) ())
    in
    go first
  in
  (* -- parity ---------------------------------------------------------- *)
  let catalog =
    List.map
      (fun (n, sc) -> ("xmark/" ^ n, sc))
      (prepare_scenarios (Xl_workload.Xmark_scenarios.all ()))
    @ List.map
        (fun (n, sc) -> ("xmp/" ^ n, sc))
        (prepare_scenarios (Xl_workload.Xmp_scenarios.all ()))
  in
  let c0 = Client.connect socket in
  let health = req c0 "GET" "/health" () in
  let workers = Option.value ~default:0 (Json.mem_int "workers" health) in
  Printf.printf "server up: %d workers, %d catalog scenarios for parity\n%!"
    workers (List.length catalog);
  let parity_bad = ref 0 in
  List.iter
    (fun (ref_name, sc) ->
      (* the local run uses a freshly built scenario: parity across
         independently constructed stores, not shared state *)
      match Xl_core.Learn.run sc with
      | exception e ->
        incr parity_bad;
        Printf.printf "  %-10s local run FAILED: %s\n%!" ref_name
          (Printexc.to_string e)
      | local -> (
        let local_row = Xl_core.Stats.to_row local.Xl_core.Learn.stats in
        let local_stats =
          match Json.parse (Xl_core.Stats.to_json local.Xl_core.Learn.stats) with
          | Ok j -> Json.to_string j
          | Error e -> "unparseable: " ^ e
        in
        match
          let j =
            req c0 "POST" "/sessions"
              ~body:(Json.Obj [ ("scenario", Json.Str ref_name) ])
              ()
          in
          let id = Option.get (Json.mem_str "id" j) in
          let d = drive c0 id j in
          ignore (req c0 "DELETE" ("/sessions/" ^ id) ());
          d
        with
        | exception e ->
          incr parity_bad;
          Printf.printf "  %-10s server run FAILED: %s\n%!" ref_name
            (Printexc.to_string e)
        | d ->
          let row = Option.value ~default:"?" (Json.mem_str "row" d) in
          let verified = Json.mem_bool "verified" d = Some true in
          let stats =
            match Json.member "stats" d with
            | Some s -> Json.to_string s
            | None -> "missing"
          in
          let ok =
            String.equal local_row row
            && String.equal local_stats stats
            && verified && local.Xl_core.Learn.verified
          in
          if not ok then begin
            incr parity_bad;
            Printf.printf
              "  %-10s MISMATCH\n    local  %s verified:%b\n    server %s verified:%b\n    local  %s\n    server %s\n%!"
              ref_name local_row local.Xl_core.Learn.verified row verified
              local_stats stats
          end))
    catalog;
  Client.close c0;
  Printf.printf
    "parity: %d scenarios, %d mismatches — server rows %s synchronous Learn.run\n%!"
    (List.length catalog) !parity_bad
    (if !parity_bad = 0 then "byte-identical to" else "DIFFER from");
  if !parity_bad > 0 then incr failures;
  (* -- load ------------------------------------------------------------ *)
  let n_sessions = !serve_sessions in
  let n_threads = min 8 (max 2 ((n_sessions + 63) / 64)) in
  let scen_names = Array.of_list (List.map fst catalog) in
  let ids = Array.make n_sessions "" in
  let lat = Array.make n_threads [] in
  let errors = Atomic.make 0 in
  let spawn_each f =
    let ts = List.init n_threads (fun ti -> Thread.create f ti) in
    List.iter Thread.join ts
  in
  let t0 = Unix.gettimeofday () in
  (* phase 1: create every session — all of them live at once *)
  spawn_each (fun ti ->
      let c = Client.connect socket in
      let i = ref ti in
      while !i < n_sessions do
        let scen = scen_names.(!i mod Array.length scen_names) in
        let q0 = Unix.gettimeofday () in
        (match
           Client.request c ~meth:"POST" ~path:"/sessions"
             ~body:(Json.Obj [ ("scenario", Json.Str scen) ])
             ()
         with
        | 201, j -> ids.(!i) <- Option.value ~default:"" (Json.mem_str "id" j)
        | _, _ -> Atomic.incr errors
        | exception _ -> Atomic.incr errors);
        lat.(ti) <-
          int_of_float ((Unix.gettimeofday () -. q0) *. 1e6) :: lat.(ti);
        i := !i + n_threads
      done;
      Client.close c);
  let concurrent_peak =
    let c = Client.connect socket in
    let h = req c "GET" "/health" () in
    Client.close c;
    Option.value ~default:0 (Json.mem_int "sessions" h)
  in
  Printf.printf "load: %d sessions live after create phase (%d threads)\n%!"
    concurrent_peak n_threads;
  (* phase 2: drive them to completion, interleaved — each thread
     round-robins small auto-steps over its slice, so one worker serves
     many part-way dialogues at every moment, like real users would *)
  spawn_each (fun ti ->
      let c = Client.connect socket in
      let slice = ref [] in
      let i = ref ti in
      while !i < n_sessions do
        if ids.(!i) <> "" then slice := ids.(!i) :: !slice;
        i := !i + n_threads
      done;
      while !slice <> [] do
        slice :=
          List.filter
            (fun id ->
              let q0 = Unix.gettimeofday () in
              let keep =
                match
                  Client.request c ~meth:"POST"
                    ~path:("/sessions/" ^ id ^ "/answer")
                    ~body:(auto 5) ()
                with
                | 200, j -> Option.is_none (Json.member "done" j)
                | _, _ ->
                  Atomic.incr errors;
                  false
                | exception _ ->
                  Atomic.incr errors;
                  false
              in
              lat.(ti) <-
                int_of_float ((Unix.gettimeofday () -. q0) *. 1e6) :: lat.(ti);
              keep)
            !slice
      done;
      Client.close c);
  let wall_s = Unix.gettimeofday () -. t0 in
  (* phase 3 (untimed): tear the finished sessions down *)
  spawn_each (fun ti ->
      let c = Client.connect socket in
      let i = ref ti in
      while !i < n_sessions do
        if ids.(!i) <> "" then
          (try
             ignore
               (Client.request c ~meth:"DELETE" ~path:("/sessions/" ^ ids.(!i)) ())
           with _ -> Atomic.incr errors);
        i := !i + n_threads
      done;
      Client.close c);
  let micros = List.concat (Array.to_list lat) in
  let p q = Obs.quantile_of micros q in
  let requests = List.length micros in
  let sessions_per_sec = float_of_int n_sessions /. wall_s in
  Printf.printf
    "load: %d sessions in %.2f s = %.1f sessions/s; %d requests, p50 %d us, p95 %d us, p99 %d us, %d errors\n%!"
    n_sessions wall_s sessions_per_sec requests (p 0.5) (p 0.95) (p 0.99)
    (Atomic.get errors);
  if Atomic.get errors > 0 then incr failures;
  (* -- suspend/resume round trip --------------------------------------- *)
  let c = Client.connect socket in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmark/Q8") ]) ()
  in
  let id = Option.get (Json.mem_str "id" j) in
  ignore (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ());
  let round_trips = 50 in
  let rt = ref [] in
  for _ = 1 to round_trips do
    let q0 = Unix.gettimeofday () in
    ignore (req c "POST" ("/sessions/" ^ id ^ "/suspend") ());
    ignore
      (req c "POST" "/sessions/resume" ~body:(Json.Obj [ ("id", Json.Str id) ]) ());
    rt := int_of_float ((Unix.gettimeofday () -. q0) *. 1e6) :: !rt
  done;
  let rq q = Obs.quantile_of !rt q in
  (* the much-suspended session must still learn the right query *)
  let d =
    drive c id (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ())
  in
  let verified_after = Json.mem_bool "verified" d = Some true in
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c;
  Printf.printf
    "suspend/resume: %d round trips, p50 %d us, p95 %d us; session verified after: %b\n%!"
    round_trips (rq 0.5) (rq 0.95) verified_after;
  if not verified_after then incr failures;
  (* -- teardown + BENCH_perf.json server block -------------------------- *)
  Server.shutdown server;
  Thread.join server_thread;
  (try Unix.rmdir spool with Unix.Unix_error _ -> ());
  let block =
    Printf.sprintf
      "{\n\
      \    \"workers\": %d,\n\
      \    \"parity\": { \"scenarios\": %d, \"mismatches\": %d },\n\
      \    \"load\": {\n\
      \      \"sessions\": %d,\n\
      \      \"concurrent_peak\": %d,\n\
      \      \"client_threads\": %d,\n\
      \      \"requests\": %d,\n\
      \      \"errors\": %d,\n\
      \      \"wall_s\": %.3f,\n\
      \      \"sessions_per_sec\": %.1f,\n\
      \      \"request_p50_us\": %d,\n\
      \      \"request_p95_us\": %d,\n\
      \      \"request_p99_us\": %d\n\
      \    },\n\
      \    \"suspend_resume\": {\n\
      \      \"round_trips\": %d,\n\
      \      \"suspend_resume_p50_us\": %d,\n\
      \      \"suspend_resume_p95_us\": %d,\n\
      \      \"verified_after\": %b\n\
      \    }\n\
      \  }"
      workers (List.length catalog) !parity_bad n_sessions concurrent_peak
      n_threads requests (Atomic.get errors) wall_s sessions_per_sec (p 0.5)
      (p 0.95) (p 0.99) round_trips (rq 0.5) (rq 0.95) verified_after
  in
  if not !serve_no_block then begin
    let text =
      if Sys.file_exists "BENCH_perf.json" then read_file "BENCH_perf.json"
      else "{\n  \"schema\": \"xlearner-perf/1\"\n}\n"
    in
    let oc = open_out "BENCH_perf.json" in
    output_string oc (splice_server_block text block);
    close_out oc;
    Printf.printf "updated the \"server\" block of BENCH_perf.json\n%!"
  end;
  if !failures > 0 then begin
    Printf.eprintf "FAIL: bench serve — parity, request or verification failure\n";
    exit 1
  end;
  print_newline ()

(* ---------- perf regression gate (make bench-gate) ----------------------- *)

(* pull the float following [key] out of a perf JSON by substring scan —
   both files are machine-written by [perf_json] above, so the shapes
   are stable and a JSON-parser dependency is not warranted *)
let scan_float text key =
  let n = String.length text and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.equal (String.sub text i k) key then Some (i + k)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let j = ref i in
    while !j < n && text.[!j] = ' ' do incr j done;
    let s = !j in
    while
      !j < n
      && match text.[!j] with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false
    do
      incr j
    done;
    float_of_string_opt (String.sub text s (!j - s))

(* [perf-gate] compares the fresh BENCH_perf.json against
   BENCH_baseline.json (the committed baseline, staged by `make
   bench-gate`) and fails if any gated metric regressed by more than
   25% — wide enough for shared-runner noise, narrow enough to catch a
   lost fast path. *)
let perf_gate () =
  let baseline_path = "BENCH_baseline.json" in
  let fresh_path = "BENCH_perf.json" in
  if not (Sys.file_exists baseline_path) then begin
    Printf.eprintf
      "perf-gate: %s not found (run via `make bench-gate`, which stages the committed baseline)\n"
      baseline_path;
    exit 2
  end;
  let baseline = read_file baseline_path in
  let fresh = read_file fresh_path in
  let tolerance = 1.25 in
  let metrics =
    [
      ("path-eval-deep ns/run", {|"name":"path-eval-deep","ns_per_run":|});
      ("snapshot-load ns/run", {|"name":"snapshot-load","ns_per_run":|});
      ("q1 hash-join ns/run", {|"hash_ns_per_run": |});
      ("fig16 total wall s", {|"total_wall_s": |});
      ("server request p50 us", {|"request_p50_us": |});
      ("suspend/resume p50 us", {|"suspend_resume_p50_us": |});
    ]
  in
  print_endline line;
  Printf.printf "Perf gate — fresh run vs committed baseline (tolerance %.0f%%)\n"
    ((tolerance -. 1.) *. 100.);
  print_endline line;
  Printf.printf "%-24s %14s %14s %8s\n" "metric" "baseline" "fresh" "ratio";
  let failed = ref false in
  List.iter
    (fun (label, key) ->
      match scan_float baseline key, scan_float fresh key with
      | Some b, Some f when b > 0. ->
        let ratio = f /. b in
        let ok = ratio <= tolerance in
        if not ok then failed := true;
        Printf.printf "%-24s %14.1f %14.1f %7.2fx  %s\n" label b f ratio
          (if ok then "ok" else "REGRESSED")
      | _ ->
        failed := true;
        Printf.printf "%-24s metric missing from %s\n" label
          (if scan_float baseline key = None then baseline_path else fresh_path))
    metrics;
  (* higher-is-better: the fig16 parallel speedup must not fall below the
     baseline's by more than the tolerance.  Relative, not absolute — the
     attainable ratio is a property of the runner's core count, so the
     gate compares like with like instead of pinning a magic number. *)
  (let speedup_of text =
     match
       ( scan_float text {|"sequential_wall_s": |},
         scan_float text {|"parallel_wall_s": |} )
     with
     | Some s, Some p when p > 0. -> Some (s /. p)
     | _ -> None
   in
   match speedup_of baseline, speedup_of fresh with
   | Some b, Some f when b > 0. ->
     let ratio = f /. b in
     let ok = ratio >= 1. /. tolerance in
     if not ok then failed := true;
     Printf.printf "%-24s %14.2f %14.2f %7.2fx  %s\n" "fig16 parallel speedup" b
       f ratio
       (if ok then "ok" else "REGRESSED")
   | _ ->
     failed := true;
     Printf.printf "%-24s wall metrics missing\n" "fig16 parallel speedup");
  (* higher-is-better: streaming parse throughput (MB/s) and the
     session server's sessions/sec must not fall below the baseline's
     by more than the tolerance *)
  List.iter
    (fun (label, key) ->
      match scan_float baseline key, scan_float fresh key with
      | Some b, Some f when b > 0. ->
        let ratio = f /. b in
        let ok = ratio >= 1. /. tolerance in
        if not ok then failed := true;
        Printf.printf "%-24s %14.1f %14.1f %7.2fx  %s\n" label b f ratio
          (if ok then "ok" else "REGRESSED")
      | _ ->
        failed := true;
        Printf.printf "%-24s metric missing\n" label)
    [
      ("parse throughput MB/s", {|"parse_throughput_mb_s": |});
      ("server sessions/sec", {|"sessions_per_sec": |});
    ];
  if !failed then begin
    Printf.eprintf "FAIL: perf gate — a gated metric regressed beyond %.0f%%\n"
      ((tolerance -. 1.) *. 100.);
    exit 1
  end;
  Printf.printf "=> all gated metrics within tolerance\n\n"

(* ---------- offline trace analysis (make obs-report) --------------------- *)

(* [obs-report TRACE] replays a JSONL trace written by --trace through
   [Trace_analysis]: span-tree self vs child time, top self-time names,
   per-worker utilization/imbalance, and the critical path through the
   scenario fan-out.  With --check-perfetto / --check-folded it also
   round-trip-validates a Perfetto export and a folded profile (CI runs
   it in exactly that mode); --expect-stack NAME additionally requires
   at least one folded sample whose stack contains NAME. *)
let obs_report path =
  (match Trace_analysis.load path with
  | Error e ->
    Printf.eprintf "FAIL: obs-report: malformed trace %s: %s\n" path e;
    exit 1
  | Ok t -> print_string (Trace_analysis.report ~top:!obs_report_top t));
  (match !obs_check_perfetto with
  | None -> ()
  | Some p -> (
    match Perfetto.validate (read_file p) with
    | Ok n -> Printf.printf "perfetto %s: valid (%d span events)\n" p n
    | Error e ->
      Printf.eprintf "FAIL: perfetto %s: %s\n" p e;
      exit 1));
  match !obs_check_folded with
  | None -> ()
  | Some p ->
    let lines =
      String.split_on_char '\n' (read_file p)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let parse_line l =
      (* "outer;inner;leaf COUNT" — count after the last space *)
      match String.rindex_opt l ' ' with
      | None -> None
      | Some i -> (
        let stack = String.sub l 0 i in
        match int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
        | Some n when n > 0 && stack <> "" ->
          Some (String.split_on_char ';' stack, n)
        | _ -> None)
    in
    let parsed = List.map parse_line lines in
    List.iteri
      (fun i po ->
        if po = None then begin
          Printf.eprintf "FAIL: folded %s: malformed line %d: %s\n" p (i + 1)
            (List.nth lines i);
          exit 1
        end)
      parsed;
    let samples = List.filter_map Fun.id parsed in
    Printf.printf "folded %s: valid (%d stacks, %d samples)\n" p
      (List.length samples)
      (List.fold_left (fun acc (_, n) -> acc + n) 0 samples);
    (match !obs_expect_stack with
    | None -> ()
    | Some name ->
      let hits =
        List.fold_left
          (fun acc (stack, n) -> if List.mem name stack then acc + n else acc)
          0 samples
      in
      if hits = 0 then begin
        Printf.eprintf "FAIL: folded %s: no sample with %S on the stack\n" p name;
        exit 1
      end;
      Printf.printf "folded %s: %d samples with %S on the stack\n" p hits name)

(* ---------- property-based differential fuzzing ------------------------- *)

let fuzz_cases = ref 100
let fuzz_seed = ref 20040301
let fuzz_fresh = ref 3
let fuzz_only : int option ref = ref None
let fuzz_bug : string option ref = ref None

(* [fuzz] runs the lib/fuzz campaign: random DTD + covering document +
   in-class target query per case, full learning against the simulated
   teacher, differential equivalence on the training and fresh documents,
   evaluator/store parity, R1 soundness — failures are shrunk and dumped
   to FUZZ_counterexamples.txt (exit 1).  Deterministic for a fixed
   --seed at any -j. *)
let fuzz () =
  print_endline line;
  Printf.printf
    "Property-based differential fuzzing (seed %d, %s)\n" !fuzz_seed
    (match !fuzz_only with
    | Some i -> Printf.sprintf "case %d only" i
    | None -> Printf.sprintf "%d cases" !fuzz_cases);
  print_endline line;
  let bug =
    match !fuzz_bug with
    | None -> None
    | Some "drop-cond" -> Some Xl_fuzz.Props.Drop_learned_cond
    | Some "widen-path" -> Some Xl_fuzz.Props.Widen_learned_path
    | Some other ->
      Printf.eprintf "unknown --bug %S (expected drop-cond | widen-path)\n" other;
      exit 2
  in
  match !fuzz_only with
  | Some index ->
    let r = Xl_fuzz.Fuzz.run_case ?bug ~fresh:!fuzz_fresh ~seed:!fuzz_seed ~index () in
    (match r.Xl_fuzz.Fuzz.failure, r.Xl_fuzz.Fuzz.dump with
    | Some _, Some dump ->
      print_string dump;
      exit 1
    | _ -> Printf.printf "case %d passed\n" index)
  | None ->
    let report =
      Xl_fuzz.Fuzz.run ~pool:(pool ()) ?bug ~fresh:!fuzz_fresh ~cases:!fuzz_cases
        ~seed:!fuzz_seed ()
    in
    print_string (Xl_fuzz.Fuzz.report_to_string report);
    (match Xl_fuzz.Fuzz.dump_failures report with
    | None -> print_newline ()
    | Some dump ->
      let oc = open_out "FUZZ_counterexamples.txt" in
      output_string oc dump;
      close_out oc;
      Printf.printf "wrote FUZZ_counterexamples.txt\n";
      exit 1)

(* ---------- driver ------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* worker-count override: -j N, --jobs N or --jobs=N (else the
     XLEARNER_JOBS environment variable, see Xl_exec.Pool.default_jobs) *)
  let rec parse_jobs acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
        jobs_override := Some n;
        parse_jobs acc rest
      | _ ->
        Printf.eprintf "bad job count %S (expected a positive integer)\n" n;
        exit 2)
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> (
      match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
      | Some n when n > 0 ->
        jobs_override := Some n;
        parse_jobs acc rest
      | _ ->
        Printf.eprintf "bad job count in %S\n" arg;
        exit 2)
    | "--trace" :: path :: rest ->
      trace_path := Some path;
      parse_jobs acc rest
    | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--trace=" ->
      trace_path := Some (String.sub arg 8 (String.length arg - 8));
      parse_jobs acc rest
    | "--perfetto" :: path :: rest ->
      perfetto_path := Some path;
      parse_jobs acc rest
    | "--profile" :: path :: rest ->
      profile_path := Some path;
      parse_jobs acc rest
    | "--profile-interval-us" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
        profile_interval_us := v;
        parse_jobs acc rest
      | _ ->
        Printf.eprintf "bad --profile-interval-us %S\n" n;
        exit 2)
    | "--top" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
        obs_report_top := v;
        parse_jobs acc rest
      | _ ->
        Printf.eprintf "bad --top %S\n" n;
        exit 2)
    | "--check-perfetto" :: path :: rest ->
      obs_check_perfetto := Some path;
      parse_jobs acc rest
    | "--check-folded" :: path :: rest ->
      obs_check_folded := Some path;
      parse_jobs acc rest
    | "--expect-stack" :: name :: rest ->
      obs_expect_stack := Some name;
      parse_jobs acc rest
    | (("--cases" | "--seed" | "--fresh" | "--only") as opt) :: n :: rest -> (
      match int_of_string_opt n with
      | Some v ->
        (match opt with
        | "--cases" -> fuzz_cases := v
        | "--seed" -> fuzz_seed := v
        | "--fresh" -> fuzz_fresh := v
        | _ -> fuzz_only := Some v);
        parse_jobs acc rest
      | None ->
        Printf.eprintf "bad value %S for %s (expected an integer)\n" n opt;
        exit 2)
    | "--bug" :: name :: rest ->
      fuzz_bug := Some name;
      parse_jobs acc rest
    | "--sessions" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
        serve_sessions := v;
        parse_jobs acc rest
      | _ ->
        Printf.eprintf "bad --sessions %S (expected a positive integer)\n" n;
        exit 2)
    | "--no-block" :: rest ->
      serve_no_block := true;
      parse_jobs acc rest
    | arg :: rest -> parse_jobs (arg :: acc) rest
  in
  let args = parse_jobs [] args in
  (match !trace_path with
  | None -> trace_path := Sys.getenv_opt "XLEARNER_TRACE"
  | Some _ -> ());
  if !trace_path <> None || !perfetto_path <> None || !profile_path <> None then
    Obs.set_enabled true;
  if !profile_path <> None then
    Profiler.start ~interval_us:!profile_interval_us ();
  let run = function
    | "fig15" -> fig15 ()
    | "fig16-xmark" -> fig16_xmark ()
    | "fig16-xmp" -> fig16_xmp ()
    | "ablation" -> ablation ()
    | "reuse" -> reuse ()
    | "sgml" -> sgml ()
    | "perf" -> perf ()
    | "perf-json" -> perf_json ()
    | "perf-gate" -> perf_gate ()
    | "frozen" -> frozen_bench ()
    | "stream" -> stream_bench ()
    | "batch" -> batch_bench ()
    | "machine" -> machine_bench ()
    | "serve" -> serve_bench ()
    | "fuzz" -> fuzz ()
    | "all" ->
      fig15 ();
      fig16_xmark ();
      fig16_xmp ();
      sgml ();
      ablation ();
      reuse ();
      perf ()
    | other ->
      Printf.eprintf
        "unknown benchmark %S (expected fig15 | fig16-xmark | fig16-xmp | ablation | reuse | perf | perf-json | perf-gate | frozen | stream | batch | machine | serve | fuzz | obs-report TRACE | all)\n"
        other;
      exit 2
  in
  (match args with
  | "obs-report" :: rest -> (
    match rest with
    | [ path ] -> obs_report path
    | [] ->
      Printf.eprintf "obs-report: missing trace file argument\n";
      exit 2
    | _ ->
      Printf.eprintf "obs-report: expected exactly one trace file\n";
      exit 2)
  | [] -> run "all"
  | args -> List.iter run args);
  Profiler.stop ();
  (match !trace_path with
  | None -> ()
  | Some path ->
    Obs.write_jsonl path;
    Printf.printf "wrote trace %s\n" path;
    print_string (Obs.summary_table ()));
  (match !perfetto_path with
  | None -> ()
  | Some path ->
    Perfetto.write ~counter_samples:(Profiler.counter_samples ()) path;
    Printf.printf "wrote perfetto trace %s\n" path);
  match !profile_path with
  | None -> ()
  | Some path ->
    Profiler.write_folded path;
    Printf.printf "wrote folded profile %s (%d samples over %d ticks)\n" path
      (Profiler.sample_count ()) (Profiler.ticks ())
