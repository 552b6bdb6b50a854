(* Evaluation harness: regenerates every table/figure of the paper's
   evaluation (Figures 15 and 16), adds an R1/R2 ablation, and runs the
   untimed correctness legs of the engine, the learner machine and the
   server.
   Performance is measured in one place, the repository benchmark
   (perfbench/, declared by BENCHMARK.json); nothing here is timed.

     dune exec bench/main.exe                 -- the paper tables
     dune exec bench/main.exe -- fig15        -- expressive power table
     dune exec bench/main.exe -- fig16-xmark  -- interaction counts, XMark
     dune exec bench/main.exe -- fig16-xmp    -- interaction counts, XMP
     dune exec bench/main.exe -- ablation     -- rules R1/R2 on/off
     dune exec bench/main.exe -- reuse        -- re-learning with a session cache
     dune exec bench/main.exe -- sgml         -- extra suite: UC "SGML"
     dune exec bench/main.exe -- frozen       -- frozen-store scan parity on the
                                                 domain pool (make bench-frozen)
     dune exec bench/main.exe -- stream       -- ingestion ladder with a
                                                 parse-back check, 10x fig16
                                                 variant
                                                 (make bench-stream)
     dune exec bench/main.exe -- machine      -- record/replay/resume parity
                                                 (make bench-machine)
     dune exec bench/main.exe -- serve        -- server parity under concurrent
                                                 sessions (make bench-serve)
     dune exec bench/main.exe -- fuzz         -- differential fuzzing (make fuzz)
     dune exec bench/main.exe -- seed-sweep   -- every XMark scenario on seeds
                                                 1-40 plus XMP, exit 1 on any
                                                 unverified query
                                                 (make seed-sweep)
     dune exec bench/main.exe -- obs-report T -- offline analysis of a JSONL
                                                 trace T: span-tree self time,
                                                 worker utilization, critical
                                                 path (make obs-report)

   The Figure-16 suites fan their independent learn-and-verify scenario
   runs across OCaml 5 domains (Xl_exec.Pool).
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

let line = String.make 78 '-'

let read_file path = In_channel.with_open_bin path In_channel.input_all

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
  let rows = Pool.map (pool ()) (fig16_row paper_rows) scenarios in
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

(* ---------- Answer reuse (Section 11 future work) ----------------------- *)

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
  let module M = Xl_core.Machine in
  let run ?prior sc =
    let m = M.start ?prior sc in
    M.drive ~teacher:(M.oracle_teacher m) m
  in
  List.iter
    (fun (name, sc) ->
      let r1, m1 = run sc in
      let r2, _ = run ~prior:m1 sc in
      let fmt (r : Xl_core.Learn.result) =
        Printf.sprintf "%d %d %d" r.Xl_core.Learn.stats.Xl_core.Stats.mq
          r.Xl_core.Learn.stats.Xl_core.Stats.ce r.Xl_core.Learn.stats.Xl_core.Stats.cb
      in
      Printf.printf "%-10s %28s %28s %8d\n%!" name (fmt r1) (fmt r2)
        r2.Xl_core.Learn.stats.Xl_core.Stats.auto_known)
    subjects;
  print_endline
    "\n=> a re-learned drop box replays the first run's genuine answers: zero";
  print_endline "   membership queries the second time around\n"

(* ---------- seeded sweep (make seed-sweep) ------------------------------ *)

(* [seed-sweep] learns every XMark scenario on the instances of seeds
   1-40, then the XMP set, on the domain pool, and lists every learned
   query that failed verification and every session that raised.  The
   Figure-16 suites see one instance each; a seeded instance exposes
   drop contexts where the intended extent needs no condition, which
   only the repair sweep can then fix.  Exit 1 on any listed failure. *)
let sweep_seeds = 40

let seed_sweep () =
  print_endline line;
  Printf.printf "Seeded sweep: XMark on seeds 1-%d, then XMP\n" sweep_seeds;
  print_endline line;
  let learn (name, sc) =
    match Xl_core.Learn.run sc with
    | r when r.Xl_core.Learn.verified -> None
    | _ -> Some (name ^ ": unverified")
    | exception e -> Some (Printf.sprintf "%s: FAILED: %s" name (Printexc.to_string e))
  in
  let run_set label scenarios =
    let failures = List.filter_map Fun.id (Pool.map (pool ()) learn scenarios) in
    Printf.printf "%-10s %2d scenarios, %d not verified%s\n%!" label
      (List.length scenarios) (List.length failures)
      (String.concat "" (List.map (fun f -> "\n  " ^ f) failures));
    List.length failures
  in
  let xmark =
    List.fold_left
      (fun acc seed ->
        acc
        + run_set (Printf.sprintf "seed %d" seed)
            (Xl_workload.Xmark_scenarios.all ~seed ()))
      0
      (List.init sweep_seeds (fun i -> i + 1))
  in
  let failures = xmark + run_set "XMP" (Xl_workload.Xmp_scenarios.all ()) in
  Printf.printf "\n=> %d learned queries not verified\n\n" failures;
  if failures > 0 then exit 1

(* ---------- frozen-store scan parity (make bench-frozen) ----------------- *)

(* [frozen] exercises the frozen-snapshot selection engine under domain
   fan-out: one store, frozen once at construction, scanned
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
          (* every round a real scan of the shared snapshot, not a
             memoized replay *)
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
  let digest_of label engine =
    match Pool.map p (task engine) (List.init tasks Fun.id) with
    | d :: rest when List.for_all (String.equal d) rest ->
      Printf.printf "%-24s %3d jobs  %s  (%d tasks x %d rounds x %d paths)\n%!"
        label jobs d tasks rounds (List.length paths);
      d
    | _ ->
      Printf.eprintf "FAIL: %s results differ across domains\n" label;
      exit 1
  in
  let fz_digest = digest_of "frozen-scan" `Frozen in
  let pw_digest = digest_of "pointer-walk" `Pointer_walk in
  if not (String.equal fz_digest pw_digest) then begin
    Printf.eprintf "FAIL: frozen scan and pointer walk disagree\n";
    exit 1
  end;
  Printf.printf "=> frozen scan and pointer walk identical at %d jobs\n\n%!" jobs

(* ---------- ingestion ladder (make bench-stream) ---------------------- *)

(* [stream] builds documents at growing XMark scales through the one
   ingest path ([Doc.of_frag] + [Store.of_docs]), checks that the
   serialized instance parses back through [Xml_parser.parse_doc] to the
   same text, then runs the Figure-16 XMark suite over the 10x
   instance.  The cost of ingestion is measured by perfbench
   (BENCHMARK.json).  Each rung also reports the memory a document costs
   once it is in the learner's hands: the live heap bytes of the document
   plus its store (value index), after a compaction, per node. *)
let live_bytes () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let stream_bench () =
  Obs.set_enabled false;
  print_endline line;
  print_endline "Document ingestion (XMark scale ladder)";
  print_endline line;
  Printf.printf "%6s %9s %12s %12s %10s\n" "factor" "nodes" "xml_bytes" "live_bytes"
    "bytes/node";
  List.iter
    (fun factor ->
      let frag =
        Xl_workload.Xmark_gen.generate_frag (Xl_workload.Xmark_gen.scale_factor factor)
      in
      let before = live_bytes () in
      let store =
        Xl_xml.Store.of_docs [ Xl_xml.Doc.of_frag ~uri:"auction.xml" frag ]
      in
      let live = live_bytes () - before in
      (* the fragment stays live across both measurements, so [live] is
         the store alone, not the store minus a collected fragment *)
      ignore (Sys.opaque_identity frag);
      let doc = Xl_xml.Store.default store in
      let xml_text = Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root doc) in
      (* the serialized document must parse back to the same text
         (adjacent text nodes merge on the way, so counts may differ) *)
      let parsed = Xl_xml.Xml_parser.parse_doc ~uri:"auction.xml" xml_text in
      if Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root parsed) <> xml_text then begin
        Printf.eprintf "FAIL: the parsed instance differs from the built one at x%d\n"
          factor;
        exit 1
      end;
      let nodes = Xl_xml.Doc.node_count doc in
      Printf.printf "%6d %9d %12d %12d %10.1f\n%!" factor nodes
        (String.length xml_text) live
        (float_of_int live /. float_of_int nodes))
    [ 1; 4; 10; 100 ];
  (* the scaled Figure-16 variant: the whole XMark suite over a 10x
     document *)
  print_endline line;
  print_endline "Figure 16 (XMark suite) on a 10x store";
  print_endline line;
  let scenarios =
    Xl_workload.Xmark_scenarios.all ~scale:(Xl_workload.Xmark_gen.scale_factor 10) ()
  in
  let rows =
    Pool.map (pool ())
      (fun (name, sc) ->
        let r = Xl_core.Learn.run sc in
        (name, r.Xl_core.Learn.verified, Xl_core.Stats.to_row r.Xl_core.Learn.stats))
      scenarios
  in
  List.iter
    (fun (name, verified, row) ->
      Printf.printf "%-5s %s %s\n" name (if verified then "ok  " else "FAIL") row)
    rows;
  let bad = List.filter (fun (_, v, _) -> not v) rows in
  Printf.printf "=> %d/%d scenarios verified on the 10x store\n\n%!"
    (List.length rows - List.length bad)
    (List.length rows);
  if bad <> [] then exit 1

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
    Xl_workload.Xmark_scenarios.all () @ Xl_workload.Xmp_scenarios.all ()
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
          let r, _ = M.drive ~teacher:(M.oracle_teacher m) m in
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

(* ---------- learning-as-a-service parity under load (bench serve) -------- *)

let serve_sessions = ref 1024

(* [serve] checks lib/server end-to-end over a real Unix socket: an
   in-process server, client threads speaking actual HTTP/1.1 + JSON.
   Three legs:

   - parity: every Figure-16 scenario driven to completion through
     [POST .../answer {"auto":n}] must report the same interaction row,
     stats JSON and verified flag as a synchronous [Learn.run] on an
     independently built scenario — the server path answers the paper's
     numbers byte-for-byte;
   - load: [--sessions N] (default 1024) sessions created first — all
     live at once — then driven to completion by interleaved auto-steps
     from several client threads, every request answering 2xx;
   - suspend/resume: repeated round trips through the spool on a live
     session, which must still finish verified afterwards.

   Served latency and throughput are measured by perfbench's
   serve-churn workload (BENCHMARK.json).  Exits non-zero on any parity
   mismatch, request error or failed verification. *)
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
      (Xl_workload.Xmark_scenarios.all ())
    @ List.map
        (fun (n, sc) -> ("xmp/" ^ n, sc))
        (Xl_workload.Xmp_scenarios.all ())
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
  let requests = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let created = Atomic.make 0 in
  let spawn_each f =
    let ts = List.init n_threads (fun ti -> Thread.create f ti) in
    List.iter Thread.join ts
  in
  (* phase 1: create every session — all of them live at once *)
  spawn_each (fun ti ->
      let c = Client.connect socket in
      let i = ref ti in
      while !i < n_sessions do
        let scen = scen_names.(!i mod Array.length scen_names) in
        Atomic.incr requests;
        (match
           Client.request c ~meth:"POST" ~path:"/sessions"
             ~body:(Json.Obj [ ("scenario", Json.Str scen) ])
             ()
         with
        | 201, j ->
          Atomic.incr created;
          ids.(!i) <- Option.value ~default:"" (Json.mem_str "id" j)
        | _, _ -> Atomic.incr errors
        | exception _ -> Atomic.incr errors);
        i := !i + n_threads
      done;
      Client.close c);
  let concurrent_peak =
    let c = Client.connect socket in
    let h = req c "GET" "/health" () in
    Client.close c;
    Option.value ~default:0 (Json.mem_int "sessions" h)
  in
  Printf.printf "load: %d sessions live after create phase (%d threads), %d created\n%!"
    concurrent_peak n_threads (Atomic.get created);
  if concurrent_peak <> Atomic.get created then incr failures;
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
              Atomic.incr requests;
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
                false)
            !slice
      done;
      Client.close c);
  (* phase 3: tear the finished sessions down *)
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
  Printf.printf "load: %d sessions driven to completion; %d requests, %d errors\n%!"
    n_sessions (Atomic.get requests) (Atomic.get errors);
  if Atomic.get errors > 0 then incr failures;
  (* -- suspend/resume round trip --------------------------------------- *)
  let c = Client.connect socket in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmark/Q8") ]) ()
  in
  let id = Option.get (Json.mem_str "id" j) in
  ignore (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ());
  let round_trips = 50 in
  for _ = 1 to round_trips do
    ignore (req c "POST" ("/sessions/" ^ id ^ "/suspend") ());
    ignore
      (req c "POST" "/sessions/resume" ~body:(Json.Obj [ ("id", Json.Str id) ]) ())
  done;
  (* the much-suspended session must still learn the right query *)
  let d =
    drive c id (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ())
  in
  let verified_after = Json.mem_bool "verified" d = Some true in
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c;
  Printf.printf "suspend/resume: %d round trips; session verified after: %b\n%!"
    round_trips verified_after;
  if not verified_after then incr failures;
  Server.shutdown server;
  Thread.join server_thread;
  (try Unix.rmdir spool with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.eprintf "FAIL: bench serve — parity, request or verification failure\n";
    exit 1
  end;
  print_newline ()

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
    | "frozen" -> frozen_bench ()
    | "stream" -> stream_bench ()
    | "machine" -> machine_bench ()
    | "serve" -> serve_bench ()
    | "fuzz" -> fuzz ()
    | "seed-sweep" -> seed_sweep ()
    | "all" ->
      fig15 ();
      fig16_xmark ();
      fig16_xmp ();
      sgml ();
      ablation ();
      reuse ()
    | other ->
      Printf.eprintf
        "unknown benchmark %S (expected fig15 | fig16-xmark | fig16-xmp | ablation | reuse | sgml | frozen | stream | machine | serve | fuzz | seed-sweep | obs-report TRACE | all)\n"
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
