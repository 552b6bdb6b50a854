(* The xlearner command-line tool.

     xlearner list                         -- available learning scenarios
     xlearner learn xmark Q14 [--show-query] [--no-r1] [--no-r2] [--worst]
                                           [--interactive]
                                           [--suspend-at N --snapshot PATH]
                                           [--resume PATH]
     xlearner generate [--scale tiny] [--seed N] [-o out.xml]
     xlearner template [--suite xmark|xmp] -- show the target-side template
     xlearner eval -q QUERY [-f data.xml]  -- run an XQuery on a document
     xlearner obs-report trace.jsonl       -- offline analysis of a recorded
                                              trace (self time, utilization,
                                              critical path) *)

open Cmdliner

let suite_scenarios = function
  | "xmark" -> Xl_workload.Xmark_scenarios.all ()
  | "xmp" -> Xl_workload.Xmp_scenarios.all ()
  | s -> failwith (Printf.sprintf "unknown suite %S (expected xmark or xmp)" s)

(* ---- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (suite, scenarios) ->
        Printf.printf "%s:\n" suite;
        List.iter
          (fun (name, sc) ->
            Printf.printf "  %-5s %s\n" name sc.Xl_core.Scenario.description)
          scenarios)
      [ ("xmark", Xl_workload.Xmark_scenarios.all ()); ("xmp", Xl_workload.Xmp_scenarios.all ()) ]
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available learning scenarios")
    Term.(const run $ const ())

(* ---- learn ------------------------------------------------------------- *)

let learn_cmd =
  let suite =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SUITE" ~doc:"xmark or xmp")
  in
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"e.g. Q14")
  in
  let show_query =
    Arg.(value & flag & info [ "show-query" ] ~doc:"Print the learned XQuery text")
  in
  let show_tree =
    Arg.(value & flag & info [ "show-tree" ] ~doc:"Print the learned XQ-Tree listing")
  in
  let no_r1 = Arg.(value & flag & info [ "no-r1" ] ~doc:"Disable reduction rule R1") in
  let no_r2 = Arg.(value & flag & info [ "no-r2" ] ~doc:"Disable reduction rule R2") in
  let worst =
    Arg.(value & flag & info [ "worst" ] ~doc:"Adversarial counterexample choice")
  in
  let interactive =
    Arg.(value & flag & info [ "interactive"; "i" ] ~doc:"Answer the learner's queries on stdin")
  in
  let transcript =
    Arg.(value & flag & info [ "transcript" ] ~doc:"Print the interaction transcript")
  in
  let suspend_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "suspend-at" ] ~docv:"N"
          ~doc:
            "Suspend the learner once $(docv) questions have been \
             answered, write its state with $(b,--snapshot) and exit; \
             resume later (in any process) with $(b,--resume)")
  in
  let snapshot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:"Where $(b,--suspend-at) writes the machine snapshot")
  in
  let resume_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:
            "Restore a machine snapshot written by $(b,--snapshot) and \
             finish the session from its suspension point (the learning \
             configuration is taken from the snapshot, so $(b,--no-r1) \
             and friends are ignored)")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~env:(Cmd.Env.info "XLEARNER_TRACE")
          ~doc:
            "Enable telemetry and write a JSONL trace (spans, metrics and \
             the teacher dialog) to $(docv); also prints a summary table")
  in
  let perfetto_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"PATH"
          ~doc:
            "Also write the recorded spans as a Chrome trace-event file \
             (open it in ui.perfetto.dev)")
  in
  let profile_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"PATH"
          ~doc:
            "Run the wall-clock sampling profiler during the learning run \
             and write folded (flamegraph) stacks to $(docv)")
  in
  let run suite query show_query show_tree no_r1 no_r2 worst interactive
      transcript suspend_at snapshot_file resume_file trace_file perfetto_file
      profile_file =
    let scenarios = suite_scenarios suite in
    match List.assoc_opt query scenarios with
    | None ->
      Printf.eprintf "no scenario %s in suite %s (try 'xlearner list')\n" query suite;
      exit 1
    | Some sc ->
      let config =
        {
          Xl_core.Learn.default_config with
          rules = { Xl_core.Plearner.r1 = not no_r1; r2 = not no_r2 };
          strategy = (if worst then Xl_core.Oracle.Worst else Xl_core.Oracle.Best);
        }
      in
      if suspend_at <> None && snapshot_file = None then begin
        Printf.eprintf "--suspend-at needs --snapshot PATH\n";
        exit 1
      end;
      if trace_file <> None || perfetto_file <> None || profile_file <> None then
        Xl_obs.Obs.set_enabled true;
      if profile_file <> None then Xl_obs.Profiler.start ();
      (* the learning session as an explicit loop over the resumable
         machine: start (or restore) it, answer each question with the
         simulated oracle — or the console, in interactive mode — and
         feed the answer back through Machine.step *)
      let m0 =
        match resume_file with
        | None -> Xl_core.Machine.start ~config sc
        | Some path -> (
          let data =
            try
              let ic = open_in_bin path in
              let n = in_channel_length ic in
              let s = really_input_string ic n in
              close_in ic;
              s
            with Sys_error e ->
              Printf.eprintf "cannot read snapshot %s: %s\n" path e;
              exit 1
          in
          try Xl_core.Machine.restore ~scenario:sc data with
          | Xl_core.Machine.Corrupt msg ->
            Printf.eprintf "corrupt snapshot %s: %s\n" path msg;
            exit 1)
      in
      (match resume_file with
      | Some path ->
        Printf.printf "resumed     : %s at step %d\n" path
          (Xl_core.Machine.steps m0)
      | None -> ());
      let teacher =
        let oracle = Xl_core.Machine.oracle_teacher m0 in
        if interactive then Interactive.teacher oracle else oracle
      in
      let rec loop m =
        match Xl_core.Machine.outcome m with
        | `Done r -> (m, Some r)
        | `Ask _ when suspend_at = Some (Xl_core.Machine.steps m) -> (m, None)
        | `Ask q ->
          loop (snd (Xl_core.Machine.step m (Xl_core.Machine.answer_with teacher q)))
      in
      let m, result = loop m0 in
      (* the dialog is a view over the final machine's transcript, which
         holds the answers a --resume replayed as well as the new ones *)
      let dialog = Xl_core.Machine.transcript m in
      if transcript then begin
        print_endline "interaction transcript:";
        print_endline (Xl_core.Dialog.to_string dialog);
        print_newline ()
      end;
      (match result with
      | None ->
        let path = Option.get snapshot_file in
        let data = Xl_core.Machine.snapshot m in
        let oc = open_out_bin path in
        output_string oc data;
        close_out oc;
        (* unwind the engine so its open telemetry spans record *)
        Xl_core.Machine.abort m;
        Printf.printf "scenario    : %s %s — %s\n" suite query
          sc.Xl_core.Scenario.description;
        Printf.printf "suspended   : after %d answers (%d-byte snapshot %s)\n"
          (Xl_core.Machine.steps m) (String.length data) path;
        Printf.printf "resume with : xlearner learn %s %s --resume %s\n" suite
          query path
      | Some r ->
        Printf.printf "scenario    : %s %s — %s\n" suite query
          sc.Xl_core.Scenario.description;
        Printf.printf "interactions: %s\n" (Xl_core.Stats.to_row r.Xl_core.Learn.stats);
        Printf.printf "              (D&D(#t)  MQ  CE  CB(#t)  OB  Reduced(R1,R2,Both))\n";
        Printf.printf "verified    : %b\n" r.Xl_core.Learn.verified;
        if show_tree then begin
          print_endline "\nlearned XQ-Tree:";
          print_endline (Xl_xqtree.Xqtree.to_listing r.Xl_core.Learn.learned)
        end;
        if show_query then begin
          print_endline "\nlearned query:";
          print_endline r.Xl_core.Learn.query_text
        end);
      Xl_obs.Profiler.stop ();
      (match trace_file with
      | None -> ()
      | Some path ->
        (* teacher-dialog records interleave with the spans by the shared
           sequence counter *)
        let events = Xl_core.Dialog.to_jsonl_events dialog in
        Xl_obs.Obs.write_jsonl ~extra:events path;
        Printf.printf "\nwrote trace %s (%d dialog events)\n" path
          (List.length events);
        print_string (Xl_obs.Obs.summary_table ()));
      (match perfetto_file with
      | None -> ()
      | Some path ->
        Xl_obs.Perfetto.write
          ~counter_samples:(Xl_obs.Profiler.counter_samples ())
          path;
        Printf.printf "wrote perfetto trace %s\n" path);
      match profile_file with
      | None -> ()
      | Some path ->
        Xl_obs.Profiler.write_folded path;
        Printf.printf "wrote folded profile %s (%d samples over %d ticks)\n"
          path
          (Xl_obs.Profiler.sample_count ())
          (Xl_obs.Profiler.ticks ())
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Run a learning scenario and report the interaction counts")
    Term.(
      const run $ suite $ query $ show_query $ show_tree $ no_r1 $ no_r2 $ worst
      $ interactive $ transcript $ suspend_at $ snapshot_file $ resume_file
      $ trace_file $ perfetto_file $ profile_file)

(* ---- generate ----------------------------------------------------------- *)

let generate_cmd =
  let scale =
    Arg.(value & opt string "default" & info [ "scale" ] ~doc:"tiny or default")
  in
  let seed = Arg.(value & opt int 20040301 & info [ "seed" ] ~doc:"PRNG seed") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run scale seed out =
    let sc =
      match scale with
      | "tiny" -> Xl_workload.Xmark_gen.tiny_scale
      | _ -> Xl_workload.Xmark_gen.default_scale
    in
    let doc = Xl_workload.Xmark_gen.generate ~seed sc in
    let text =
      Xl_xml.Serialize.frag_to_pretty_string
        (Xl_xml.Serialize.node_to_frag (Xl_xml.Doc.root doc))
    in
    match out with
    | None -> print_string text
    | Some f ->
      let oc = open_out f in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s (%d nodes)\n" f (Xl_xml.Doc.node_count doc)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a deterministic XMark auction document")
    Term.(const run $ scale $ seed $ out)

(* ---- template ----------------------------------------------------------- *)

let template_cmd =
  let suite =
    Arg.(value & pos 0 string "xmark" & info [] ~docv:"SUITE" ~doc:"xmark or xmp")
  in
  let run suite =
    let dtd =
      match suite with
      | "xmp" -> Xl_workload.Xmp_data.get_dtd ()
      | _ -> Xl_workload.Xmark_dtd.get ()
    in
    print_endline (Xl_core.Template.to_string (Xl_core.Template.from_dtd ~depth:5 dtd))
  in
  Cmd.v
    (Cmd.info "template"
       ~doc:"Show the template generated from a schema (1-labeled edges marked)")
    Term.(const run $ suite)

(* ---- eval ---------------------------------------------------------------- *)

let eval_cmd =
  let query =
    Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"XQUERY")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"XML input (default: a generated XMark document)")
  in
  let run query file =
    let doc =
      match file with
      | Some f ->
        let ic = open_in_bin f in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        Xl_xml.Xml_parser.parse_doc ~uri:f src
      | None -> Xl_workload.Xmark_gen.generate Xl_workload.Xmark_gen.default_scale
    in
    let ctx = Xl_xquery.Eval.ctx_of_doc doc in
    let ast = Xl_xquery.Parser.parse query in
    print_endline (Xl_xquery.Eval.run_to_string ctx ast)
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate an XQuery expression against a document")
    Term.(const run $ query $ file)

(* ---- obs-report ---------------------------------------------------------- *)

let obs_report_cmd =
  let trace =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"A JSONL trace written with --trace")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows per report section")
  in
  let session =
    Arg.(
      value & opt (some string) None
      & info [ "session" ] ~docv:"ID"
          ~doc:
            "Restrict the report to spans tagged with this session id (the \
             session server tags every span of a session's work)")
  in
  let run trace top session =
    match Xl_obs.Trace_analysis.load trace with
    | Error e ->
      Printf.eprintf "obs-report: malformed trace %s: %s\n" trace e;
      exit 1
    | Ok t -> (
      match session with
      | None ->
        print_string (Xl_obs.Trace_analysis.report ~top t);
        (match Xl_obs.Trace_analysis.sessions t with
        | [] -> ()
        | ids ->
          Printf.printf "\n-- sessions (filter with --session ID) --\n";
          List.iteri
            (fun i (id, count, ns) ->
              if i < top then
                Printf.printf "  %-24s %6d spans %10.2f ms\n" id count
                  (float_of_int ns /. 1e6))
            ids)
      | Some id ->
        let sub = Xl_obs.Trace_analysis.filter_session t id in
        if sub.Xl_obs.Trace_analysis.spans = [] then begin
          Printf.eprintf "obs-report: no spans tagged with session %S\n" id;
          exit 1
        end;
        Printf.printf "(session %s)\n" id;
        print_string (Xl_obs.Trace_analysis.report ~top sub))
  in
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:
         "Analyze a recorded JSONL trace: span-tree self time, per-worker \
          utilization and the critical path")
    Term.(const run $ trace $ top $ session)

(* ---- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt string "/tmp/xlearner.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on")
  in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Learner worker domains (default: XLEARNER_JOBS or cores - 1)")
  in
  let spool =
    Arg.(
      value & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:"Suspend/resume spool directory (default: SOCKET.spool)")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace on shutdown"
          ~env:(Cmd.Env.info "XLEARNER_TRACE"))
  in
  let run socket workers spool trace =
    if Option.is_some trace then Xl_obs.Obs.set_enabled true;
    let t = Xl_server.Server.create ?workers ?spool ~socket () in
    Printf.printf "xlearner serving on %s (%d scenarios)\n%!" socket
      (List.length
         (Xl_workload.Xmark_scenarios.all () @ Xl_workload.Xmp_scenarios.all ()));
    (* SIGINT/SIGTERM shut the loop down cleanly so the trace is written *)
    let stop _ = Xl_server.Server.shutdown t in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
     with Invalid_argument _ -> ());
    Xl_server.Server.serve t;
    match trace with
    | Some path ->
      Xl_obs.Obs.write_jsonl path;
      Printf.printf "trace written to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host concurrent interactive learning sessions over a Unix socket \
          (HTTP/1.1 + JSON)")
    Term.(const run $ socket $ workers $ spool $ trace)

(* ---- fig16 shortcut ------------------------------------------------------- *)

let bench_cmd =
  let run () =
    print_endline "run the full evaluation with: dune exec bench/main.exe"
  in
  Cmd.v (Cmd.info "bench" ~doc:"Pointer to the benchmark harness") Term.(const run $ const ())

let () =
  let doc = "XLearner: learn XQuery mapping queries from examples (ICDE 2004)" in
  let info = Cmd.info "xlearner" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; learn_cmd; generate_cmd; template_cmd; eval_cmd;
            obs_report_cmd; serve_cmd; bench_cmd;
          ]))
