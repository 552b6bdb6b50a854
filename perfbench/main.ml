(* perfbench: the repository benchmark.  See README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1 --server-exe PATH

   Prints one line per metric, then, as the last line of standard
   output, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics of Spec.end_to_end untraced, the per-layer metrics
   of Spec.per_layer traced. *)

let () =
  let workload = ref "" in
  let seed = ref Perfbench.Inputs.default_seed in
  let seconds = ref 10 in
  let trace = ref 0 in
  let server_exe = ref "" in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Perfbench.Spec.workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 20040301)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--server-exe", Arg.Set_string server_exe, "PATH the xlearner_cli executable to serve with");
      ("--setup-only", Arg.Set setup_only, " time one set-up of a learn-* workload and print it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Perfbench.Spec.workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  if !setup_only then begin
    Perfbench.Learn_wl.print_setup ~workload:!workload ~seed:!seed;
    exit 0
  end;
  let trace = !trace = 1 in
  let seconds = float_of_int !seconds in
  let report =
    match !workload with
    | "learn-fig16" | "learn-xmark-4x" ->
      Perfbench.Learn_wl.run ~workload:!workload ~seed:!seed ~seconds ~trace
    | w -> Perfbench.Serve_wl.run ~workload:w ~server_exe:!server_exe ~seed:!seed ~seconds ~trace
  in
  Perfbench.Report.print report
