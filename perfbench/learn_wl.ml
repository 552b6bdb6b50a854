(* The in-process workloads (learn-fig16, learn-xmark-4x): scenarios
   learned through the public state-machine API, each call into a layer
   timed from outside — [Machine.start], [Machine.answer_with] (the
   simulated user's oracle) and [Machine.step]. *)

module Obs = Xl_obs.Obs
module Machine = Xl_core.Machine
module Scenario = Xl_core.Scenario
module Store = Xl_xml.Store

type scenarios = (string * Scenario.t) list

(* ---- one scenario, timed at the layer boundaries ------------------------- *)

type timing = {
  starts : Sample.t;  (** [Machine.start], ms *)
  answers : Sample.t;  (** [answer_with] + [step], ms: one question answered *)
  steps : Sample.t;  (** [Machine.step] alone, ms *)
  scenario_ms : Sample.t;  (** start to a finished result *)
  mutable answer_busy_ms : float;
  mutable step_busy_ms : float;
}

let timing () =
  {
    starts = Sample.create ();
    answers = Sample.create ();
    steps = Sample.create ();
    scenario_ms = Sample.create ();
    answer_busy_ms = 0.;
    step_busy_ms = 0.;
  }

let busy_ms t =
  Sample.sum t.starts +. t.answer_busy_ms +. t.step_busy_ms

(* Learn [sc] to completion, answering every question with the machine's
   own simulated oracle. *)
let learn ?on_question (tm : timing) sc : (Xl_core.Learn_types.result, string) result =
  let t0 = Obs.now_ns () in
  match Machine.start sc with
  | exception Xl_core.Learn_types.Learning_failed e -> Error ("learning failed: " ^ e)
  | m -> (
    Sample.add tm.starts (Sample.since_ms t0);
    let rec go m =
      match Machine.outcome m with
      | `Done r -> r
      | `Ask q ->
        Option.iter (fun f -> f q) on_question;
        let ta = Obs.now_ns () in
        let a = Machine.answer_with (Machine.oracle_teacher m) q in
        let tb = Obs.now_ns () in
        let _, m' = Machine.step m a in
        let tc = Obs.now_ns () in
        tm.answer_busy_ms <- tm.answer_busy_ms +. Sample.ms_of_ns (tb - ta);
        tm.step_busy_ms <- tm.step_busy_ms +. Sample.ms_of_ns (tc - tb);
        Sample.add tm.steps (Sample.ms_of_ns (tc - tb));
        Sample.add tm.answers (Sample.ms_of_ns (tc - ta));
        go m'
    in
    match go m with
    | r ->
      Sample.add tm.scenario_ms (Sample.since_ms t0);
      Ok r
    | exception Xl_core.Learn_types.Learning_failed e -> Error ("learning failed: " ^ e))

(* ---- set-up ---------------------------------------------------------------- *)

type setup = { gen_ms : float; prepare_ms : float; scenarios : scenarios }

let setup make =
  let scenarios, gen_ms = Sample.timed make in
  let (), prepare_ms =
    Sample.timed (fun () ->
        List.iter (fun (_, sc) -> Store.prepare sc.Scenario.store) scenarios)
  in
  { gen_ms; prepare_ms; scenarios }

(* ---- checks ----------------------------------------------------------------- *)

type check = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  mutable notes : string list;
}

let check () = { attempted = 0; failed = 0; mismatched = 0; notes = [] }

let note c s = if List.length c.notes < 20 then c.notes <- s :: c.notes

(* What learning one scenario gave: its row and verified flag, or the
   learning failure. *)
type outcome = (string * bool, string) result

let outcome_of : (Xl_core.Learn_types.result, string) result -> outcome = function
  | Ok r -> Ok (Expected_fig16.of_stats r.stats, r.verified)
  | Error e -> Error e

let show_outcome : outcome -> string = function
  | Ok (row, verified) -> Printf.sprintf "row %S verified %b" row verified
  | Error e -> e

(* One scenario of the warm-up pass, which attempts every scenario of the
   run once: a row other than [expected] is a wrong output (the run is
   incorrect); an unverified query or a learning failure is a failed
   operation.  The timed passes repeat these operations and are held to
   the warm-up's outcomes ({!recheck}), so [attempted] and [failed] are
   the same for every run on the same inputs, however many passes the
   time allows. *)
let judge c name ~expected (outcome : outcome) =
  c.attempted <- c.attempted + 1;
  match outcome with
  | Error e ->
    c.failed <- c.failed + 1;
    note c (Printf.sprintf "%s: %s" name e)
  | Ok (row, verified) -> (
    match expected with
    | Some want when not (String.equal want row) ->
      c.failed <- c.failed + 1;
      c.mismatched <- c.mismatched + 1;
      note c (Printf.sprintf "%s: row %S, reference %S" name row want)
    | _ ->
      if not verified then begin
        c.failed <- c.failed + 1;
        note c (Printf.sprintf "%s: learned query not verified" name)
      end)

(* A timed pass's outcome against the warm-up's: any difference is a
   wrong output. *)
let recheck c name ~reference (outcome : outcome) =
  if outcome <> reference then begin
    c.mismatched <- c.mismatched + 1;
    note c
      (Printf.sprintf "%s: timed pass gave %s, warm-up %s" name (show_outcome outcome)
         (show_outcome reference))
  end

(* ---- the workload ---------------------------------------------------------- *)

type pass = { outcomes : (string * outcome) list; questions : Layers.questions }

(* The untimed warm-up pass: fills caches, judges every scenario once,
   and fixes each scenario's outcome as the reference every timed pass
   must reproduce.  With [expected], the rows of the default instance
   must also equal EXPERIMENTS.md. *)
let warm_up c ~expected (scenarios : scenarios) =
  let q = Layers.questions () in
  let tm = timing () in
  let outcomes =
    List.map
      (fun (name, sc) ->
        let res = learn ~on_question:(Layers.count_question q) tm sc in
        (match res with Ok r -> Layers.count_result q r.stats | Error _ -> ());
        let outcome = outcome_of res in
        judge c name ~expected:(if expected then List.assoc_opt name Expected_fig16.rows else None) outcome;
        (name, outcome))
      scenarios
  in
  { outcomes; questions = q }

let merge_into (dst : timing) (src : timing) =
  Sample.append dst.starts src.starts;
  Sample.append dst.answers src.answers;
  Sample.append dst.steps src.steps;
  Sample.append dst.scenario_ms src.scenario_ms;
  dst.answer_busy_ms <- dst.answer_busy_ms +. src.answer_busy_ms;
  dst.step_busy_ms <- dst.step_busy_ms +. src.step_busy_ms

type measured = {
  total : timing;  (** the whole passes, merged *)
  pass_ms : float list;  (** wall time of each whole pass *)
  pass_answer_mean : float list;  (** mean question time of each whole pass *)
  pass_create_mean : float list;  (** mean [Machine.start] time of each whole pass *)
  wall_ms : float;
  completed : int;  (** scenarios in the measured passes *)
  ran : int;  (** scenarios learned in the phase, cut pass included *)
}

(* Learn the scenarios pass after pass until [seconds] have passed,
   checking each outcome against the warm-up's.  Only whole passes are
   measured, so every run times the same multiset of scenarios; the pass
   the deadline cuts short is still checked (and measured only when no
   pass is whole).  [after_pass] runs after the first pass, [between]
   after every whole pass, outside its time, with the share of [seconds]
   gone. *)
let timed_phase c ~(pass : pass) ?(after_pass = fun () -> ()) ?(between = fun _ -> ()) ~seconds
    scenarios =
  let total = timing () in
  let t0 = Obs.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let pass_ms = ref [] and pass_mean = ref [] and pass_create = ref [] and partial = ref 0 in
  let rec one_pass tm done_ = function
    | [] -> true
    | (name, sc) :: rest ->
      if Obs.now_ns () >= deadline then begin
        partial := done_;
        if !pass_ms = [] then merge_into total tm;
        false
      end
      else begin
        recheck c name ~reference:(List.assoc name pass.outcomes) (outcome_of (learn tm sc));
        one_pass tm (done_ + 1) rest
      end
  in
  let rec loop () =
    let tm = timing () in
    let tp = Obs.now_ns () in
    if one_pass tm 0 scenarios then begin
      merge_into total tm;
      pass_ms := Sample.since_ms tp :: !pass_ms;
      pass_mean := Sample.mean tm.answers :: !pass_mean;
      pass_create := Sample.mean tm.starts :: !pass_create;
      if List.length !pass_ms = 1 then after_pass ();
      between (Sample.since_ms t0 /. (seconds *. 1000.));
      loop ()
    end
  in
  loop ();
  let passes = List.length !pass_ms in
  {
    total;
    pass_ms = !pass_ms;
    pass_answer_mean = !pass_mean;
    pass_create_mean = !pass_create;
    wall_ms = Sample.since_ms t0;
    completed = (if passes = 0 then !partial else passes * List.length scenarios);
    ran = (passes * List.length scenarios) + !partial;
  }

(* Throughput and the mean question and start times are medians over
   the whole passes, which keeps a burst of lost CPU time in one pass out
   of the figure; latencies pool every question of the whole passes. *)
let end_to_end ~setup_s ~peak_rss_mb ~per_pass m =
  let tm = m.total in
  let over_passes l s = if l = [] then Sample.mean s else Sample.median_of l in
  let gated, printed = Sample.answer_figures ~mean:(over_passes m.pass_answer_mean tm.answers) tm.answers in
  ( [
      ("setup_s", setup_s);
      ( "sessions_per_sec",
        if m.pass_ms = [] then float_of_int m.completed /. (m.wall_ms /. 1000.)
        else float_of_int per_pass /. (Sample.median_of m.pass_ms /. 1000.) );
      ("scenario_p50_ms", Sample.p50 tm.scenario_ms);
      ("create_mean_ms", over_passes m.pass_create_mean tm.starts);
      ("peak_rss_mb", peak_rss_mb);
    ]
    @ gated,
    printed
    @ [ ("create_p50_ms", Sample.p50 tm.starts); ("whole_passes", float_of_int (List.length m.pass_ms)) ] )

(* the time the measured passes took *)
let measured_ms m = if m.pass_ms = [] then m.wall_ms else List.fold_left ( +. ) 0. m.pass_ms

let per_scenario_ms m = measured_ms m /. float_of_int (max 1 m.completed)

let setup_reps = 21

let make_inputs ~workload ~seed =
  match workload with
  | "learn-fig16" -> fun () -> Inputs.fig16_scenarios ~seed
  | _ -> fun () -> Inputs.xmark_scaled_scenarios ~seed ~factor:4

(* [main.exe --setup-only]: one set-up, its two times printed in ms *)
let print_setup ~workload ~seed =
  let s = setup (make_inputs ~workload ~seed) in
  Printf.printf "%.17g %.17g\n" s.gen_ms s.prepare_ms

(* one set-up timed in a fresh process of this executable *)
let child_setup ~workload ~seed =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match (Unix.waitpid [] pid, String.split_on_char ' ' (String.trim out)) with
  | (_, Unix.WEXITED 0), [ g; p ] -> { gen_ms = float_of_string g; prepare_ms = float_of_string p; scenarios = [] }
  | _ -> failwith ("perfbench: a set-up process failed: " ^ out)

let run ~workload ~seed ~seconds ~trace : Report.t =
  let make = make_inputs ~workload ~seed in
  let expected = workload = "learn-fig16" in
  (* The set-up the run measures, then [setup_reps - 1] repetitions that
     only time it.  The host's speed changes within seconds (ten set-ups
     back to back once read 8 ms and the next ten 30 ms), so the
     untraced run spreads the repetitions over its timed phase, one each
     time another share of the phase has gone, outside the passes'
     times.  Each repetition runs in a fresh process ({!child_setup}),
     as the first set-up does, so its memory stays out of this process's
     peak RSS and its garbage out of the passes. *)
  let first = setup make in
  let setups = ref [ first ] in
  let one_more () = setups := child_setup ~workload ~seed :: !setups in
  let between frac =
    while List.length !setups < 1 + int_of_float (frac *. float_of_int (setup_reps - 1)) do
      one_more ()
    done
  in
  let all_setups () =
    while List.length !setups < setup_reps do
      one_more ()
    done;
    !setups
  in
  let setup_s setups =
    Sample.median_of (List.map (fun s -> (s.gen_ms +. s.prepare_ms) /. 1000.) setups)
  in
  (* in the traced run, one more set-up with telemetry on gives the
     index-build span *)
  let index_build =
    if trace then begin
      Obs.set_enabled true;
      ignore (setup make);
      Layers.stop_tracing ();
      Layers.(self_ms_per_call (of_trace (local_trace ())) "store.index_build")
    end
    else 0.
  in
  Obs.reset ();
  let scenarios = first.scenarios in
  let c = check () in
  let pass = warm_up c ~expected scenarios in
  let metrics, extra =
    if not trace then begin
      let m = timed_phase c ~pass ~between ~seconds scenarios in
      let peak_rss_mb = Proc.self_peak_mb () in
      let setup_s = setup_s (all_setups ()) in
      let e2e, printed = end_to_end ~setup_s ~peak_rss_mb ~per_pass:(List.length scenarios) m in
      ( Spec.fill Spec.end_to_end e2e,
        List.map (fun (n, v) -> Report.m n (if n = "answer_samples" || n = "whole_passes" then "count" else "ms") v) printed
        @ [ Report.m "scenarios_completed" "count" (float_of_int m.completed) ] )
    end
    else begin
      (* half the time untraced (timed layer calls), half traced (spans
         and counters); their difference is the tracing overhead *)
      let half = seconds /. 2. in
      let m = timed_phase c ~pass ~seconds:half scenarios in
      let tm = m.total in
      Obs.reset ();
      Obs.set_enabled true;
      let counters = ref [] in
      let after_pass () =
        counters :=
          Layers.engine_counter_metrics
            ~batch_p50:(Layers.local_histogram_p50 "lstar_batch_size")
      in
      let tm_traced = timed_phase c ~pass ~after_pass ~seconds:half scenarios in
      Layers.stop_tracing ();
      let spans = Layers.of_trace (Layers.local_trace ()) in
      Obs.reset ();
      let mean_untraced = per_scenario_ms m in
      let mean_traced = per_scenario_ms tm_traced in
      let setups = all_setups () in
      let measured =
        [
          ("workload.generate_s", Sample.median_of (List.map (fun s -> s.gen_ms /. 1000.) setups));
          ("xml.store_prepare_s", Sample.median_of (List.map (fun s -> s.prepare_ms /. 1000.) setups));
          ("xml.store.index_build.self_ms", index_build);
          ("core.machine.start_p50_ms", Sample.p50 tm.starts);
          ("core.machine.step_busy_s", tm.step_busy_ms /. 1000.);
          ("core.machine.step_p99_ms", Sample.quantile tm.steps 0.99);
          ("core.oracle.answer_busy_s", tm.answer_busy_ms /. 1000.);
          ("obs.trace_overhead_frac", if mean_untraced > 0. then (mean_traced /. mean_untraced) -. 1. else 0.);
          ("bench.attributed_frac", busy_ms tm /. measured_ms m);
        ]
        @ Layers.engine_span_metrics spans ~scenarios:tm_traced.ran
        @ !counters
        @ Layers.question_metrics pass.questions
      in
      ( Spec.fill Spec.per_layer measured,
        [
          Report.m "untraced_scenarios_completed" "count" (float_of_int m.completed);
          Report.m "traced_scenarios_completed" "count" (float_of_int tm_traced.completed);
        ] )
    end
  in
  {
    Report.workload;
    seed;
    correct = c.mismatched = 0;
    attempted = c.attempted;
    failed = c.failed;
    metrics;
    extra;
    notes = List.rev c.notes;
  }
