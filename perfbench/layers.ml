(* Per-layer numbers read from the program's existing telemetry: span
   self time through [Trace_analysis], counters and histograms through
   the [Obs] registry (in-process) or the server's [/metrics] JSON. *)

module Obs = Xl_obs.Obs
module TA = Xl_obs.Trace_analysis
module Json = Xl_json.Json

(* Telemetry off.  A domain's span buffer merges into the global list
   only while telemetry is on, so flush it first. *)
let stop_tracing () =
  Obs.flush_domain ();
  Obs.set_enabled false

(* the spans recorded in this process so far, as an analysable trace *)
let local_trace () =
  match TA.of_lines (List.map snd (Obs.span_events ())) with
  | Ok t -> t
  | Error e -> failwith ("perfbench: own trace does not parse: " ^ e)

(* per-name totals of a trace *)
let of_trace = TA.by_name

let find stats name = List.find_opt (fun st -> st.TA.ns_name = name) stats

let self_ms s name =
  match find s name with Some st -> Sample.ms_of_ns st.TA.ns_self_ns | None -> 0.

let calls s name = match find s name with Some st -> st.TA.ns_count | None -> 0

(* mean self time per call *)
let self_ms_per_call s name =
  match calls s name with 0 -> 0. | n -> self_ms s name /. float_of_int n

(* mean time per call, children included *)
let total_ms_per_call s name =
  match find s name with
  | Some st when st.TA.ns_count > 0 -> Sample.ms_of_ns st.TA.ns_total_ns /. float_of_int st.TA.ns_count
  | _ -> 0.

(* the share of a span's time that no child span covers *)
let unattributed_frac s name =
  match find s name with
  | Some st when st.TA.ns_total_ns > 0 ->
    float_of_int st.TA.ns_self_ns /. float_of_int st.TA.ns_total_ns
  | _ -> 0.

(* Engine spans, as self milliseconds per completed scenario. *)
let engine_span_metrics s ~scenarios =
  let per name = self_ms s name /. float_of_int (max 1 scenarios) in
  [
    ("automata.lstar.round.self_ms", per "lstar.round");
    ("core.learn.verify.self_ms", per "learn.verify");
    ("core.learn.drops.self_ms", per "learn.drops");
    ("core.oracle.init.self_ms", per "oracle.init");
    ("core.oracle.batch.self_ms", per "oracle.batch");
    ("core.clearner.candidates.self_ms", per "clearner.candidates");
    ("core.data_graph.build.self_ms", per "data_graph.build");
    ("core.learn.scenario.unattributed_frac", unattributed_frac s "learn.scenario");
  ]

(* ---- counters ------------------------------------------------------------ *)

let counter name =
  match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0

let frac hit miss = if hit + miss = 0 then 0. else float_of_int hit /. float_of_int (hit + miss)

(* exact engine counts, read from the in-process registry after one pass *)
let engine_counter_metrics ~batch_p50 =
  let c name = float_of_int (counter name) in
  [
    ("automata.lstar.rounds", c "lstar_rounds");
    ("automata.lstar.batch_words_p50", batch_p50);
    ("xquery.eval.frozen_nodes_scanned", c "eval_frozen_nodes_scanned");
    ("xquery.eval.flwor_nested_loop", c "eval_flwor_nested_loop");
    ("xquery.eval.flwor_hash_join", c "eval_flwor_hash_join");
    ("core.extent_cache.hit_frac", frac (counter "extent_cache_hit") (counter "extent_cache_miss"));
    ("core.r1_cache.hit_frac", frac (counter "r1_cache_hit") (counter "r1_cache_miss"));
  ]

(* a histogram's p50 in a telemetry JSON block ([Obs.telemetry_json], the
   server's /metrics), or 0 when it recorded nothing *)
let histogram_p50 telemetry name =
  match Json.mem_list "histograms" telemetry with
  | None -> 0.
  | Some hs -> (
    match List.find_opt (fun h -> Json.mem_str "name" h = Some name) hs with
    | Some h -> Option.value ~default:0. (Json.mem_float "p50" h)
    | None -> 0.)

let local_histogram_p50 name =
  match Json.parse (Obs.telemetry_json ()) with Ok j -> histogram_p50 j name | Error _ -> 0.

(* ---- question counts at the Machine.outcome boundary --------------------- *)

type questions = {
  mutable steps : int;
  mutable membership : int;
  mutable membership_batch : int;
  mutable equivalence : int;
  mutable condition_box : int;
  mutable order_box : int;
  mutable mq_user : int;
  mutable mq_reduced : int;
}

let questions () =
  {
    steps = 0;
    membership = 0;
    membership_batch = 0;
    equivalence = 0;
    condition_box = 0;
    order_box = 0;
    mq_user = 0;
    mq_reduced = 0;
  }

let count_question q (question : Xl_core.Machine.question) =
  q.steps <- q.steps + 1;
  match question with
  | Membership _ -> q.membership <- q.membership + 1
  | Membership_batch _ -> q.membership_batch <- q.membership_batch + 1
  | Equivalence _ -> q.equivalence <- q.equivalence + 1
  | Condition_box _ -> q.condition_box <- q.condition_box + 1
  | Order_box _ -> q.order_box <- q.order_box + 1

let count_result q (st : Xl_core.Stats.t) =
  q.mq_user <- q.mq_user + st.Xl_core.Stats.mq;
  q.mq_reduced <- q.mq_reduced + Xl_core.Stats.reduced_total st

let question_metrics q =
  let f = float_of_int in
  [
    ("core.machine.steps", f q.steps);
    ("core.questions.membership", f q.membership);
    ("core.questions.membership_batch", f q.membership_batch);
    ("core.questions.equivalence", f q.equivalence);
    ("core.questions.condition_box", f q.condition_box);
    ("core.questions.order_box", f q.order_box);
    ("core.mq.reduced_frac", frac q.mq_reduced q.mq_user);
  ]
