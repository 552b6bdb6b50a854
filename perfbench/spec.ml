(* The metric catalogue: every name the benchmark reports, its unit, and
   (in README.md) the end-to-end metric each per-layer metric should
   move.  BENCHMARK.json lists the same names; the tests check that. *)

let workloads = [ "learn-fig16"; "learn-xmark-4x"; "serve-churn" ]

(* Reported by every untraced run, on every workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("sessions_per_sec", "1/s");
    ("scenario_p50_ms", "ms");
    ("answer_mean_ms", "ms");
    ("answer_p95_ms", "ms");
    ("create_mean_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Reported by every traced run.  A layer a workload does not exercise
   reads 0 on it (no server layer runs in a learn-* workload). *)
let per_layer =
  [
    ("workload.generate_s", "s");
    ("xml.store_prepare_s", "s");
    ("xml.parse.self_ms", "ms");
    ("xml.store.index_build.self_ms", "ms");
    ("automata.lstar.round.self_ms", "ms");
    ("automata.lstar.rounds", "count");
    ("automata.lstar.batch_words_p50", "count");
    ("xquery.eval.frozen_nodes_scanned", "count");
    ("xquery.eval.flwor_nested_loop", "count");
    ("xquery.eval.flwor_hash_join", "count");
    ("core.machine.start_p50_ms", "ms");
    ("core.machine.step_busy_s", "s");
    ("core.machine.step_p99_ms", "ms");
    ("core.oracle.answer_busy_s", "s");
    ("core.learn.verify.self_ms", "ms");
    ("core.extent_cache.hit_frac", "frac");
    ("core.learn.drops.self_ms", "ms");
    ("core.oracle.init.self_ms", "ms");
    ("core.oracle.batch.self_ms", "ms");
    ("core.clearner.candidates.self_ms", "ms");
    ("core.data_graph.build.self_ms", "ms");
    ("core.r1_cache.hit_frac", "frac");
    ("core.machine.steps", "count");
    ("core.questions.membership", "count");
    ("core.questions.membership_batch", "count");
    ("core.questions.equivalence", "count");
    ("core.questions.condition_box", "count");
    ("core.questions.order_box", "count");
    ("core.mq.reduced_frac", "frac");
    ("core.learn.scenario.unattributed_frac", "frac");
    ("core.machine.snapshot_ms", "ms");
    ("core.machine.restore_ms", "ms");
    ("server.client.answer_p50_ms", "ms");
    ("server.client.create_p50_ms", "ms");
    ("server.client.suspend_p50_ms", "ms");
    ("server.client.resume_p50_ms", "ms");
    ("server.client.delete_p50_ms", "ms");
    ("server.endpoint.answer_p50_us", "us");
    ("server.endpoint.create_p50_us", "us");
    ("server.endpoint.suspend_p50_us", "us");
    ("server.endpoint.resume_p50_us", "us");
    ("server.endpoint.delete_p50_us", "us");
    ("server.transport.answer_p50_ms", "ms");
    ("server.request.self_ms", "ms");
    ("server.overhead_frac", "frac");
    ("server.ingest_frac", "frac");
    ("server.ingest_upload_frac", "frac");
    ("server.suspend_resume_frac", "frac");
    ("json.codec_us_per_request", "us");
    ("server.bytes_per_answer", "bytes");
    ("obs.trace_overhead_frac", "frac");
    ("bench.attributed_frac", "frac");
  ]

(* Fill the catalogue [spec] from measured [(name, value)] pairs: every
   name appears once, in catalogue order; an unmeasured one reads 0. *)
let fill spec measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then
        invalid_arg ("Spec.fill: metric not in the catalogue: " ^ name))
    measured;
  List.map
    (fun (name, unit_) ->
      Report.m name unit_ (Option.value ~default:0. (List.assoc_opt name measured)))
    spec
