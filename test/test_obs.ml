(* The telemetry layer (Xl_obs.Obs) and its integrations:

   - span nesting: depth tracking, per-name aggregation, exception safety;
   - per-domain buffers: spans recorded inside pool workers on several
     domains all survive the merge-at-join (Obs.flush_domain), and the
     Domain.at_exit backstop flushes domains that never flush themselves;
   - histogram bucket boundaries and interpolated quantiles of the
     log-linear (16 sub-buckets per octave) scheme;
   - the monotonic clock stub behind Obs.now_ns;
   - disabled mode: a span call must not allocate (single flag check);
   - JSONL export: well-formed single-line objects, ascending sequence
     numbers, escaping, and the Trace (teacher dialog) round-trip;
   - the analysis layer: Perfetto export round-trip, the sampling
     profiler's folded stacks, and Trace_analysis on a written trace. *)

module Obs = Xl_obs.Obs
module Profiler = Xl_obs.Profiler
module Perfetto = Xl_obs.Perfetto
module Json = Xl_json.Json
module Tan = Xl_obs.Trace_analysis
module Pool = Xl_exec.Pool

(* every test leaves telemetry the way it found it: disabled and empty *)
let with_obs ?(enabled = true) f =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ---------- spans ------------------------------------------------------- *)

let test_span_nesting () =
  with_obs (fun () ->
      let r =
        Obs.span ~name:"outer" (fun () ->
            let a = Obs.span ~name:"inner" (fun () -> 20) in
            let b = Obs.span ~name:"inner" ~detail:"2nd" (fun () -> 22) in
            a + b)
      in
      Alcotest.(check int) "span returns the thunk's value" 42 r;
      let spans = Obs.spans () in
      Alcotest.(check int) "three spans recorded" 3 (List.length spans);
      let outer = List.find (fun s -> s.Obs.sp_name = "outer") spans in
      let inners = List.filter (fun s -> s.Obs.sp_name = "inner") spans in
      Alcotest.(check int) "outer at depth 0" 0 outer.Obs.sp_depth;
      List.iter
        (fun s -> Alcotest.(check int) "inner at depth 1" 1 s.Obs.sp_depth)
        inners;
      Alcotest.(check (option string))
        "detail is attached" (Some "2nd")
        (List.find_map (fun s -> s.Obs.sp_detail) inners);
      (* totals group by name only *)
      let totals = Obs.span_totals () in
      let inner_t = List.find (fun t -> t.Obs.st_name = "inner") totals in
      Alcotest.(check int) "inner total counts both" 2 inner_t.Obs.st_count;
      Alcotest.(check bool)
        "outer duration covers the inners" true
        (outer.Obs.sp_dur_ns
        >= List.fold_left (fun acc s -> acc + s.Obs.sp_dur_ns) 0 inners))

let test_span_exception () =
  with_obs (fun () ->
      (try Obs.span ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "a raising span is still recorded" 1
        (List.length (Obs.spans ()));
      (* and the depth counter unwound: the next span is at depth 0 *)
      Obs.span ~name:"after" (fun () -> ());
      let after = List.find (fun s -> s.Obs.sp_name = "after") (Obs.spans ()) in
      Alcotest.(check int) "depth recovered after exception" 0 after.Obs.sp_depth)

let test_multi_domain_merge () =
  with_obs (fun () ->
      let pool = Pool.create ~domains:4 () in
      let out =
        Pool.map pool
          (fun i -> Obs.span ~name:"task" ~detail:(string_of_int i) (fun () -> i * i))
          (List.init 8 Fun.id)
      in
      Alcotest.(check (list int))
        "results unaffected by spans"
        (List.init 8 (fun i -> i * i))
        out;
      let tasks = List.filter (fun s -> s.Obs.sp_name = "task") (Obs.spans ()) in
      Alcotest.(check int)
        "all 8 worker spans survive the merge-at-join" 8 (List.length tasks);
      let details =
        List.sort compare (List.filter_map (fun s -> s.Obs.sp_detail) tasks)
      in
      Alcotest.(check (list string))
        "one span per task"
        (List.sort compare (List.init 8 string_of_int))
        details)

(* ---------- metrics ----------------------------------------------------- *)

let test_counter () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test_counter" in
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      Alcotest.(check int) "counter accumulates" 42 (Obs.Counter.value c);
      Obs.set_enabled false;
      Obs.Counter.incr c;
      Alcotest.(check int) "disabled counter drops updates" 42 (Obs.Counter.value c);
      Obs.set_enabled true;
      Alcotest.(check bool) "make is idempotent per name" true
        (Obs.Counter.value (Obs.Counter.make "test_counter") = 42))

let test_histogram_buckets () =
  (* log-linear: bucket 0 takes v <= 0, values 1..15 get exact buckets,
     then every power-of-two octave splits into 16 linear sub-buckets *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_of %d" v)
        b (Obs.Histogram.bucket_of v))
    [
      (-5, 0); (0, 0); (1, 1); (3, 3); (15, 15); (16, 16); (31, 31); (32, 32);
      (33, 32); (34, 33); (1023, 111); (1024, 112);
    ];
  List.iter
    (fun (i, lo) ->
      Alcotest.(check int) (Printf.sprintf "bucket_lo %d" i) lo (Obs.Histogram.bucket_lo i))
    [ (0, 0); (1, 1); (3, 3); (15, 15); (16, 16); (33, 34); (112, 1024) ];
  (* every boundary value lands in the bucket whose lower bound it is *)
  for i = 1 to 200 do
    Alcotest.(check int) "lower bound is inclusive" i
      (Obs.Histogram.bucket_of (Obs.Histogram.bucket_lo i))
  done;
  (* relative bucket width stays within 6.25% from bucket 16 on *)
  for i = 16 to 200 do
    let lo = Obs.Histogram.bucket_lo i and hi = Obs.Histogram.bucket_lo (i + 1) in
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d width %d within 6.25%% of %d" i (hi - lo) lo)
      true
      (float_of_int (hi - lo) <= 0.0625 *. float_of_int lo +. 1e-9)
  done;
  with_obs (fun () ->
      let h = Obs.Histogram.make "test_hist" in
      List.iter (Obs.Histogram.observe h) [ 0; 1; 3; 4; 100 ];
      Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
      Alcotest.(check int) "sum" 108 (Obs.Histogram.sum h);
      let b = Obs.Histogram.buckets h in
      Alcotest.(check int) "bucket 0 holds the zero" 1 b.(0);
      Alcotest.(check int) "bucket 3 holds the 3" 1 b.(3);
      Alcotest.(check int) "the 100 lands in its own exact bucket" 1
        b.(Obs.Histogram.bucket_of 100);
      Alcotest.(check int) "bucket_lo of 100's bucket is 100" 100
        (Obs.Histogram.bucket_lo (Obs.Histogram.bucket_of 100)))

let test_histogram_quantiles () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test_hist_q" in
      Alcotest.(check int) "empty histogram answers 0" 0
        (Obs.Histogram.quantile h 0.5);
      (* values 1..15 are exact buckets: quantiles of a uniform 1..10
         distribution come back exact *)
      for v = 1 to 10 do
        Obs.Histogram.observe h v
      done;
      Alcotest.(check int) "p50 of 1..10" 5 (Obs.Histogram.quantile h 0.5);
      Alcotest.(check int) "p100 of 1..10" 10 (Obs.Histogram.quantile h 1.0);
      Alcotest.(check int) "p0 clamps to the first sample" 1
        (Obs.Histogram.quantile h 0.0);
      (* a single large value: interpolation stays within the bucket's
         6.25% relative width *)
      let h2 = Obs.Histogram.make "test_hist_q2" in
      Obs.Histogram.observe h2 10_000;
      let q = Obs.Histogram.quantile h2 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "p50 of a point mass at 10000 within 6.25%% (%d)" q)
        true
        (abs (q - 10_000) <= 625);
      (* monotone in q on a skewed distribution *)
      let h3 = Obs.Histogram.make "test_hist_q3" in
      List.iter
        (fun (v, n) ->
          for _ = 1 to n do
            Obs.Histogram.observe h3 v
          done)
        [ (10, 90); (1_000, 9); (100_000, 1) ];
      let p50 = Obs.Histogram.quantile h3 0.50 in
      let p95 = Obs.Histogram.quantile h3 0.95 in
      let p99 = Obs.Histogram.quantile h3 0.99 in
      let p100 = Obs.Histogram.quantile h3 1.0 in
      Alcotest.(check int) "p50 hits the bulk" 10 p50;
      Alcotest.(check bool) "p50 <= p95 <= p99 <= p100" true
        (p50 <= p95 && p95 <= p99 && p99 <= p100);
      Alcotest.(check bool)
        (Printf.sprintf "p95 lands in the 1000 spike (%d)" p95)
        true
        (abs (p95 - 1_000) <= 63);
      Alcotest.(check bool)
        (Printf.sprintf "p100 lands at the tail (%d)" p100)
        true
        (abs (p100 - 100_000) <= 6_250))

let test_quantile_of () =
  Alcotest.(check int) "empty list" 0 (Obs.quantile_of [] 0.5);
  Alcotest.(check int) "singleton" 7 (Obs.quantile_of [ 7 ] 0.99);
  (* exact order statistics with linear interpolation, q*(n-1) *)
  let xs = [ 40; 10; 30; 20 ] in
  Alcotest.(check int) "p0" 10 (Obs.quantile_of xs 0.0);
  Alcotest.(check int) "p50 interpolates" 25 (Obs.quantile_of xs 0.5);
  Alcotest.(check int) "p100" 40 (Obs.quantile_of xs 1.0);
  Alcotest.(check int) "q clamped above" 40 (Obs.quantile_of xs 2.0);
  let xs5 = [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "p50 odd count is the median" 3 (Obs.quantile_of xs5 0.5)

let test_span_total_quantiles () =
  with_obs (fun () ->
      for _ = 1 to 20 do
        Obs.span ~name:"q" (fun () -> ignore (Sys.opaque_identity (ref 0)))
      done;
      let t = List.find (fun t -> t.Obs.st_name = "q") (Obs.span_totals ()) in
      Alcotest.(check int) "count" 20 t.Obs.st_count;
      Alcotest.(check bool) "p50 <= p95 <= p99 <= max" true
        (t.Obs.st_p50_ns <= t.Obs.st_p95_ns
        && t.Obs.st_p95_ns <= t.Obs.st_p99_ns
        && t.Obs.st_p99_ns <= t.Obs.st_max_ns);
      Alcotest.(check bool) "quantiles within total" true
        (t.Obs.st_p99_ns <= t.Obs.st_total_ns))

(* ---------- disabled mode ------------------------------------------------ *)

let test_disabled_no_alloc () =
  with_obs ~enabled:false (fun () ->
      let f = fun () -> 42 in
      (* warm up any one-time lazy state *)
      ignore (Obs.span ~name:"off" f);
      let w0 = Gc.minor_words () in
      for _ = 1 to 100_000 do
        ignore (Obs.span ~name:"off" f)
      done;
      let dw = Gc.minor_words () -. w0 in
      (* a float-returning Gc probe costs a couple of words itself; 100k
         spans must not add per-call allocations on top *)
      Alcotest.(check bool)
        (Printf.sprintf "100k disabled spans allocate ~nothing (%.0f words)" dw)
        true (dw < 512.);
      Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.spans ())))

(* ---------- JSONL export ------------------------------------------------- *)

let test_jsonl_roundtrip () =
  with_obs (fun () ->
      Obs.span ~name:"alpha" ~detail:"with \"quotes\" and \\ and \nnewline"
        (fun () -> ());
      Obs.span ~name:"beta" (fun () -> ());
      let c = Obs.Counter.make "rt_counter" in
      Obs.Counter.add c 7;
      let path = Filename.temp_file "xl_obs_test" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Obs.write_jsonl path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check bool) "at least spans + snapshot lines" true
        (List.length lines >= 3);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 2
            && String.sub l 0 7 = "{\"seq\":"
            && l.[String.length l - 1] = '}');
          (* single-line: embedded newlines must have been escaped *)
          Alcotest.(check bool) "no raw control chars" true
            (String.for_all (fun ch -> Char.code ch >= 0x20) l))
        lines;
      let seq_of l = Scanf.sscanf l "{\"seq\":%d" Fun.id in
      let seqs = List.map seq_of lines in
      Alcotest.(check bool) "sequence numbers ascend" true
        (List.sort compare seqs = seqs);
      Alcotest.(check bool) "escaped detail survived" true
        (List.exists
           (fun l ->
             let re = {|with \"quotes\" and \\ and \nnewline|} in
             let rec find i =
               i + String.length re <= String.length l
               && (String.sub l i (String.length re) = re || find (i + 1))
             in
             find 0)
           lines))

(* The teacher dialog as a view over a machine driven inside a span:
   every dialog record is stamped when its answer is stepped, so the
   records' seqs ascend and the merged JSONL interleaves them with the
   engine's spans. *)
let test_trace_jsonl () =
  with_obs (fun () ->
      let module M = Xl_core.Machine in
      let module Dialog = Xl_core.Dialog in
      let sc = List.assoc "Q5" (Xl_workload.Xmp_scenarios.all ()) in
      let r, m =
        Obs.span ~name:"ask" (fun () ->
            let m = M.start sc in
            M.drive ~teacher:(M.oracle_teacher m) m)
      in
      Alcotest.(check bool) "session verified" true r.Xl_core.Learn.verified;
      let transcript = M.transcript m in
      let records = Dialog.records transcript in
      Alcotest.(check bool) "dialog non-empty" true (records <> []);
      let seqs = List.map (fun r -> r.Dialog.seq) records in
      Alcotest.(check bool) "records carry ascending seqs" true
        (List.sort_uniq compare seqs = seqs);
      let lines = List.map snd (Dialog.to_jsonl_events transcript) in
      Alcotest.(check int) "one line per record" (List.length records) (List.length lines);
      let has sub l =
        let rec find i =
          i + String.length sub <= String.length l
          && (String.sub l i (String.length sub) = sub || find (i + 1))
        in
        find 0
      in
      (* each line states its own record's values *)
      List.iter2
        (fun (r : Dialog.record) l ->
          match r.Dialog.event with
          | Dialog.Membership { rel_path; answer; _ } ->
            Alcotest.(check bool) ("mq line: " ^ l) true
              (has {|"kind":"mq"|} l
              && has ({|"detail":|} ^ Obs.json_string (String.concat "/" rel_path)) l
              && has ({|"answer":|} ^ string_of_bool answer) l)
          | Dialog.Equivalence { outcome; _ } ->
            let outcome =
              match outcome with
              | `Accepted -> "accepted"
              | `Positive_ce _ -> "positive_ce"
              | `Negative_ce _ -> "negative_ce"
            in
            Alcotest.(check bool) ("eq line: " ^ l) true
              (has {|"kind":"eq"|} l && has ({|"outcome":"|} ^ outcome ^ {|"|}) l)
          | _ -> ())
        records lines;
      Alcotest.(check bool) "an accepted eq line" true
        (List.exists (has {|"outcome":"accepted"|}) lines);
      (* merged export: the dialog interleaves with the spans by seq *)
      let path = Filename.temp_file "xl_obs_trace" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Obs.write_jsonl ~extra:(Dialog.to_jsonl_events transcript) path;
      let ic = open_in path in
      let all = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "merged trace holds spans and dialog" true
        (has {|"name":"ask"|} all && has {|"name":"machine.step"|} all
        && has {|"kind":"mq"|} all && has {|"kind":"eq"|} all))

(* ---------- cache counters ----------------------------------------------- *)

(* The learning loop's extent cache (Oracle + Eval, shared names)
   reports through Obs counters.  A default learning run must show
   traffic on both, and zero-valued counters are filtered from the
   telemetry JSON. *)

let cache_counters = [ "extent_cache_hit"; "extent_cache_miss" ]

let counter_value name =
  match Obs.Counter.find name with
  | Some c -> Obs.Counter.value c
  | None -> 0

let has_sub sub l =
  let rec find i =
    i + String.length sub <= String.length l
    && (String.sub l i (String.length sub) = sub || find (i + 1))
  in
  find 0

let has_counter json name = has_sub (Printf.sprintf "{\"name\":\"%s\"" name) json

(* XMark Q10 on the default config hits as well as misses the extent
   cache *)
let test_cache_counters_enabled () =
  with_obs (fun () ->
      ignore (Xl_core.Learn.run (List.assoc "Q10" (Xl_workload.Xmark_scenarios.all ())));
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "%s > 0 after a default run" name)
            true
            (counter_value name > 0))
        cache_counters;
      let json = Obs.telemetry_json () in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "%s appears in the telemetry block" name)
            true
            (has_counter json name))
        cache_counters)

let test_zero_counters_filtered () =
  let idle = Obs.Counter.make "test_idle_counter" in
  let bumped = Obs.Counter.make "test_bumped_counter" in
  with_obs (fun () ->
      Obs.Counter.incr bumped;
      Alcotest.(check int) "idle counter is zero" 0 (Obs.Counter.value idle);
      let json = Obs.telemetry_json () in
      Alcotest.(check bool) "bumped counter exported" true
        (has_counter json "test_bumped_counter");
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "zero %s filtered from telemetry" name)
            false (has_counter json name))
        ("test_idle_counter" :: cache_counters))

(* ---------- clock -------------------------------------------------------- *)

let test_monotonic_clock () =
  (* the C stub must be in effect on every platform CI runs on; the
     pure-OCaml fallback exists for platforms without CLOCK_MONOTONIC *)
  Alcotest.(check bool) "monotonic stub resolved" true Obs.monotonic;
  let prev = ref (Obs.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Obs.now_ns () in
    if t < !prev then Alcotest.failf "clock stepped backwards: %d -> %d" !prev t;
    prev := t
  done

(* ---------- at-exit flush ------------------------------------------------ *)

let test_at_exit_flush () =
  with_obs (fun () ->
      (* a raw domain that records spans but never calls flush_domain:
         the Domain.at_exit backstop must merge its buffer anyway *)
      let d =
        Domain.spawn (fun () -> Obs.span ~name:"orphan" (fun () -> Sys.opaque_identity 1))
      in
      ignore (Domain.join d);
      let id = (Domain.get_id d :> int) in
      Alcotest.(check bool) "orphan span survived the domain's death" true
        (List.exists (fun s -> s.Obs.sp_name = "orphan") (Obs.spans ()));
      Alcotest.(check bool) "dead domain's buffer is empty" true
        (Obs.domain_buffer_empty id))

(* Spans recorded while enabled are read after telemetry is switched
   off: disabling must not strand the calling domain's unflushed spans. *)
let test_flush_after_disable () =
  with_obs (fun () ->
      for i = 1 to 5 do
        Obs.span ~name:"before-off" ~detail:(string_of_int i) (fun () -> ())
      done;
      Obs.set_enabled false;
      let got =
        List.filter (fun s -> s.Obs.sp_name = "before-off") (Obs.spans ())
      in
      Alcotest.(check (list string)) "every span is still in Obs.spans"
        [ "1"; "2"; "3"; "4"; "5" ]
        (List.map (fun s -> Option.value ~default:"" s.Obs.sp_detail) got);
      Alcotest.(check int) "and in span_totals" 5
        (List.fold_left
           (fun acc t -> if t.Obs.st_name = "before-off" then acc + t.Obs.st_count else acc)
           0 (Obs.span_totals ())))

(* ---------- Perfetto export ---------------------------------------------- *)

let perfetto_x_events text =
  match Json.parse text with
  | Error e -> Alcotest.failf "perfetto output is not JSON: %s" e
  | Ok j -> (
    match Option.bind (Json.member "traceEvents" j) Json.to_list_opt with
    | None -> Alcotest.fail "perfetto output lacks traceEvents"
    | Some events ->
      List.filter (fun ev -> Json.mem_str "ph" ev = Some "X") events)

let test_perfetto_export () =
  with_obs (fun () ->
      Obs.span ~name:"outer" (fun () ->
          Obs.span ~name:"inner" (fun () -> Sys.opaque_identity ()));
      let c = Obs.Counter.make "pf_counter" in
      Obs.Counter.add c 3;
      let text = Perfetto.to_string () in
      (match Perfetto.validate text with
      | Error e -> Alcotest.failf "perfetto validate: %s" e
      | Ok n -> Alcotest.(check int) "two complete events" 2 n);
      let xs = perfetto_x_events text in
      let depth_of name =
        match
          List.find_opt (fun ev -> Json.mem_str "name" ev = Some name) xs
        with
        | None -> Alcotest.failf "no X event %s" name
        | Some ev -> (
          match Option.bind (Json.member "args" ev) (Json.mem_int "depth") with
          | Some d -> d
          | None -> Alcotest.failf "%s lacks args.depth" name)
      in
      Alcotest.(check int) "outer nests at depth 0" 0 (depth_of "outer");
      Alcotest.(check int) "inner nests at depth 1" 1 (depth_of "inner");
      Alcotest.(check bool) "counter snapshot present" true
        (let rec find i =
           i + 10 <= String.length text
           && (String.sub text i 10 = "pf_counter" || find (i + 1))
         in
         find 0))

let test_perfetto_domains () =
  with_obs (fun () ->
      let pool = Pool.create ~domains:4 () in
      ignore
        (Pool.map pool
           (fun i -> Obs.span ~name:"ptask" (fun () -> i))
           (List.init 8 Fun.id));
      let text = Perfetto.to_string () in
      (match Perfetto.validate text with
      | Error e -> Alcotest.failf "perfetto validate: %s" e
      | Ok n ->
        Alcotest.(check bool) "at least the 8 task events" true (n >= 8));
      (* tid = recording domain for every complete event *)
      let span_domains =
        List.sort_uniq compare
          (List.map (fun s -> s.Obs.sp_domain) (Obs.spans ()))
      in
      let event_tids =
        List.sort_uniq compare
          (List.filter_map (Json.mem_int "tid") (perfetto_x_events text))
      in
      Alcotest.(check (list int))
        "X-event tids are exactly the recording domains" span_domains event_tids)

(* ---------- sampling profiler -------------------------------------------- *)

let busy_ms ms =
  let t0 = Obs.now_ns () in
  let spin = ref 0 in
  while Obs.now_ns () - t0 < ms * 1_000_000 do
    incr spin
  done;
  Sys.opaque_identity !spin

let test_profiler_folded () =
  with_obs (fun () ->
      Profiler.reset ();
      Profiler.start ~interval_us:200 ();
      Alcotest.(check bool) "sampler running" true (Profiler.running ());
      ignore
        (Obs.span ~name:"outer" (fun () ->
             Obs.span ~name:"inner" (fun () -> busy_ms 60)));
      Profiler.stop ();
      Alcotest.(check bool) "sampler stopped" false (Profiler.running ());
      (* ~60 ms of nested work at a 200 µs period: hundreds of ticks,
         nearly all on the outer;inner stack.  Keep the assertion loose —
         schedulers stall — but a working sampler cannot miss it. *)
      Alcotest.(check bool)
        (Printf.sprintf "samples collected (%d)" (Profiler.sample_count ()))
        true
        (Profiler.sample_count () >= 5);
      let nested =
        List.fold_left
          (fun acc (stack, n) ->
            if stack = [ "outer"; "inner" ] then acc + n else acc)
          0 (Profiler.samples ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "outer;inner dominates (%d hits)" nested)
        true (nested >= 5);
      let folded = Profiler.folded () in
      Alcotest.(check bool) "folded line rendered" true
        (let sub = Printf.sprintf "outer;inner %d" nested in
         let rec find i =
           i + String.length sub <= String.length folded
           && (String.sub folded i (String.length sub) = sub || find (i + 1))
         in
         find 0);
      Profiler.reset ();
      Alcotest.(check int) "reset drops samples" 0 (Profiler.sample_count ()))

let test_profiler_disabled () =
  Obs.reset ();
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.reset ()) @@ fun () ->
  Profiler.reset ();
  Profiler.start ~interval_us:200 ();
  (* telemetry is off: start is a documented no-op *)
  Alcotest.(check bool) "profiler refuses to start when disabled" false
    (Profiler.running ());
  ignore (Obs.span ~name:"off" (fun () -> busy_ms 3));
  Profiler.stop ();
  Alcotest.(check int) "zero samples with telemetry disabled" 0
    (Profiler.sample_count ());
  Alcotest.(check int) "zero ticks" 0 (Profiler.ticks ())

(* ---------- trace analysis ----------------------------------------------- *)

let test_trace_analysis () =
  with_obs (fun () ->
      ignore (Obs.span ~name:"side" (fun () -> Sys.opaque_identity 0));
      ignore
        (Obs.span ~name:"outer" (fun () ->
             Obs.span ~name:"inner" (fun () -> busy_ms 2)));
      let path = Filename.temp_file "xl_obs_tan" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Obs.write_jsonl path;
      match Tan.load path with
      | Error e -> Alcotest.failf "trace failed to load: %s" e
      | Ok t ->
        Alcotest.(check int) "three spans" 3 (List.length t.Tan.spans);
        Alcotest.(check int) "two roots" 2 (List.length t.Tan.roots);
        let outer = List.find (fun s -> s.Tan.name = "outer") t.Tan.spans in
        let inner = List.find (fun s -> s.Tan.name = "inner") t.Tan.spans in
        Alcotest.(check int) "inner is outer's only child" 1
          (List.length outer.Tan.children);
        Alcotest.(check int) "outer's child time is inner's duration"
          inner.Tan.dur_ns outer.Tan.child_ns;
        Alcotest.(check int) "self = dur - children"
          (outer.Tan.dur_ns - inner.Tan.dur_ns)
          (Tan.self_ns outer);
        (* by_name: inner burns the busy loop, so it leads on self time *)
        (match Tan.by_name t with
        | top :: _ -> Alcotest.(check string) "inner leads self time" "inner" top.Tan.ns_name
        | [] -> Alcotest.fail "by_name is empty");
        (* critical path: outer ends last (it ran second), then inner *)
        let path_names = List.map (fun s -> s.Tan.name) (Tan.critical_path t) in
        Alcotest.(check (list string))
          "critical path walks the latest-ending chain" [ "outer"; "inner" ]
          path_names;
        let util = Tan.utilization t in
        Alcotest.(check int) "one domain" 1 (List.length util);
        let report = Tan.report t in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "report mentions %S" needle)
              true
              (let rec find i =
                 i + String.length needle <= String.length report
                 && (String.sub report i (String.length needle) = needle
                    || find (i + 1))
               in
               find 0))
          [ "critical path"; "worker utilization"; "inner"; "span tree" ])

let test_trace_analysis_malformed () =
  (match Tan.of_string "{\"seq\":1,\"kind\":\"counter\",\"name\":\"x\",\"value\":1}\nnot json at all\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names line 2 (%s)" e)
      true
      (let rec find i =
         i + 6 <= String.length e
         && (String.sub e i 6 = "line 2" || find (i + 1))
       in
       find 0));
  (match Tan.of_string "{\"seq\":1,\"kind\":\"span\",\"name\":\"x\"}" with
  | Ok _ -> Alcotest.fail "span line without fields accepted"
  | Error _ -> ());
  match Tan.of_string "" with
  | Ok t ->
    Alcotest.(check int) "empty trace loads as zero events" 0 t.Tan.events;
    Alcotest.(check int) "empty trace has zero wall" 0 (Tan.wall_ns t)
  | Error e -> Alcotest.failf "empty input rejected: %s" e

(* ---------- reset -------------------------------------------------------- *)

let test_reset () =
  with_obs (fun () ->
      Obs.span ~name:"s" (fun () -> ());
      let c = Obs.Counter.make "reset_counter" in
      Obs.Counter.add c 5;
      let h = Obs.Histogram.make "reset_hist" in
      Obs.Histogram.observe h 9;
      Obs.reset ();
      Alcotest.(check int) "spans dropped" 0 (List.length (Obs.spans ()));
      Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value c);
      Alcotest.(check int) "histogram zeroed" 0 (Obs.Histogram.count h);
      Obs.Counter.incr c;
      Alcotest.(check int) "registration survives reset" 1 (Obs.Counter.value c))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and totals" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "merge across 4 domains" `Quick
            test_multi_domain_merge;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counter;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "exact quantiles (quantile_of)" `Quick
            test_quantile_of;
          Alcotest.test_case "span-total quantile ordering" `Quick
            test_span_total_quantiles;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic now_ns" `Quick test_monotonic_clock ] );
      ( "flush",
        [
          Alcotest.test_case "Domain.at_exit backstop" `Quick
            test_at_exit_flush;
          Alcotest.test_case "spans survive set_enabled false" `Quick
            test_flush_after_disable;
        ] );
      ( "disabled",
        [ Alcotest.test_case "zero allocation" `Quick test_disabled_no_alloc ] );
      ( "perfetto",
        [
          Alcotest.test_case "export round-trip + nesting" `Quick
            test_perfetto_export;
          Alcotest.test_case "domain-to-tid mapping" `Quick
            test_perfetto_domains;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "folded stacks on nested work" `Quick
            test_profiler_folded;
          Alcotest.test_case "no-op when telemetry disabled" `Quick
            test_profiler_disabled;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "trace load + report" `Quick test_trace_analysis;
          Alcotest.test_case "malformed traces rejected" `Quick
            test_trace_analysis_malformed;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "teacher dialog (Trace)" `Quick test_trace_jsonl;
        ] );
      ( "caches",
        [
          Alcotest.test_case "extent counters on a fast-path run" `Quick
            test_cache_counters_enabled;
          Alcotest.test_case "zero counters absent from telemetry" `Quick
            test_zero_counters_filtered;
        ] );
      ( "reset", [ Alcotest.test_case "reset semantics" `Quick test_reset ] );
    ]
