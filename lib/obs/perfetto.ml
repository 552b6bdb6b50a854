(** Perfetto / Chrome trace-event exporter.

    Renders the merged spans as a JSON object in the trace-event format
    (https://ui.perfetto.dev opens it directly, as does
    chrome://tracing): every span becomes a complete event
    ([ph = "X"]) with [pid] and [tid] set to the recording domain id,
    so each domain gets its own track and the pool fan-out is visible
    as parallel lanes.  Metadata events name the tracks; counter
    samples (from [Profiler], plus a final snapshot of every non-zero
    counter) become counter-track events ([ph = "C"]).

    Timestamps are microseconds (floats, so the nanosecond clock keeps
    sub-microsecond precision), rebased to the earliest event so the
    trace starts near zero. *)

module Json = Xl_json.Json

let buf_add_event b ~first ~name ~ph ~ts_us ~pid ~tid ~extra =
  if not !first then Buffer.add_string b ",\n  ";
  first := false;
  Buffer.add_string b
    (Printf.sprintf {|{"name":%s,"ph":"%s","ts":%.3f,"pid":%d,"tid":%d%s}|}
       (Obs.json_string name) ph ts_us pid tid extra)

let span_args (r : Obs.span_rec) =
  let detail =
    match r.Obs.sp_detail with
    | Some d -> Printf.sprintf {|"detail":%s,|} (Obs.json_string d)
    | None -> ""
  in
  let session =
    match r.Obs.sp_session with
    | Some s -> Printf.sprintf {|"session":%s,|} (Obs.json_string s)
    | None -> ""
  in
  Printf.sprintf {|,"cat":"span","dur":%.3f,"args":{%s%s"depth":%d,"seq":%d}|}
    (float_of_int r.Obs.sp_dur_ns /. 1e3)
    detail session r.Obs.sp_depth r.Obs.sp_seq

let to_string ?(counter_samples = []) () =
  let spans = Obs.spans () in
  (* rebase: monotonic nanoseconds since boot are huge; perfetto handles
     them, humans scrubbing a timeline do not *)
  let base =
    List.fold_left
      (fun acc (r : Obs.span_rec) -> min acc r.Obs.sp_t0_ns)
      (List.fold_left (fun acc (ts, _, _) -> min acc ts) max_int counter_samples)
      spans
  in
  let base = if base = max_int then 0 else base in
  let us ns = float_of_int (ns - base) /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n  ";
  let first = ref true in
  (* track-naming metadata: one process/thread pair per domain *)
  let domains =
    List.sort_uniq compare
      (List.map (fun (r : Obs.span_rec) -> r.Obs.sp_domain) spans)
  in
  List.iter
    (fun dom ->
      buf_add_event b ~first ~name:"process_name" ~ph:"M" ~ts_us:0. ~pid:dom
        ~tid:dom
        ~extra:(Printf.sprintf {|,"args":{"name":"domain %d"}|} dom);
      buf_add_event b ~first ~name:"thread_name" ~ph:"M" ~ts_us:0. ~pid:dom
        ~tid:dom
        ~extra:(Printf.sprintf {|,"args":{"name":"domain %d spans"}|} dom))
    domains;
  List.iter
    (fun (r : Obs.span_rec) ->
      buf_add_event b ~first ~name:r.Obs.sp_name ~ph:"X" ~ts_us:(us r.Obs.sp_t0_ns)
        ~pid:r.Obs.sp_domain ~tid:r.Obs.sp_domain ~extra:(span_args r))
    spans;
  (* counter tracks: the profiler's per-tick samples give real curves;
     the final snapshot at least pins the end value of every counter *)
  List.iter
    (fun (ts, name, v) ->
      buf_add_event b ~first ~name ~ph:"C" ~ts_us:(us ts) ~pid:0 ~tid:0
        ~extra:(Printf.sprintf {|,"args":{"value":%d}|} v))
    counter_samples;
  let end_ts =
    List.fold_left
      (fun acc (r : Obs.span_rec) -> max acc (r.Obs.sp_t0_ns + r.Obs.sp_dur_ns))
      base spans
  in
  List.iter
    (fun c ->
      let v = Obs.Counter.value c in
      if v <> 0 then
        buf_add_event b ~first ~name:(Obs.Counter.name c) ~ph:"C"
          ~ts_us:(us end_ts) ~pid:0 ~tid:0
          ~extra:(Printf.sprintf {|,"args":{"value":%d}|} v))
    (Obs.Counter.all ());
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let write ?counter_samples path =
  let oc = open_out path in
  output_string oc (to_string ?counter_samples ());
  close_out oc

(* ---------- round-trip validation ---------------------------------------- *)

(* Re-parse an exported trace and check the structural contract the UI
   relies on: a [traceEvents] array whose complete events carry numeric
   ts/dur and the pid = tid = domain mapping.  Returns the number of
   complete (span) events. *)
let validate (text : string) : (int, string) result =
  match Json.parse text with
  | Error e -> Error (Printf.sprintf "not valid JSON: %s" e)
  | Ok j -> (
    match Option.bind (Json.member "traceEvents" j) Json.to_list_opt with
    | None -> Error "missing traceEvents array"
    | Some events ->
      let rec check n = function
        | [] -> Ok n
        | ev :: rest -> (
          match
            (Json.mem_str "ph" ev, Json.mem_str "name" ev,
             Json.mem_int "pid" ev, Json.mem_int "tid" ev)
          with
          | Some ph, Some _, Some pid, Some tid -> (
            match ph with
            | "X" ->
              if Json.mem_float "ts" ev = None then Error "X event without ts"
              else if Json.mem_float "dur" ev = None then
                Error "X event without dur"
              else if pid <> tid then
                Error
                  (Printf.sprintf "X event pid %d <> tid %d (domain mapping)"
                     pid tid)
              else check (n + 1) rest
            | "C" ->
              if Option.bind (Json.member "args" ev) (Json.mem_int "value") = None
              then Error "C event without args.value"
              else check n rest
            | "M" -> check n rest
            | other -> Error (Printf.sprintf "unexpected phase %S" other))
          | _ -> Error "event missing ph/name/pid/tid")
      in
      check 0 events)
