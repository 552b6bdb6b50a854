(** Domain-safe telemetry: spans, a metrics registry, and exporters.

    See the interface for the collection model.  Implementation notes:

    - the enabled flag is a plain [bool ref]: it is written before any
      domain fan-out (the spawn publishes it) and only read afterwards,
      so the hot-path check is one load and one branch;
    - span buffers are [Domain.DLS] values — recording a span is a list
      cons into domain-local state, no lock, no atomic;
    - counters and histogram buckets are [Atomic.t] cells, so updates
      from concurrent pool workers never lose increments and never
      block;
    - each domain's buffer is registered in a global table on first use
      and flushed by a [Domain.at_exit] hook, so spans recorded on a
      domain that never calls {!flush_domain} are merged when the
      domain dies instead of being silently dropped. *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ---------- clock ------------------------------------------------------- *)

(* clock_gettime(CLOCK_MONOTONIC) via the C stub: immune to NTP steps, so
   a span duration can never go negative.  The stub answers -1 where the
   monotonic clock is unavailable; then the pure-OCaml gettimeofday
   fallback keeps the module working (microsecond resolution, wall
   base).  Probed once at startup. *)
external monotonic_clock_ns : unit -> int = "xl_obs_monotonic_ns" [@@noalloc]

let gettimeofday_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let monotonic = monotonic_clock_ns () >= 0
let now_ns = if monotonic then monotonic_clock_ns else gettimeofday_ns

let seq_counter = Atomic.make 0
let next_seq () = Atomic.fetch_and_add seq_counter 1
let next_seqs n = Atomic.fetch_and_add seq_counter n

(* ---------- quantiles over raw samples ---------------------------------- *)

(* exact q-quantile of a sample list, linear interpolation between order
   statistics (the [q * (n-1)] convention): shared by the span-total
   aggregation here and the per-scenario latency rows of the bench *)
let quantile_of_sorted (a : int array) (q : float) : int =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) + int_of_float (frac *. float_of_int (a.(i + 1) - a.(i)))
  end

let quantile_of (xs : int list) (q : float) : int =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile_of_sorted a q

(* ---------- spans ------------------------------------------------------- *)

type span_rec = {
  sp_name : string;
  sp_detail : string option;
  sp_session : string option;
  sp_t0_ns : int;
  sp_dur_ns : int;
  sp_seq : int;
  sp_depth : int;
  sp_domain : int;
}

type span_total = {
  st_name : string;
  st_count : int;
  st_total_ns : int;
  st_max_ns : int;
  st_p50_ns : int;
  st_p95_ns : int;
  st_p99_ns : int;
}

(* Per-domain state: the span buffer plus the profiler's active-span
   stack.  The stack is written by this domain only ([span] pushes and
   pops) and read by the sampler domain: the element count is an
   [Atomic.t] so a frame write happens-before the count that publishes
   it — the sampler sees initialized strings for every index below the
   count it read.  A concurrently popped-and-repushed frame may be
   observed stale; a sampling profiler tolerates that. *)
type dbuf = {
  dom : int;
  mutable buf_spans : span_rec list;
  mutable buf_depth : int;
  mutable buf_session : string option;
      (* ambient session tag: the server sets it around each scheduled
         task, so every span a worker records while serving a session is
         attributable without threading an argument through the engine *)
  mutable stk : string array;
  stk_n : int Atomic.t;
}

let merge_mutex = Mutex.create ()
let merged : span_rec list ref = ref []

(* registry of live per-domain buffers, keyed by domain id: lets the
   profiler sample every domain's stack and lets [Xl_exec.Pool] assert
   that a joined worker left nothing unflushed *)
let registry_mutex = Mutex.create ()
let buf_registry : (int, dbuf) Hashtbl.t = Hashtbl.create 16

let flush_buf (buf : dbuf) =
  match buf.buf_spans with
  | [] -> ()
  | spans ->
    buf.buf_spans <- [];
    Mutex.protect merge_mutex (fun () -> merged := List.rev_append spans !merged)

let buf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let dom = (Domain.self () :> int) in
      let buf =
        {
          dom;
          buf_spans = [];
          buf_depth = 0;
          buf_session = None;
          stk = Array.make 16 "";
          stk_n = Atomic.make 0;
        }
      in
      Mutex.protect registry_mutex (fun () ->
          Hashtbl.replace buf_registry dom buf);
      (* the span-loss fix: whatever this domain recorded is merged when
         the domain dies, even if nothing ever called flush_domain *)
      Domain.at_exit (fun () ->
          flush_buf buf;
          Atomic.set buf.stk_n 0;
          Mutex.protect registry_mutex (fun () ->
              (* a reused id slot may belong to a younger domain *)
              match Hashtbl.find_opt buf_registry dom with
              | Some b when b == buf -> Hashtbl.remove buf_registry dom
              | _ -> ()));
      buf)

(* unconditional: spans recorded while enabled must still merge after
   [set_enabled false], or [spans] would lose this domain's last ones *)
let flush_domain () = flush_buf (Domain.DLS.get buf_key)

let set_session s = (Domain.DLS.get buf_key).buf_session <- s
let current_session () = (Domain.DLS.get buf_key).buf_session

let with_session s f =
  let buf = Domain.DLS.get buf_key in
  let prev = buf.buf_session in
  buf.buf_session <- s;
  Fun.protect ~finally:(fun () -> buf.buf_session <- prev) f

let domain_buffer_empty dom =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt buf_registry dom with
      | None -> true
      | Some b -> b.buf_spans == [])

(* ---------- profiler hooks ---------------------------------------------- *)

(* [span] maintains the active-span stack only while a sampler is
   attached: one atomic load on the enabled path, nothing at all when
   telemetry is off.  Owned by [Profiler]. *)
let profiler_hooks = Atomic.make false
let set_profiler_hooks b = Atomic.set profiler_hooks b
let profiler_hooks_on () = Atomic.get profiler_hooks

let stack_push buf name =
  let n = Atomic.get buf.stk_n in
  if n >= Array.length buf.stk then begin
    let bigger = Array.make (2 * Array.length buf.stk) "" in
    Array.blit buf.stk 0 bigger 0 n;
    buf.stk <- bigger
  end;
  buf.stk.(n) <- name;
  Atomic.set buf.stk_n (n + 1)

let stack_pop buf = Atomic.set buf.stk_n (Atomic.get buf.stk_n - 1)

let active_stacks () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold
        (fun dom buf acc ->
          let n = Atomic.get buf.stk_n in
          if n <= 0 then acc
          else begin
            let arr = buf.stk in
            let n = min n (Array.length arr) in
            (dom, Array.to_list (Array.sub arr 0 n)) :: acc
          end)
        buf_registry [])

let span ~name ?detail f =
  if not !enabled_flag then f ()
  else begin
    let buf = Domain.DLS.get buf_key in
    let seq = next_seq () in
    let depth = buf.buf_depth in
    buf.buf_depth <- depth + 1;
    let sampled = Atomic.get profiler_hooks in
    if sampled then stack_push buf name;
    let t0 = now_ns () in
    let record () =
      let dur = now_ns () - t0 in
      if sampled then stack_pop buf;
      buf.buf_depth <- depth;
      buf.buf_spans <-
        {
          sp_name = name;
          sp_detail = detail;
          sp_session = buf.buf_session;
          sp_t0_ns = t0;
          sp_dur_ns = dur;
          sp_seq = seq;
          sp_depth = depth;
          sp_domain = (Domain.self () :> int);
        }
        :: buf.buf_spans
    in
    match f () with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

let record_completed ~name ?detail ?session ~t0_ns () =
  if !enabled_flag then begin
    let buf = Domain.DLS.get buf_key in
    let session =
      match session with Some _ as s -> s | None -> buf.buf_session
    in
    buf.buf_spans <-
      {
        sp_name = name;
        sp_detail = detail;
        sp_session = session;
        sp_t0_ns = t0_ns;
        sp_dur_ns = now_ns () - t0_ns;
        sp_seq = next_seq ();
        sp_depth = buf.buf_depth;
        sp_domain = (Domain.self () :> int);
      }
      :: buf.buf_spans
  end

let spans () =
  flush_domain ();
  let all = Mutex.protect merge_mutex (fun () -> !merged) in
  List.sort (fun a b -> compare a.sp_seq b.sp_seq) all

let span_totals () =
  let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.sp_name with
      | Some durs -> durs := r.sp_dur_ns :: !durs
      | None -> Hashtbl.replace tbl r.sp_name (ref [ r.sp_dur_ns ]))
    (spans ());
  Hashtbl.fold
    (fun name durs acc ->
      let a = Array.of_list !durs in
      Array.sort compare a;
      let n = Array.length a in
      {
        st_name = name;
        st_count = n;
        st_total_ns = Array.fold_left ( + ) 0 a;
        st_max_ns = a.(n - 1);
        st_p50_ns = quantile_of_sorted a 0.50;
        st_p95_ns = quantile_of_sorted a 0.95;
        st_p99_ns = quantile_of_sorted a 0.99;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.st_name b.st_name)

(* ---------- metrics registry -------------------------------------------- *)

module Counter = struct
  type t = { c_name : string; cell : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let reg_mutex = Mutex.create ()

  let make name =
    Mutex.protect reg_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c)

  let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.cell n)
  let incr c = add c 1
  let value c = Atomic.get c.cell
  let name c = c.c_name

  let find name =
    Mutex.protect reg_mutex (fun () -> Hashtbl.find_opt registry name)

  let all () =
    Mutex.protect reg_mutex (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) registry [])
    |> List.sort (fun a b -> String.compare a.c_name b.c_name)

  let reset () = List.iter (fun c -> Atomic.set c.cell 0) (all ())
end

module Histogram = struct
  (* Log-linear buckets (the HdrHistogram idea): each power-of-two
     octave splits into [sub_buckets] equal linear sub-buckets, so the
     relative width of any bucket is at most 1/sub_buckets = 6.25% —
     tight enough for interpolated p50/p95/p99.  Values below
     [sub_buckets] get an exact bucket each (bucket 0 also absorbs
     v <= 0), and the two schemes meet seamlessly at v = 16. *)
  let sub_buckets = 16
  let sub_bits = 4

  (* the top octave starts at 2^61 (OCaml ints are 63-bit) *)
  let bucket_count = ((61 - (sub_bits - 1)) * sub_buckets) + sub_buckets

  type t = { h_name : string; h_buckets : int Atomic.t array; h_sum : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let reg_mutex = Mutex.create ()

  let make name =
    Mutex.protect reg_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
          let h =
            {
              h_name = name;
              h_buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
              h_sum = Atomic.make 0;
            }
          in
          Hashtbl.replace registry name h;
          h)

  let bucket_of v =
    if v <= 0 then 0
    else if v < sub_buckets then v
    else begin
      (* e = floor(log2 v) >= sub_bits; the sub-bucket is the next
         [sub_bits] bits below the leading one *)
      let rec msb acc n = if n <= 1 then acc else msb (acc + 1) (n lsr 1) in
      let e = msb 0 v in
      min (bucket_count - 1)
        (((e - (sub_bits - 1)) * sub_buckets) + ((v lsr (e - sub_bits)) land (sub_buckets - 1)))
    end

  let bucket_lo i =
    if i <= 0 then 0
    else if i < sub_buckets then i
    else begin
      let e = (i / sub_buckets) + (sub_bits - 1) in
      let sub = i land (sub_buckets - 1) in
      (1 lsl e) + (sub lsl (e - sub_bits))
    end

  let observe h v =
    if !enabled_flag then begin
      ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1);
      ignore (Atomic.fetch_and_add h.h_sum v)
    end

  let count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_buckets
  let sum h = Atomic.get h.h_sum
  let buckets h = Array.map Atomic.get h.h_buckets
  let name h = h.h_name

  let quantile h q =
    let total = count h in
    if total = 0 then 0
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank =
        max 1 (min total (int_of_float (ceil (q *. float_of_int total))))
      in
      let rec go i cum =
        let c = Atomic.get h.h_buckets.(i) in
        if cum + c >= rank then begin
          let lo = bucket_lo i in
          let hi =
            if i + 1 >= bucket_count then 2 * lo else bucket_lo (i + 1)
          in
          (* place the rank at sub-bucket midpoints: a width-1 (exact)
             bucket answers its exact value *)
          let frac =
            (float_of_int (rank - cum) -. 0.5) /. float_of_int c
          in
          lo + int_of_float (frac *. float_of_int (hi - lo))
        end
        else go (i + 1) (cum + c)
      in
      go 0 0
    end

  let all () =
    Mutex.protect reg_mutex (fun () ->
        Hashtbl.fold (fun _ h acc -> h :: acc) registry [])
    |> List.sort (fun a b -> String.compare a.h_name b.h_name)

  let reset () =
    List.iter
      (fun h ->
        Array.iter (fun c -> Atomic.set c 0) h.h_buckets;
        Atomic.set h.h_sum 0)
      (all ())
end

(* ---------- JSON -------------------------------------------------------- *)

let json_escape = Xl_json.Json.escape
let json_string = Xl_json.Json.quote

let event_json ~seq ~ts_ns ~kind ~name ?detail ~fields () =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf {|{"seq":%d,"ts_ns":%d,"kind":%s,"name":%s|} seq ts_ns
       (json_string kind) (json_string name));
  (match detail with
  | Some d -> Buffer.add_string b (Printf.sprintf {|,"detail":%s|} (json_string d))
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf {|,%s:%s|} (json_string k) v))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------- exporters --------------------------------------------------- *)

let span_events () =
  List.map
    (fun r ->
      let fields =
        [
          ("dur_ns", string_of_int r.sp_dur_ns);
          ("depth", string_of_int r.sp_depth);
          ("domain", string_of_int r.sp_domain);
        ]
      in
      let fields =
        match r.sp_session with
        | Some s -> ("session", json_string s) :: fields
        | None -> fields
      in
      ( r.sp_seq,
        event_json ~seq:r.sp_seq ~ts_ns:r.sp_t0_ns ~kind:"span" ~name:r.sp_name
          ?detail:r.sp_detail ~fields () ))
    (spans ())

let histogram_buckets_json h =
  let bs = Histogram.buckets h in
  let parts = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        parts :=
          Printf.sprintf {|{"lo":%d,"count":%d}|} (Histogram.bucket_lo i) c
          :: !parts)
    bs;
  "[" ^ String.concat "," (List.rev !parts) ^ "]"

let snapshot_events () =
  let counters =
    List.map
      (fun c ->
        event_json ~seq:(next_seq ()) ~ts_ns:(now_ns ()) ~kind:"counter"
          ~name:(Counter.name c)
          ~fields:[ ("value", string_of_int (Counter.value c)) ]
          ())
      (Counter.all ())
  in
  let histograms =
    List.map
      (fun h ->
        event_json ~seq:(next_seq ()) ~ts_ns:(now_ns ()) ~kind:"histogram"
          ~name:(Histogram.name h)
          ~fields:
            [
              ("count", string_of_int (Histogram.count h));
              ("sum", string_of_int (Histogram.sum h));
              ("p50", string_of_int (Histogram.quantile h 0.50));
              ("p95", string_of_int (Histogram.quantile h 0.95));
              ("p99", string_of_int (Histogram.quantile h 0.99));
              ("buckets", histogram_buckets_json h);
            ]
          ())
      (Histogram.all ())
  in
  counters @ histograms

let write_jsonl ?(extra = []) path =
  let events = span_events () @ extra in
  let events = List.sort (fun (a, _) (b, _) -> compare a b) events in
  let oc = open_out path in
  List.iter
    (fun (_, line) ->
      output_string oc line;
      output_char oc '\n')
    events;
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (snapshot_events ());
  close_out oc

let summary_table () =
  let b = Buffer.create 1024 in
  let totals =
    List.sort
      (fun a b -> compare b.st_total_ns a.st_total_ns)
      (span_totals ())
  in
  Buffer.add_string b "telemetry summary\n";
  Buffer.add_string b
    (Printf.sprintf "%-26s %8s %12s %11s %11s %11s %11s %12s\n" "span" "count"
       "total ms" "mean us" "p50 us" "p95 us" "p99 us" "max ms");
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "%-26s %8d %12.2f %11.1f %11.1f %11.1f %11.1f %12.2f\n"
           t.st_name t.st_count
           (float_of_int t.st_total_ns /. 1e6)
           (float_of_int t.st_total_ns /. 1e3 /. float_of_int t.st_count)
           (float_of_int t.st_p50_ns /. 1e3)
           (float_of_int t.st_p95_ns /. 1e3)
           (float_of_int t.st_p99_ns /. 1e3)
           (float_of_int t.st_max_ns /. 1e6)))
    totals;
  let counters = List.filter (fun c -> Counter.value c <> 0) (Counter.all ()) in
  if counters <> [] then begin
    Buffer.add_string b (Printf.sprintf "%-26s %14s\n" "counter" "value");
    List.iter
      (fun c ->
        Buffer.add_string b
          (Printf.sprintf "%-26s %14d\n" (Counter.name c) (Counter.value c)))
      counters
  end;
  let histograms =
    List.filter (fun h -> Histogram.count h <> 0) (Histogram.all ())
  in
  if histograms <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-26s %8s %12s %8s %8s %8s  %s\n" "histogram" "count"
         "sum" "p50" "p95" "p99" "buckets lo:count");
    List.iter
      (fun h ->
        let bs = Histogram.buckets h in
        let parts = ref [] in
        Array.iteri
          (fun i c ->
            if c > 0 then
              parts := Printf.sprintf "%d:%d" (Histogram.bucket_lo i) c :: !parts)
          bs;
        Buffer.add_string b
          (Printf.sprintf "%-26s %8d %12d %8d %8d %8d  %s\n" (Histogram.name h)
             (Histogram.count h) (Histogram.sum h)
             (Histogram.quantile h 0.50)
             (Histogram.quantile h 0.95)
             (Histogram.quantile h 0.99)
             (String.concat " " (List.rev !parts))))
      histograms
  end;
  Buffer.contents b

let telemetry_json ?(indent = "") () =
  let nl = "\n" ^ indent in
  let spans_json =
    List.map
      (fun t ->
        Printf.sprintf
          {|{"name":%s,"count":%d,"total_ns":%d,"max_ns":%d,"p50_ns":%d,"p95_ns":%d,"p99_ns":%d}|}
          (json_string t.st_name) t.st_count t.st_total_ns t.st_max_ns
          t.st_p50_ns t.st_p95_ns t.st_p99_ns)
      (span_totals ())
  in
  let counters_json =
    List.filter_map
      (fun c ->
        if Counter.value c = 0 then None
        else
          Some
            (Printf.sprintf {|{"name":%s,"value":%d}|}
               (json_string (Counter.name c))
               (Counter.value c)))
      (Counter.all ())
  in
  let histograms_json =
    List.filter_map
      (fun h ->
        if Histogram.count h = 0 then None
        else
          Some
            (Printf.sprintf
               {|{"name":%s,"count":%d,"sum":%d,"p50":%d,"p95":%d,"p99":%d,"buckets":%s}|}
               (json_string (Histogram.name h))
               (Histogram.count h) (Histogram.sum h)
               (Histogram.quantile h 0.50)
               (Histogram.quantile h 0.95)
               (Histogram.quantile h 0.99)
               (histogram_buckets_json h)))
      (Histogram.all ())
  in
  let arr items =
    match items with
    | [] -> "[]"
    | _ -> "[" ^ nl ^ "  " ^ String.concat ("," ^ nl ^ "  ") items ^ nl ^ "]"
  in
  Printf.sprintf {|{%s"spans": %s,%s"counters": %s,%s"histograms": %s%s}|}
    (nl ^ "  ") (arr spans_json) (nl ^ "  ") (arr counters_json) (nl ^ "  ")
    (arr histograms_json) nl

let reset () =
  let buf = Domain.DLS.get buf_key in
  buf.buf_spans <- [];
  buf.buf_depth <- 0;
  Mutex.protect merge_mutex (fun () -> merged := []);
  Counter.reset ();
  Histogram.reset ()
