(** Domain-safe telemetry: spans, a metrics registry, and exporters.

    The learning pipeline is measured in three currencies — queries,
    milliseconds, and nodes touched — and this module collects all three
    without perturbing the computation it observes:

    - {b Spans} ({!span}) record wall-clock timing of named phases into
      per-domain buffers (a [Domain.DLS] list, no lock on the hot path).
      Buffers merge into a global list under a mutex when a pool worker
      joins ({!flush_domain}, called by [Xl_exec.Pool]), when an
      exporter runs, or — the backstop — when the recording domain dies
      (a [Domain.at_exit] hook registered on first use, so spans on a
      domain that never flushes are no longer lost).
    - {b Metrics} ({!Counter}, {!Histogram}) are registered once by name
      and updated with atomics, so concurrent domains never lose an
      increment.  Histograms use log-linear buckets (16 linear
      sub-buckets per power-of-two octave, ≤ 6.25% relative width) and
      answer interpolated quantiles.
    - {b Exporters} render everything as JSONL trace events (one JSON
      object per line, ordered by the global sequence counter), a
      human-readable summary table with per-span-name p50/p95/p99, or
      the [telemetry] JSON object (served by the session server's
      [/metrics]).

    The analysis layer builds on these primitives: [Perfetto] renders
    the merged spans as a Chrome trace-event file, [Profiler] samples
    every domain's active-span stack into folded (flamegraph) output,
    and [Trace_analysis] answers where-does-the-time-go questions over
    a written JSONL trace.

    When telemetry is disabled (the default) every instrumentation point
    reduces to a single flag check: {!span} tail-calls its thunk without
    allocating, and counter/histogram updates are dropped.  Instrumented
    code therefore behaves identically — and costs nearly nothing — with
    tracing on or off. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enable/disable collection.  Call before spawning domains: workers
    read the flag without synchronization (the spawn publishes it). *)

val now_ns : unit -> int
(** Nanoseconds from [clock_gettime(CLOCK_MONOTONIC)] (C stub): never
    steps backwards, so span durations cannot go negative across NTP
    adjustments.  Falls back to [Unix.gettimeofday] (microsecond
    resolution, wall base) where the monotonic clock is unavailable —
    see {!monotonic}.  The base is arbitrary; only differences and
    ordering are meaningful. *)

val monotonic : bool
(** Whether {!now_ns} is backed by the monotonic C stub (otherwise the
    pure-OCaml gettimeofday fallback is in effect). *)

val next_seqs : int -> int
(** [next_seqs n] reserves [n] consecutive numbers of the global event
    sequence in one atomic step and returns the first.  Spans take one
    each; [Xl_core.Machine.step] stamps every answer, one number per
    line of a batched question's dialog, so teacher-dialog events
    interleave correctly with spans in a merged JSONL trace. *)

val quantile_of : int list -> float -> int
(** [quantile_of samples q] is the exact [q]-quantile of [samples]
    (linear interpolation between order statistics, the [q * (n-1)]
    convention); [0] on the empty list.  [q] is clamped to [0, 1]. *)

val span : name:string -> ?detail:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f] and, when enabled, records its wall-clock
    duration into this domain's buffer.  [detail] carries per-instance
    attribution (a scenario name, a task label) without splitting the
    aggregate: totals group by [name] only.  Nesting is tracked with a
    per-domain depth counter; an exception is recorded and re-raised.
    While a [Profiler] sampler is attached, entry and exit also push and
    pop [name] on this domain's active-span stack (one extra atomic
    load; nothing at all when telemetry is off). *)

val record_completed :
  name:string -> ?detail:string -> ?session:string -> t0_ns:int -> unit -> unit
(** Append an already-finished span record ([t0_ns] from {!now_ns},
    duration measured now) to this domain's buffer without touching the
    nesting depth or the profiler's active-span stack.  For work whose
    dynamic extent is not a well-bracketed call — e.g. one step of the
    resumable learner, which enters and leaves the engine's suspended
    span stack: wrapping it in {!span} would pop a frame the step does
    not own.  The record carries the current depth and a fresh sequence
    number; a no-op when telemetry is disabled.  [session] overrides the
    ambient tag of {!set_session} for this one record. *)

(* ---- session dimension ---- *)

val set_session : string option -> unit
(** Set this domain's ambient session tag: every span recorded here
    until the next call carries it (the ["session"] field of the JSONL
    export), so interleaved sessions on shared pool workers can be told
    apart in [obs-report --session] and the Perfetto export.  The server
    brackets each scheduled task with set/clear; prefer {!with_session}
    where the extent is a well-nested call. *)

val current_session : unit -> string option

val with_session : string option -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient session tag set, restoring the
    previous tag afterwards (also on exception). *)

(** Named monotonic counters.  [make] is idempotent per name. *)
module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter [name].  Registration takes a
      lock — call it once at module initialization, not on hot paths. *)

  val add : t -> int -> unit
  (** Atomic add, dropped when telemetry is disabled. *)

  val incr : t -> unit
  val value : t -> int
  val name : t -> string

  val find : string -> t option
  (** Look up a registered counter without creating it — for tests and
      exporters that inspect counters owned by other modules. *)

  val all : unit -> t list
  (** Every registered counter, sorted by name. *)
end

(** Named log-linear histograms: each power-of-two octave splits into 16
    equal linear sub-buckets, so every bucket's relative width is at
    most 6.25%.  Values [1..15] get an exact bucket each; bucket 0
    absorbs [v <= 0]. *)
module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> int -> unit
  (** Atomic bucket increment, dropped when telemetry is disabled. *)

  val bucket_of : int -> int
  (** The bucket index a value lands in. *)

  val bucket_lo : int -> int
  (** Inclusive lower bound of bucket [i] ([0] for bucket 0). *)

  val quantile : t -> float -> int
  (** [quantile h q] is the interpolated [q]-quantile of the recorded
      distribution (midpoint placement inside the landing bucket, so an
      exact small-value bucket answers its exact value; larger values
      carry the bucket's ≤ 6.25% relative error).  [0] when the
      histogram is empty; [q] is clamped to [0, 1].  Monotone in [q]. *)

  val count : t -> int
  val sum : t -> int
  val buckets : t -> int array
  val name : t -> string
end

(** One recorded span, as stored in the buffers. *)
type span_rec = {
  sp_name : string;
  sp_detail : string option;
  sp_session : string option;  (** ambient session tag at record time *)
  sp_t0_ns : int;
  sp_dur_ns : int;
  sp_seq : int;
  sp_depth : int;  (** span-nesting depth within its domain *)
  sp_domain : int;
}

(** Per-name span aggregate with exact latency quantiles (computed from
    the raw recorded durations, not the bucketed histograms). *)
type span_total = {
  st_name : string;
  st_count : int;
  st_total_ns : int;
  st_max_ns : int;
  st_p50_ns : int;
  st_p95_ns : int;
  st_p99_ns : int;
}

val flush_domain : unit -> unit
(** Merge this domain's span buffer into the global list.  Called by
    [Xl_exec.Pool] when a worker finishes; also runs automatically via
    [Domain.at_exit] when any recording domain dies. *)

val domain_buffer_empty : int -> bool
(** Whether the span buffer of domain [id] is empty (or the domain never
    recorded / already unregistered at exit).  [Xl_exec.Pool] asserts
    this for each worker after the join: a non-empty buffer there would
    mean spans about to be lost. *)

val spans : unit -> span_rec list
(** All merged spans (flushes the calling domain first), ascending
    sequence order. *)

val span_totals : unit -> span_total list
(** Aggregates grouped by span name, sorted by name. *)

(* ---- profiler hooks (owned by [Profiler]) ---- *)

val set_profiler_hooks : bool -> unit
(** Attach/detach the active-span stack maintenance in {!span}.  Set by
    [Profiler.start]/[Profiler.stop]; not meant for direct use. *)

val profiler_hooks_on : unit -> bool

val active_stacks : unit -> (int * string list) list
(** Snapshot of every live domain's active-span stack, outermost first,
    domains with empty stacks omitted.  Racy by design: the sampler
    reads concurrently with span entry/exit and may observe a frame one
    push/pop out of date — acceptable for statistical profiles. *)

(* ---- JSON / JSONL ---- *)

val json_escape : string -> string
val json_string : string -> string
(** [json_string s] is [s] escaped and quoted. *)

val event_json :
  seq:int -> ts_ns:int -> kind:string -> name:string ->
  ?detail:string -> fields:(string * string) list -> unit -> string
(** One trace event as a single-line JSON object:
    [{"seq":…,"ts_ns":…,"kind":…,"name":…,"detail":…,…fields}].
    [fields] values are pre-rendered JSON.  This is the one encoding
    shared by span export and [Xl_core.Dialog]. *)

val span_events : unit -> (int * string) list
(** Every merged span as [(seq, json line)], ascending sequence order. *)

val snapshot_events : unit -> string list
(** Counter and histogram snapshot lines (kind ["counter"] /
    ["histogram"], the latter carrying interpolated p50/p95/p99),
    stamped with fresh sequence numbers. *)

val write_jsonl : ?extra:(int * string) list -> string -> unit
(** Write the JSONL trace to a file: merged spans and [extra] events
    (e.g. [Xl_core.Dialog.to_jsonl_events]) interleaved by sequence number,
    followed by the metrics snapshot. *)

val summary_table : unit -> string
(** Human-readable summary: span totals (sorted by total time, with
    p50/p95/p99 latency columns), counters, and histograms. *)

val telemetry_json : ?indent:string -> unit -> string
(** The [telemetry] JSON object (the session server's [/metrics]): one with
    [spans] (each carrying [p50_ns]/[p95_ns]/[p99_ns]), [counters] and
    [histograms] (each carrying interpolated [p50]/[p95]/[p99]) arrays,
    sorted by name.  [indent] prefixes every line after the first. *)

val reset : unit -> unit
(** Drop all recorded spans (global and this domain's buffer) and zero
    every registered counter and histogram.  Registrations survive. *)
