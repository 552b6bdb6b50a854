(** The learner as a resumable state machine.

    The paper's workflow is interactive: the mapping query grows out of a
    GUI session in which the *user* answers every query.  This module
    inverts the synchronous driver of {!Learn} accordingly: the whole
    LEARN-X1*+E {!Engine} (drop phase, P-/C-Learner, explicit boxes,
    rebuild, verification and the repair sweep) runs as a step function
    over an answer stream.  {!start} runs the engine up to its first
    teacher question and suspends; {!step} feeds one {!answer} and
    returns either the next {!question} or the finished {!Learn.result}.
    The driver — simulated oracle, stdin teacher, fuzz harness, the
    session server of [lib/server] — lives entirely outside the machine;
    the snapshot bytes and the (URI, Dewey) node references are
    {!Machine_codec}'s.

    {b State model.}  A machine value [t] is immutable from the driver's
    point of view: stepping returns a new value and never invalidates the
    old one.  Internally the hot path holds the engine's suspended
    continuation (an OCaml effect handler captures it at each question),
    but that continuation is only a cache.  The canonical state is the
    transcript of answers given so far plus the starting configuration:
    the engine is deterministic given the scenario's frozen store, so any
    machine value — including one whose continuation was consumed by a
    different lineage, or one decoded by {!restore} in a fresh process —
    can be rebuilt by replaying its transcript.  Repair-sweep progress is
    ordinary engine state and therefore inside the transcript like
    everything else; {!phase} reports where the engine currently is.

    Observation tables, extent/R1 caches and the C-Learner candidate
    frontier are {e derived} state: they are functions of (config,
    scenario, transcript) and are deliberately not serialized —
    {!snapshot} stores the transcript, {!restore} replays it. *)

open Xl_xml

(** One question from the learner.  The five constructors mirror the
    five {!Teacher.t} calls; a batched membership question carries a
    whole observation-table fill, so the oracle fan-out for it happens
    inside a single step. *)
type question =
  | Membership of {
      label : string;
      context : Teacher.context;
      rel_path : string list;
    }
  | Membership_batch of {
      label : string;
      context : Teacher.context;
      rel_paths : string list list;
    }
  | Equivalence of {
      label : string;
      context : Teacher.context;
      extent : Node.t list;
    }
  | Condition_box of {
      label : string;
      context : Teacher.context;
      negative_example : Node.t option;
    }
  | Order_box of { label : string }

type answer = Machine_codec.answer =
  | Bool of bool  (** answers [Membership] *)
  | Bools of bool list  (** answers [Membership_batch], one per path *)
  | Eq of Teacher.eq_answer  (** answers [Equivalence] *)
  | Cb of Teacher.cb_answer option  (** answers [Condition_box] *)
  | Order of (Xl_xquery.Simple_path.t * bool) list  (** answers [Order_box] *)

(** Where the engine is suspended — reported by {!phase} and recorded in
    snapshots.  [Repairing pass] is the post-verification repair sweep
    (pass 0, 1 or 2): its progress is part of the machine state, so a
    session suspended mid-repair resumes inside the same sweep. *)
type phase = Engine.phase =
  | Dropping  (** simulating the drag-and-drop phase *)
  | Learning of string  (** per-task learning, at this task label *)
  | Verifying  (** end-to-end verification of the rebuilt query *)
  | Repairing of int  (** repair sweep, at this refinement pass *)
  | Finished

type outcome = [ `Ask of question | `Done of Learn_types.result ]

type t
(** A suspended (or finished) learner.  Values are persistent: [step m]
    does not invalidate [m]. *)

exception Corrupt of string
(** A snapshot failed validation — framing, version, digest, structure,
    or replay divergence (the transcript does not match the questions
    the engine actually asks, e.g. a snapshot restored against a
    different store).  Corruption is always this exception, never a
    silently wrong query. *)

val start :
  ?config:Learn_types.config -> ?prior:t ->
  ?on_auto:
    (label:string -> rule:[ `R1 | `R2 ] -> path:string list -> answer:bool ->
     unit) ->
  Scenario.t -> t
(** Run the engine up to its first question (or to completion, for a
    scenario needing no genuine teacher answer).  Raises
    {!Learn_types.Learning_failed} like the synchronous driver.

    [prior] is an earlier run of the same scenario (Section 11 reuse):
    every genuine membership answer in its transcript — and in those of
    its own priors — seeds the P-Learner of the drop box it was asked
    for, so re-learning the drop boxes asks none of them again (each
    reused answer counts in [Stats.auto_known]).  Only answers cross; the
    new machine's own transcript starts empty.  Raises
    [Invalid_argument] if [prior] is of a different scenario (by
    name). *)

val outcome : t -> outcome
val phase : t -> phase

val steps : t -> int
(** Questions answered so far on this machine's lineage. *)

val scenario : t -> Scenario.t
val config : t -> Learn_types.config

(** One answered question.  [seq] and [ts_ns] stamp when it was answered
    ({!Xl_obs.Obs.next_seqs}, {!Xl_obs.Obs.now_ns}): [seq] is the first of
    one sequence number per word of a [Membership_batch] (one otherwise),
    so {!Dialog} lines interleave with telemetry spans.  A restored
    machine's replayed exchanges are stamped at replay time.  Stamps are
    not serialized. *)
type exchange = { question : question; answer : answer; seq : int; ts_ns : int }

val transcript : t -> exchange list
(** Chronological, including the exchanges a {!restore} replayed.
    Questions are kept only for the driver's benefit ({!Dialog}, replay
    tests); the serialized state stores a digest of each question plus
    the full answer. *)

val step : t -> answer -> outcome * t
(** Feed the answer to the pending question.  Raises [Invalid_argument]
    if the machine is already [`Done] or the answer's shape does not
    match the question (a [Bools] of the wrong length, an [Eq] for a
    membership question, ...) — shape errors are rejected before the
    engine resumes, so a bad answer never corrupts the machine.

    Stepping an old value whose continuation was consumed by a newer
    step of the same lineage transparently rebuilds the engine by
    replay (fresh oracle, transcript re-fed) — correct but linear in
    the transcript; drivers on the hot path should step the newest
    value. *)

val abort : t -> unit
(** Discard the suspended continuation (if this value holds the live
    one), unwinding the engine's stack so telemetry spans opened inside
    it are closed.  The value itself stays usable — a later [step]
    rebuilds by replay.  Call it before abandoning a machine mid-run in
    a traced process (the snapshot-then-exit CLI path). *)

val snapshot : t -> string
(** Serialize the machine's canonical state: magic ["XLMACHIN"],
    version, the starting configuration, the scenario name, the phase
    and the answered transcript (question digests + full answers), with
    a trailing MD5 digest.  Counterexample nodes are stored as
    (document URI, Dewey code) pairs, so the snapshot is valid against
    any process holding the same frozen store.  The pool is not part of
    the serialized configuration: parallelism is an execution resource,
    not state. *)

val restore :
  ?pool:Xl_exec.Pool.t -> ?prior:t ->
  ?on_auto:
    (label:string -> rule:[ `R1 | `R2 ] -> path:string list -> answer:bool ->
     unit) ->
  scenario:Scenario.t -> string -> t
(** Decode a {!snapshot} and rebuild the live machine by replaying its
    transcript against [scenario] (which must be the same scenario, on
    an identical store — the name is checked, divergence is caught by
    the per-question digests).  The restored machine is suspended at
    exactly the step the snapshot was taken at; finishing it yields the
    same query and the same interaction counts as the uninterrupted
    run.  A machine started with [~prior] is restored with the same
    [~prior] (the snapshot does not carry it).  Raises {!Corrupt} on any
    validation failure. *)

val oracle_teacher : t -> Teacher.t
(** The machine's internal simulated teacher (built by {!Oracle.create}
    over the same evaluation context the engine uses).  Drivers that
    want the pre-refactor behaviour — oracle answers, shared extent
    memoization — answer questions with this teacher. *)

val answer_with : Teacher.t -> question -> answer
(** Compute one answer by asking a teacher the matching call. *)

val drive : teacher:Teacher.t -> t -> Learn_types.result * t
(** Loop [step]/[answer_with] to completion — the synchronous driver as
    a three-line client of the machine.  {!Learn.run} is this.  Returns
    the finished machine too, whose transcript is the whole dialog. *)
