(** The LEARN-X1*+E engine (Sections 5–7 and 9): simulate the
    drag-and-drop phase, learn every task with the P-Learner and the
    C-Learner (raising Condition and Order Boxes as needed), rebuild the
    learned XQ-Tree, verify it end to end, and repair coincidental
    conditions with a sweep of further equivalence queries.

    The engine is a plain synchronous computation over an ordinary
    {!Teacher.t}.  {!Machine} runs it under a teacher whose every call
    suspends, which makes the session resumable; the engine itself does
    not know. *)

(** Where the engine is.  [Repairing pass] is the post-verification
    repair sweep (pass 0, 1 or 2).  The engine never reports [Finished]
    itself: that is the state after {!run} returns. *)
type phase =
  | Dropping  (** simulating the drag-and-drop phase *)
  | Learning of string  (** per-task learning, at this task label *)
  | Verifying  (** end-to-end verification of the rebuilt query *)
  | Repairing of int  (** repair sweep, at this refinement pass *)
  | Finished

val run :
  config:Learn_types.config ->
  teacher:Teacher.t ->
  known:(string * (string list * bool)) list ->
  on_auto:
    (label:string -> rule:[ `R1 | `R2 ] -> path:string list -> answer:bool ->
     unit)
    option ->
  on_phase:(phase -> unit) ->
  on_oracle:(Teacher.t -> unit) ->
  Scenario.t ->
  Learn_types.result
(** One whole learning session.  [known] holds Section 11's reused
    membership answers, (task label, (relative path, answer)), which seed
    each task's P-Learner; [on_auto] sees every membership question the
    P-Learner answers itself.  [on_phase] is called on entering each
    phase, [on_oracle] once with the simulated teacher built over the
    engine's own evaluation context, before the first teacher call.
    Raises {!Learn_types.Learning_failed}. *)
