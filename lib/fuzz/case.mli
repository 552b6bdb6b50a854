(** One fuzz case: a generated DTD, a covering training document and an
    in-class target query, all derived from [(seed, index)] through
    {!Xl_workload.Prng.split} — so a case is reproducible in isolation,
    whatever order or domain ran it.

    Generation re-rolls (boundedly) until the case passes the
    {e admission check}, which keeps the differential oracle sound and
    non-vacuous without consulting the learner:

    - a full drop walk exists: bindings for every variable node, nested
      conditions included, can be picked consistently (what the
      drag-and-drop phase will need);
    - every condition {e discriminates} on the training document — it
      strictly shrinks its node's extent and leaves it non-empty — so
      conditions are observable and a learner that drops one cannot
      pass by accident;
    - the target is {e identifiable} along the canonical drop walk: a
      nested absolute-source task must have an extent member outside
      every context node's subtree, forcing the learner to anchor at
      the root — otherwise relative learning is extent-equivalent on
      the training instance (the teacher cannot object) yet diverges on
      fresh documents, and the differential property would blame a
      correct learner;
    - the target's {e conditions} are identifiable: the strongest
      candidate conjunction the C-Learner could settle on (every
      enumerated candidate consistent with the intended extents of the
      training document, plus the explicit Condition-Box predicates)
      selects exactly the intended extents on the fresh documents too.
      Otherwise a coincidental twin condition — one the teacher can
      never object to, since it agrees with the target on the whole
      training instance — could diverge on a fresh document, again
      blaming a correct learner.

    If no admissible case appears within the attempt budget, the case
    degrades to a plain path query over the last generated DTD
    ([fallback = true]), which is admissible by the covering property. *)

type t = {
  seed : int;
  index : int;
  gen : Gen_dtd.t;
  training : Xl_xml.Frag.t;
  target : Xl_xqtree.Xqtree.t;
  fallback : bool;
}

val generate : seed:int -> index:int -> t

val admissible :
  ?fresh:Xl_xml.Frag.t list -> Xl_xml.Frag.t -> Xl_xqtree.Xqtree.t -> bool
(** The admission check above, exposed for the shrinker: reductions
    must keep the case admissible or the differential failure could
    become vacuous.  [fresh] (default [[]]) are the fresh documents the
    differential property will evaluate on; condition identifiability
    is vetted against exactly these. *)

val fresh_doc : t -> int -> Xl_xml.Frag.t
(** The [i]-th fresh document of the case's DTD — derived from
    [(seed, index, i)] only, so shrinking the training document never
    changes the fresh instances. *)

val store_of : t -> Xl_xml.Store.t
(** A fresh store over the training document. *)

val scenario : t -> Xl_core.Scenario.t
(** Package the case for {!Xl_core.Learn.run}: a fresh store,
    the generated DTD as rule R1's source schema, the target query as
    the simulated user's intention. *)

val to_string : t -> string
(** Replayable dump: seed and index, the DTD, the training document and
    the target listing. *)
