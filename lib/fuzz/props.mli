(** The differential properties checked per fuzz case.

    The core property runs the full learning pipeline against the
    simulated teacher and demands that the learned query is
    extent-equivalent to the target on the training document {e and} on
    [fresh] freshly generated documents of the same DTD (sound because
    training documents are covering — DESIGN.md §5f).  Secondary
    properties: {!Xl_xquery.Eval} vs {!Ref_eval} parity, prepared/unprepared
    store parity, and R1 reduction soundness: R1 may only reject a word
    that is outside the target path language {e or} outside the source
    schema's path language (rejecting schema-impossible words is R1's
    whole point) — the schema side is recomputed from first principles
    over the recursion-free DTD.  R2 answers are assumptions the
    pipeline may revise by restarting, so only R1 is asserted. *)

type bug =
  | Drop_learned_cond
      (** discard one learned condition after learning — simulates a
          C-Learner that silently loses a relationship *)
  | Widen_learned_path
      (** replace one learned doc-rooted path by [//last-tag] —
          simulates an over-general P-Learner *)

type failure =
  | Invalid_document of string  (** generator produced an invalid doc *)
  | Learning_raised of string  (** the pipeline raised *)
  | R1_unsound of string  (** R1 rejected a word of the target language *)
  | Training_mismatch  (** learned ≠ target on the training document *)
  | Fresh_mismatch of int  (** learned ≠ target on fresh document #i *)
  | Parity_mismatch  (** {!Xl_xquery.Eval} and {!Ref_eval} differ *)
  | Unprepared_store_mismatch  (** prepared vs lazy store differ *)

val failure_to_string : failure -> string

val constructor_name : failure -> string
(** The bare constructor, payloads dropped — the shrinker only accepts
    a reduction when this is preserved. *)

val eval_to_string : Xl_xqtree.Xqtree.t -> Xl_xml.Store.t -> string
(** Evaluate and serialize, one item per line — node-identity free, so
    comparisons are stable across domains and runs. *)

val ref_eval_to_string : Xl_xqtree.Xqtree.t -> Xl_xml.Store.t -> string
(** {!eval_to_string} through {!Ref_eval}. *)

val check : ?bug:bug -> ?fresh:int -> Case.t -> failure option
(** Run every property on a case ([fresh] defaults to 3); [None] means
    the case passed.  [bug] injects a post-learning mutation that a
    correct harness must catch. *)
