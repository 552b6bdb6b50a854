(** Interaction accounting — the measurements of Figure 16.

    One record accumulates over a whole learning session.  For each
    auto-answered membership query the applicability of both reduction
    rules is tested independently, so
    [reduced_total = reduced_r1 + reduced_r2 - reduced_both], exactly the
    paper's "Reduced(R1,R2,Both)". *)

type t = {
  mutable dd : int;  (** dropped example nodes (D&D) *)
  mutable dd_terminals : int;  (** #t of drops incl. Drop-Box functions *)
  mutable mq : int;  (** membership queries answered by the user *)
  mutable eq : int;  (** equivalence queries *)
  mutable ce : int;  (** counterexamples given by the user *)
  mutable cb : int;  (** Condition Boxes *)
  mutable cb_terminals : int;
  mutable ob : int;  (** OrderBy Boxes *)
  mutable reduced_r1 : int;
  mutable reduced_r2 : int;
  mutable reduced_both : int;
  mutable auto_known : int;
      (** membership queries answered by a prior run's genuine answer
          (Section 11 reuse, [Machine.start ~prior]), each counted once *)
  mutable restarts : int;  (** P-Learner backtracks *)
}

val create : unit -> t
val reduced_total : t -> int
val user_interactions : t -> int
val add : into:t -> t -> unit

val to_row : t -> string
(** Figure 16 row format:
    [D&D(#t)  MQ  CE  CB(#t)  OB  Reduced(R1,R2,Both)]. *)

val to_json : t -> string
(** The record as a single-line JSON object (all counters plus the
    derived [reduced_total] and [user_interactions]). *)
