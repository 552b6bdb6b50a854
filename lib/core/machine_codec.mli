(** The [XLMACHIN] codec: the one module that reads or writes machine
    snapshot bytes and (document URI, Dewey code) node references.

    A snapshot is the starting configuration, the scenario name, the
    phase and the answered transcript, as entries of a question digest
    and a full answer, under a trailing MD5 digest — the framing
    conventions of {!Xl_xml.Snapshot}.  {!Machine.snapshot} and
    {!Machine.restore} are thin calls into {!encode} and {!decode}; the
    session server ships nodes with {!node_ref} and {!node_of_ref}. *)

open Xl_xml

type answer =
  | Bool of bool
  | Bools of bool list
  | Eq of Teacher.eq_answer
  | Cb of Teacher.cb_answer option
  | Order of (Xl_xquery.Simple_path.t * bool) list
(** Re-exported as {!Machine.answer}, which documents it. *)

type entry = int * answer
(** One answered question: its digest and the answer. *)

exception Corrupt of string
(** Re-exported as {!Machine.Corrupt}. *)

val node_ref : Store.t -> Node.t -> string * int list
(** The process-stable identity of a node: its document's URI plus its
    Dewey code.  Raises [Invalid_argument] on a node from outside the
    store.  The session server uses the same pairs on its JSON wire, so
    a node that round-trips a snapshot round-trips the wire too. *)

val node_of_ref :
  Store.t -> uri:string -> dewey:int list -> (Node.t, string) Stdlib.result
(** Resolve a {!node_ref} pair: find the document with [Store.find],
    then walk the Dewey code (1-based, attributes before children).
    [Error] names what failed — an unknown document, a step below 1 or
    a step out of range; it never raises, because the inputs may come
    from untrusted clients. *)

val phase_name : Engine.phase -> string
(** ["dropping"], ["learning:LABEL"], ["verifying"], ["repairing:PASS"]
    or ["finished"]: the server's ["phase"] field and the phase names of
    {!Corrupt} messages. *)

(** {1 Records} *)

val add_entry : Buffer.t -> Store.t -> entry -> unit
(** Append one entry: the digest as a u32, then a tagged answer whose
    nodes are {!node_ref} pairs. *)

val read_entry : Store.t -> string -> pos:int -> entry * int
(** Decode the entry at [pos], returning it and the position after it.
    Raises {!Corrupt} on truncation, a bad tag or an unresolvable node. *)

(** {1 Snapshots} *)

val encode :
  Learn_types.config -> Scenario.t -> Engine.phase -> entry list -> string
(** The snapshot of a machine with this configuration (pool excluded),
    scenario, phase and entries, oldest first. *)

val decode :
  ?pool:Xl_exec.Pool.t -> scenario:Scenario.t -> string ->
  Learn_types.config * Engine.phase * entry list
(** Validate a snapshot — length, magic, version, digest, scenario name,
    then structure — and return its configuration (with [pool]), phase
    and entries.  Raises {!Corrupt} on any failure. *)
