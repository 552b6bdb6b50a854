(** Candidate predicate enumeration — [cond(context(e), (ve, e))]
    (Section 7.2).

    Every predicate of the 1-learnability shapes (Rel1–Rel3) that holds
    between the example node and the context assignment, found through
    the data graph's v-equality index.  Join path lengths, relay
    distances and v-equality fan-out are bounded — the paper's "values
    used for join conditions are limited / limit the maximal length of
    join paths" heuristics. *)

open Xl_xml
open Xl_xqtree

val candidates :
  ?relay_up:int -> ?max_fanout:int -> ?pool:Xl_exec.Pool.t -> Data_graph.t ->
  Teacher.context -> ve:string -> Node.t -> Cond.t list
(** [pool] fans the Rel3 relay scan out across domains; the candidate
    list (order included) is identical with and without it. *)
