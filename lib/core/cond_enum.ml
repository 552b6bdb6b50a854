(** Candidate predicate enumeration — [cond(context(e), (ve, e))] of
    Section 7.2.

    Enumerates every predicate of the 1-learnability shapes (Rel1–Rel3)
    that holds between the example node bound to [ve] and the nodes in
    the context assignment, using the data graph's v-equality index.
    Join path lengths, relay distances and v-equality fan-out are
    bounded, implementing the paper's heuristics ("the values used for
    join conditions are limited, and we can limit the maximal length of
    join paths"). *)

open Xl_xml
open Xl_xqtree

(* avoid trivial equalities on values that are ubiquitous: empty strings
   and single digits join half the document to the other half *)
let interesting_value v =
  String.length v > 1 || (String.length v = 1 && (match v.[0] with '0' .. '9' -> false | _ -> true))

let contains (a : Node.t) (b : Node.t) : bool =
  match Data_graph.path_between a b with Some _ -> true | None -> false

(** Enumerate candidate predicates for [(ve, e)] under [context].

    - [relay_up] bounds how far above a v-equality neighbour a relay node
      may sit;
    - [max_fanout] skips v-equality classes larger than this (the
      value-is-limited heuristic);
    - [pool] fans the Rel3 relay scan out across domains: each e-value's
      enumeration only reads the frozen data graph, and the per-value
      candidate lists merge back in scan order, so the result (order
      included) is identical to the sequential scan. *)
let candidates ?(relay_up = 2) ?(max_fanout = 24) ?pool (dg : Data_graph.t)
    (context : Teacher.context) ~(ve : string) (e : Node.t) : Cond.t list =
  let out = ref [] in
  let push c = if not (List.exists (Cond.equal c) !out) then out := c :: !out in
  let e_values = Data_graph.reachable_values dg e in
  let consider_context (vc, cnode) =
    let c_values = Data_graph.reachable_values dg cnode in
    (* Rel1 / Rel2: direct value equality between values reachable from
       the two endpoints (relay nodes hanging off an endpoint are the
       path steps themselves, as in Figure 10). *)
    List.iter
      (fun (pe, value_e, _) ->
        if interesting_value value_e then
          List.iter
            (fun (pc, value_c, _) ->
              if String.equal value_e value_c then
                push (Cond.Join (Cond.ep ~path:pe ve, Cond.ep ~path:pc vc)))
            c_values)
      e_values;
    (* Rel3: a relay node w, selectable by a doc-rooted path, linking a
       value under e to a value under the context node:
         some $w in /r-path satisfies
           data($ve/pe) = data($w/q1) and data($w/q2) = data($vc/pc)
       The scan per e-value is pure (reachable_values was already cached
       for both endpoints above; everything else reads immutable node
       structure), so values fan out over the pool when one is given. *)
    let rel3_for (pe, value_e, (en : Node.t)) : Cond.t list =
      let local = ref [] in
      if interesting_value value_e then begin
        let neighbours = Data_graph.with_value dg value_e in
        if List.length neighbours <= max_fanout then
          List.iter
            (fun (x : Node.t) ->
              if not (Node.equal x en) then
                let relays =
                  (if Node.is_element x then [ x ] else [])
                  @ Data_graph.ancestors_within x relay_up
                in
                List.iter
                  (fun (r : Node.t) ->
                    match Data_graph.path_between r x with
                    | None -> ()
                    | Some q1 ->
                      (* the relay must be a genuine third node *)
                      if
                        (not (contains r e)) && (not (contains e r))
                        && (not (contains r cnode))
                        && not (contains cnode r)
                      then
                        List.iter
                          (fun (pc, value_c, cn) ->
                            if interesting_value value_c then
                              let nbs = Data_graph.with_value dg value_c in
                              if List.length nbs <= max_fanout then
                                List.iter
                                  (fun (y : Node.t) ->
                                    if not (Node.equal y cn) then
                                      match Data_graph.path_between r y with
                                      | Some q2
                                        when not
                                               (q1 = q2
                                               && String.equal value_e value_c) ->
                                        local :=
                                          Cond.Relay
                                            {
                                              relay_var = "w";
                                              relay_doc = Data_graph.doc_uri_of dg r;
                                              relay_path = Data_graph.generalized_path r;
                                              links =
                                                [
                                                  (Cond.ep ~path:pe ve, q1);
                                                  (Cond.ep ~path:pc vc, q2);
                                                ];
                                              relay_conds = [];
                                            }
                                          :: !local
                                      | _ -> ())
                                  nbs)
                          c_values)
                  relays)
            neighbours
      end;
      List.rev !local
    in
    let per_value =
      match pool with
      | Some p -> Xl_exec.Pool.map p rel3_for e_values
      | None -> List.map rel3_for e_values
    in
    (* merge in scan order: first occurrences dedup exactly as the
       sequential push did *)
    List.iter (List.iter push) per_value
  in
  List.iter consider_context context;
  List.rev !out
