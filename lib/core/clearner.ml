(** C-Learner (Section 7.2): learns the strongest conjunction of
    candidate predicates consistent with all positive examples.

    This is the monotone k-term algorithm of Figure 13 with predicates as
    variables: the first hypothesis is the full candidate set
    [cond(context(e), (ve, e))]; every positive (counter)example removes
    the candidates it violates — one intersection can delete many
    predicates at once.  Equivalence queries are shared with the outer
    learning loop, so this module only maintains the hypothesis.

    A collapse pair contributes two endpoints — the dropped node bound to
    the child variable and its split ancestor bound to the parent
    variable — so candidates are enumerated for every endpoint (the
    paper's q1 conditions relate the *item* variable [$i] to [$c] even
    though the drop landed in the iname box). *)

open Xl_xqtree

type t = {
  mutable hypothesis : Cond.t list;  (** ĉ — interpreted as a conjunction *)
  mutable initial_size : int;
  mutable refinements : int;  (** positive examples that shrank ĉ *)
}

(* telemetry: size of ĉ₀, the term-search starting point *)
let h_candidates = Xl_obs.Obs.Histogram.make "clearner_candidates"

(** Initialize from the dropped example: ĉ₀ = all candidate predicates
    holding in the assignment a₀ = context(e) ∪ bindings(e).
    [endpoints] are the variable/node pairs of the dropped example. *)
let create ?pool (dg : Data_graph.t) (context : Teacher.context)
    ~(endpoints : (string * Xl_xml.Node.t) list) : t =
  let hypothesis =
    Xl_obs.Obs.span ~name:"clearner.candidates" (fun () ->
        List.concat_map
          (fun (ve, e) -> Cond_enum.candidates ?pool dg context ~ve e)
          endpoints)
  in
  (* dedupe across endpoints *)
  let hypothesis =
    List.fold_left
      (fun acc c -> if List.exists (Cond.equal c) acc then acc else acc @ [ c ])
      [] hypothesis
  in
  Xl_obs.Obs.Histogram.observe h_candidates (List.length hypothesis);
  { hypothesis; initial_size = List.length hypothesis; refinements = 0 }

let hypothesis t = t.hypothesis

(** A new positive example: keep only the predicates it satisfies,
    judged through the attempt's verdict memo. *)
let observe_positive (t : t) (verdicts : Extent.verdicts) (node : Xl_xml.Node.t) : bool =
  let before = List.length t.hypothesis in
  t.hypothesis <- List.filter (fun c -> Extent.holds verdicts c node) t.hypothesis;
  let changed = List.length t.hypothesis <> before in
  if changed then t.refinements <- t.refinements + 1;
  changed

(* prefer compact output: drop Relay predicates that are implied by a
   retained Join on the same endpoints *)
let minimized (t : t) : Cond.t list =
  let joins =
    List.filter_map
      (function Cond.Join (a, b) -> Some (a, b) | _ -> None)
      t.hypothesis
  in
  List.filter
    (fun c ->
      match c with
      | Cond.Relay r ->
        not
          (List.exists
             (fun (a, b) ->
               List.exists (fun (e, _) -> e = a) r.links
               && List.exists (fun (e, _) -> e = b) r.links)
             joins)
      | _ -> true)
    t.hypothesis
