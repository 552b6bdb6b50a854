(* The LEARN-X1*+E engine (see engine.mli): the drop phase, per-task
   P-/C-Learner learning with its explicit boxes, the rebuild of the
   learned XQ-Tree, end-to-end verification and the repair sweep.  It
   asks an ordinary {!Teacher.t} and reports where it is through
   [on_phase]; {!Machine} turns it into a resumable state machine. *)

open Xl_xml
open Xl_xqtree
open Learn_types

type phase = Dropping | Learning of string | Verifying | Repairing of int | Finished

(* choose a dropped example for every task, depth-first with backtracking
   so no descendant faces an empty extent.  Returns variable bindings per
   XQ-Tree label (a collapse pair yields bindings for both halves). *)
let choose_drops (o : Oracle.t) (scenario : Scenario.t) :
    (string * (string * Node.t)) list =
  let tree = scenario.Scenario.target in
  (* the first drop of the box's extent that [f] accepts, the scenario's
     preferred drop tried first *)
  let first_drop label context f =
    let preferred = Scenario.pick scenario label in
    let first, rest =
      List.partition
        (fun (i, _) -> i = preferred)
        (List.mapi (fun i e -> (i, e)) (Oracle.target_extent o label context))
    in
    List.find_map (fun (_, e) -> f e) (first @ rest)
  in
  let rec assign_children children context =
    List.fold_left
      (fun acc c ->
        match acc with
        | None -> None
        | Some drops -> (
          match assign c context with
          | None -> None
          | Some more -> Some (drops @ more)))
      (Some []) children
  and assign (n : Xqtree.node) (context : Teacher.context) :
      (string * (string * Node.t)) list option =
    match n.Xqtree.var with
    | None -> assign_children n.Xqtree.children context
    | Some v -> (
      match Xqtree.collapse_child n with
      | Some child when Xqtree.collapse_parent tree child.Xqtree.label <> None ->
        (* collapse pair: one drop in the child's box binds both halves *)
        let task = { Task.node = child; parent = Some n } in
        first_drop child.Xqtree.label context (fun e ->
            let bindings = Task.bindings_of task e in
            let rest_children =
              List.filter
                (fun c -> not (String.equal c.Xqtree.label child.Xqtree.label))
                n.Xqtree.children
              @ child.Xqtree.children
            in
            Option.map
              (fun kid_drops ->
                (n.Xqtree.label, (v, List.assoc v bindings))
                :: (child.Xqtree.label, (Option.get child.Xqtree.var, e))
                :: kid_drops)
              (assign_children rest_children (context @ bindings)))
      | _ ->
        first_drop n.Xqtree.label context (fun e ->
            Option.map
              (fun kid_drops -> (n.Xqtree.label, (v, e)) :: kid_drops)
              (assign_children n.Xqtree.children (context @ [ (v, e) ]))))
  in
  match assign tree [] with
  | Some drops -> drops
  | None -> raise (Learning_failed "no consistent drag-and-drop assignment exists")

(* the context of a task: bindings of the ancestors of the task's anchor
   (the collapse parent's own binding is part of the task, not context) *)
let context_of (tree : Xqtree.t) (bindings : (string * (string * Node.t)) list)
    (task : Task.t) : Teacher.context =
  List.filter_map
    (fun (a : Xqtree.node) ->
      match a.Xqtree.var with
      | Some _ -> List.assoc_opt a.Xqtree.label bindings
      | None -> None)
    (Xqtree.ancestors tree (Task.anchor task).Xqtree.label)

exception Reanchor

(* A negative counterexample that neither the path language nor a spare
   condition can exclude: ask the user for the missing predicate in a
   Condition Box (Section 7.1), counted in CB.  [None] when the teacher
   cannot state one.  Both the per-task equivalence loop and the repair
   sweep raise their boxes here, so the two count them alike. *)
let condition_box ~(stats : Stats.t) ~(teacher : Teacher.t) ~label ~context
    (node : Node.t) : Cond.t option =
  match
    teacher.Teacher.condition_box ~label ~context ~negative_example:(Some node)
  with
  | Some { Teacher.cond; terminals; negative = _ } ->
    stats.Stats.cb <- stats.Stats.cb + 1;
    stats.Stats.cb_terminals <- stats.Stats.cb_terminals + terminals;
    Some cond
  | None -> None

let learn_task ~(config : config) ~(stats : Stats.t) ~(teacher : Teacher.t)
    ~(ctx : Xl_xquery.Eval.ctx) ~(dg : Data_graph.t)
    ~(schema_dfas : Xl_automata.Dfa.t list) ~(tree : Xqtree.t)
    ~(known : (string * (string list * bool)) list) ~on_auto
    ~(bindings : (string * (string * Node.t)) list) (task : Task.t) : node_result
    =
  let label = Task.label task in
  let context = context_of tree bindings task in
  let dropped = snd (List.assoc label bindings) in
  let doc_base = Node.root dropped in
  (* anchor at the deepest context node containing the dropped example *)
  let structural_anchor =
    List.fold_left
      (fun acc (_, cnode) ->
        match Extent.rel_path ~base:cnode dropped with
        | Some _ -> (
          match acc with
          | Some prev when Node.is_ancestor cnode prev -> acc
          | _ -> Some cnode)
        | None -> acc)
      None context
  in
  let attempt ~(base : Node.t) : node_result =
    let dropped_path =
      match Extent.rel_path ~base dropped with
      | Some p -> p
      | None -> raise (Learning_failed (label ^ ": dropped node outside its base"))
    in
    let alphabet = ctx.Xl_xquery.Eval.alphabet in
    let abs_prefix = Node.tag_path base in
    (* the schema path languages relativized to the base prefix, once per
       attempt: R1 and the presentation tightening both judge relative
       words from here.  A prefix outside the alphabet reaches no schema
       state. *)
    let r1_dfas =
      let k = Xl_automata.Alphabet.size alphabet in
      let prefix = Xl_automata.Alphabet.encode_opt alphabet abs_prefix in
      List.map
        (fun sdfa ->
          let sdfa = Xl_automata.Dfa.extend_alphabet sdfa ~alphabet_size:k in
          match prefix with
          | Some w -> Xl_automata.Dfa.with_start sdfa (Xl_automata.Dfa.run sdfa w)
          | None -> Xl_automata.Dfa.empty ~alphabet_size:k)
        schema_dfas
    in
    let ask s = teacher.Teacher.path_membership ~label ~context ~rel_path:s in
    let ask_batch ss =
      teacher.Teacher.path_membership_batch ~label ~context ~rel_paths:ss
    in
    let known =
      List.filter_map
        (fun (l, answer) -> if String.equal l label then Some answer else None)
        known
    in
    let pl =
      Plearner.create ~config:config.rules ~known
        ?on_auto:
          (Option.map
             (fun f ~rule ~path ~answer -> f ~label ~rule ~path ~answer)
             on_auto)
        ~ask_batch ~stats ~r1_dfas ~alphabet ~abs_prefix ~dropped_path ~ask ()
    in
    let cl =
      Clearner.create ?pool:config.pool dg context
        ~endpoints:(Task.bindings_of task dropped)
    in
    let fixed : Cond.t list ref = ref [] in
    let rounds = ref 0 in
    (* the context and the bindings are fixed for the attempt, so one
       verdict memo serves the equivalence loop, the C-Learner and the
       condition minimization *)
    let verdicts = Extent.verdicts ctx context ~bind:(Task.bindings_of task) in
    let equivalence (dfa : Xl_automata.Dfa.t) : int list option =
      let rec loop () =
        incr rounds;
        if !rounds > config.max_rounds then
          raise (Learning_failed (label ^ ": too many equivalence rounds"));
        let conds = Clearner.hypothesis cl @ !fixed in
        let extent =
          Extent.select_by_dfa ctx dfa base |> Extent.filter verdicts conds
        in
        stats.Stats.eq <- stats.Stats.eq + 1;
        match teacher.Teacher.equivalence ~label ~context ~extent with
        | Teacher.Equal -> None
        | Teacher.Counter { node; positive } -> (
          stats.Stats.ce <- stats.Stats.ce + 1;
          match Extent.rel_path ~base node with
          | None ->
            (* the intended extent escapes the structural anchor: the
               fragment is absolute after all — re-anchor at the root *)
            if positive && not (Node.equal base doc_base) then raise Reanchor
            else
              raise
                (Learning_failed (label ^ ": counterexample outside the document"))
          | Some s ->
            let word = Xl_automata.Alphabet.encode alphabet s in
            if positive then begin
              let path_ok = Xl_automata.Dfa.accepts dfa word in
              ignore (Clearner.observe_positive cl verdicts node);
              Plearner.note_positive pl s;
              if path_ok then loop () else Some word
            end
            else if Plearner.is_known_positive pl word then begin
              (* no path expression separates it: raise a Condition Box *)
              match condition_box ~stats ~teacher ~label ~context node with
              | Some cond ->
                fixed := !fixed @ [ cond ];
                loop ()
              | None ->
                raise
                  (Learning_failed
                     (label ^ ": counterexample needs a condition the teacher cannot state"))
            end
            else begin
              Plearner.note_negative pl s;
              Some word
            end)
      in
      loop ()
    in
    let dfa = Plearner.learn pl ~equivalence in
    let order = teacher.Teacher.order_box ~label in
    if order <> [] then stats.Stats.ob <- stats.Stats.ob + List.length order;
    (* the conjecture may over-generalize on paths the instance cannot
       exhibit; intersecting with the schema's path language (what R1
       already knows) recovers the tight path expression for output *)
    let presentable_dfa =
      (* tighten with the schema of this task's document: the relativized
         schema language that still intersects the learned language *)
      Xl_obs.Obs.span ~name:"task.tighten" @@ fun () ->
      let k = Xl_automata.Alphabet.size alphabet in
      let dfa' = Xl_automata.Dfa.extend_alphabet dfa ~alphabet_size:k in
      let tightened rel =
        let rel = Xl_automata.Dfa.extend_alphabet rel ~alphabet_size:k in
        let inter =
          Xl_automata.Dfa.minimize (Xl_automata.Dfa.intersection dfa' rel)
        in
        if Xl_automata.Dfa.is_empty inter then None else Some inter
      in
      Option.value ~default:dfa (List.find_map tightened r1_dfas)
    in
    (* greedy condition minimization: drop hypothesis predicates that do
       not change the extent (coincidental candidates that survived every
       positive example are usually implied by the real join) *)
    let final_conds =
      Xl_obs.Obs.span ~name:"task.min_conds" @@ fun () ->
      let hyp = Clearner.minimized cl in
      let candidates = Extent.select_by_dfa ctx dfa base in
      let extent_with conds =
        Extent.filter verdicts conds candidates |> List.map (fun (n : Node.t) -> n.Node.id)
      in
      let reference = extent_with (hyp @ !fixed) in
      let removal_order =
        (* XML joins overwhelmingly run through ID/IDREF attributes (the
           relay nodes of Figure 10 are attribute nodes); predicates whose
           links touch element text are far more often coincidental, so
           they are offered for removal first *)
        let attr_ep (e : Cond.endpoint) =
          match List.rev e.Cond.path with
          | Xl_xquery.Simple_path.Attr_step _ :: _ -> true
          | _ -> false
        in
        let attr_sp (p : Xl_xquery.Simple_path.t) =
          match List.rev p with
          | Xl_xquery.Simple_path.Attr_step _ :: _ -> true
          | _ -> false
        in
        let attr_based = function
          | Cond.Join (a, b) -> attr_ep a && attr_ep b
          | Cond.Relay r ->
            List.for_all (fun (e, q) -> attr_ep e && attr_sp q) r.Cond.links
          | _ -> false
        in
        let score c =
          match c with
          | Cond.Relay _ when not (attr_based c) -> 0
          | Cond.Join _ when not (attr_based c) -> 1
          | Cond.Relay _ -> 2
          | _ -> 3
        in
        List.stable_sort (fun a b -> compare (score a) (score b)) hyp
      in
      List.fold_left
        (fun kept c ->
          let trial = List.filter (fun c' -> not (Cond.equal c' c)) kept in
          if extent_with (trial @ !fixed) = reference then trial else kept)
        hyp removal_order
    in
    let composed = Path_of_dfa.path_expr ctx.Xl_xquery.Eval.alphabet presentable_dfa in
    let parent_path, own_path =
      match task.Task.parent with
      | None -> (None, composed)
      | Some _ -> (
        match Path_split.split_last composed with
        | Some (prefix, step) -> (Some prefix, step)
        | None -> (Some composed, Xl_xquery.Path_expr.Eps))
    in
    {
      task_label = label;
      learned_dfa = presentable_dfa;
      parent_path;
      own_path;
      learned_conds = final_conds @ !fixed;
      spare_conds =
        List.filter
          (fun c -> not (List.exists (Cond.equal c) final_conds))
          (Clearner.minimized cl);
      learned_order = order;
      anchored_at_root = Node.equal base doc_base;
    }
  in
  match structural_anchor with
  | Some anchor -> ( try attempt ~base:anchor with Reanchor -> attempt ~base:doc_base)
  | None -> attempt ~base:doc_base

(* -------- assembling the learned XQ-Tree ------------------------------- *)

let task_parent_of tree (n : Xqtree.node) =
  Xqtree.collapse_parent tree n.Xqtree.label

let rebuild (tree : Xqtree.t) (results : node_result list) : Xqtree.t =
  let find_task label =
    List.find_opt (fun r -> String.equal r.task_label label) results
  in
  (* a collapse parent takes the prefix path and the conditions whose
     variables are in scope there; the child keeps the last step *)
  let rec go (n : Xqtree.node) : Xqtree.node =
    let children = List.map go n.Xqtree.children in
    let n = { n with Xqtree.children } in
    match find_task n.Xqtree.label with
    | Some r ->
      let source =
        match n.Xqtree.source, r.anchored_at_root, task_parent_of tree n with
        | _, _, Some _ ->
          (* child half of a collapse pair: relative last step *)
          Some (Xqtree.Rel r.own_path)
        | Some (Xqtree.Abs (uri, _)), true, None ->
          Some (Xqtree.Abs (uri, r.own_path))
        | _, true, None -> Some (Xqtree.Abs (None, r.own_path))
        | _, false, None ->
          (* the anchoring decides, not the target's own source kind: a
             task learned relative to its structural anchor has a path
             meaningless from the document root *)
          Some (Xqtree.Rel r.own_path)
      in
      let conds, order_by =
        match task_parent_of tree n with
        | Some _ -> ([], [])  (* conditions and ordering live on the parent *)
        | None -> (r.learned_conds, r.learned_order)
      in
      { n with Xqtree.source; conds; order_by }
    | None -> (
      (* maybe the parent half of a collapse pair *)
      match Xqtree.collapse_child n with
      | Some child when n.Xqtree.var <> None -> (
        match find_task child.Xqtree.label with
        | Some r ->
          let parent_path =
            Option.value ~default:Xl_xquery.Path_expr.Eps r.parent_path
          in
          let source =
            match n.Xqtree.source, r.anchored_at_root with
            | Some (Xqtree.Abs (uri, _)), true -> Some (Xqtree.Abs (uri, parent_path))
            | _, true -> Some (Xqtree.Abs (None, parent_path))
            | _, false -> Some (Xqtree.Rel parent_path)
          in
          { n with Xqtree.source; conds = r.learned_conds; order_by = r.learned_order }
        | None -> n)
      | _ -> n)
  in
  go tree

(* -------- verification sweep ------------------------------------------- *)

(* The C-Learner keeps the strongest candidate conjunction consistent
   with the positives of the single drop context; a relationship that
   holds there only by coincidence survives and over-restricts the
   fragment in other contexts, which per-task equivalence queries never
   examined.  When end-to-end verification fails, sweep the other
   contexts with further equivalence queries and repair the conjunction:
   a positive counterexample discards every learned condition it
   violates (target conditions hold for every member of every intended
   extent, so only coincidental conjuncts can be dropped), and a
   negative counterexample restores a spare condition — one the drop
   context could not distinguish from redundant — that excludes it, or,
   when no spare does, raises a Condition Box ([condition_box]).  A
   task with no conditions at all is swept too: its drop context may
   simply not have needed the predicate another context does.
   Conditions discarded by a positive example are banned from
   restoration, so the repair terminates.

   All sweep progress (the pass number, the per-task cond/spare sets,
   the sweep's own equivalence dialog) is ordinary engine state between
   two teacher calls, like everything else; [on_phase] reports the pass. *)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let sweep_once ~(config : config) ~(stats : Stats.t) ~(teacher : Teacher.t)
    ~(ctx : Xl_xquery.Eval.ctx) (scenario : Scenario.t) (learned : Xqtree.t)
    (results : node_result list) : node_result list option =
  let lo, _ =
    (* the sweep's private oracle follows the run's own configuration —
       pool included, so a pooled run never falls back to sequential
       extent evaluation mid-repair *)
    Oracle.create ~strategy:config.strategy ?pool:config.pool
      { scenario with Scenario.target = learned }
  in
  let tasks = Task.tasks_of learned in
  let task_owning (a : Xqtree.node) : Task.t option =
    List.find_opt
      (fun (t : Task.t) ->
        String.equal (Task.label t) a.Xqtree.label
        ||
        match t.Task.parent with
        | Some p -> String.equal p.Xqtree.label a.Xqtree.label
        | None -> false)
      tasks
  in
  let max_contexts = 64 in
  (* all context assignments of a task's ancestor variables, per the
     learned tree's own semantics (the learner knows nothing else) *)
  let contexts_for (task : Task.t) : Teacher.context list =
    let rec extend acc bound = function
      | [] -> acc
      | (a : Xqtree.node) :: rest -> (
        match a.Xqtree.var with
        | Some v when not (List.mem v bound) -> (
          match task_owning a with
          | Some t ->
            let acc' =
              take max_contexts
                (List.concat_map
                   (fun c ->
                     List.map
                       (fun e -> c @ Task.bindings_of t e)
                       (Oracle.target_extent lo (Task.label t) c))
                   acc)
            in
            let bound' =
              Task.var t :: (Option.to_list (Task.parent_var t)) @ bound
            in
            extend acc' bound' rest
          | None -> extend acc bound rest)
        | _ -> extend acc bound rest)
    in
    extend [ [] ] [] (Xqtree.ancestors learned (Task.anchor task).Xqtree.label)
  in
  let store = scenario.Scenario.store in
  let changed = ref false in
  let sweep_task (r : node_result) : node_result =
    match
      List.find_opt
        (fun (t : Task.t) -> String.equal (Task.label t) r.task_label)
        tasks
    with
    | None -> r
    | Some task ->
      let source_path =
        match Task.composed_source task with
        | Some (Xqtree.Abs (_, p)) | Some (Xqtree.Rel p) -> Some p
        | None -> None
      in
      let conds = ref r.learned_conds in
      let spares = ref r.spare_conds in
      let give_up = ref false in
      (match source_path with
      | None -> ()
      | Some p ->
        List.iter
          (fun context ->
            let verdicts = Extent.verdicts ctx context ~bind:(Task.bindings_of task) in
            let extent_in () =
              match Task.base learned store task context with
              | None -> []
              | Some base -> Xl_xquery.Eval.eval_path ctx p base |> Extent.filter verdicts !conds
            in
            let holds node c = Extent.holds verdicts c node in
            let rec settle budget =
              if budget > 0 && not !give_up then begin
                stats.Stats.eq <- stats.Stats.eq + 1;
                match
                  teacher.Teacher.equivalence ~label:r.task_label ~context
                    ~extent:(extent_in ())
                with
                | Teacher.Equal -> ()
                | Teacher.Counter { node; positive } ->
                  stats.Stats.ce <- stats.Stats.ce + 1;
                  if positive then begin
                    let keep, dropped =
                      List.partition (holds node) !conds
                    in
                    (* a spare a positive violates is coincidental
                       everywhere — never offer it either; a dropped
                       condition never re-enters [spares], so the
                       drop/restore cycle cannot oscillate *)
                    spares := List.filter (holds node) !spares;
                    if dropped = [] then
                      (* every condition holds: the path misses it *)
                      give_up := true
                    else begin
                      conds := keep;
                      changed := true;
                      settle (budget - 1)
                    end
                  end
                  else begin
                    (* under-constrained here: restore a spare that
                       excludes the negative example, or raise a
                       Condition Box when none does *)
                    match
                      match List.find_opt (fun c -> not (holds node c)) !spares with
                      | Some c -> Some c
                      | None ->
                        condition_box ~stats ~teacher ~label:r.task_label
                          ~context node
                    with
                    | Some c ->
                      conds := !conds @ [ c ];
                      spares := List.filter (fun c' -> not (Cond.equal c c')) !spares;
                      changed := true;
                      settle (budget - 1)
                    | None -> give_up := true
                  end
              end
            in
            if not !give_up then settle 8)
          (contexts_for task));
      if
        List.length !conds = List.length r.learned_conds
        && List.for_all (fun c -> List.exists (Cond.equal c) r.learned_conds) !conds
      then r
      else { r with learned_conds = !conds; spare_conds = !spares }
  in
  let results' = List.map sweep_task results in
  if !changed then Some results' else None

(* -------- drag-and-drop accounting ------------------------------------- *)

let dd_of_tree (tree : Xqtree.t) (stats : Stats.t) =
  List.iter
    (fun (_task : Task.t) ->
      stats.Stats.dd <- stats.Stats.dd + 1;
      stats.Stats.dd_terminals <- stats.Stats.dd_terminals + 1)
    (Task.tasks_of tree);
  List.iter
    (fun (n : Xqtree.node) ->
      match n.Xqtree.func with
      | Some f ->
        (* the typed-in function's own terminals; each hole's dropped
           node is counted by the task above *)
        stats.Stats.dd_terminals <-
          stats.Stats.dd_terminals + Func_spec.terminals f
          - List.length (Func_spec.holes f)
      | None -> ())
    (Xqtree.nodes tree)

(* -------- one whole learning session ------------------------------------ *)

let run ~(config : config) ~(teacher : Teacher.t) ~known ~on_auto ~on_phase
    ~on_oracle (scenario : Scenario.t) : Learn_types.result =
  Xl_obs.Obs.span ~name:"learn.scenario" ~detail:scenario.Scenario.name
  @@ fun () ->
  let oracle, oracle_teacher =
    Xl_obs.Obs.span ~name:"oracle.init" (fun () ->
        Oracle.create ~strategy:config.strategy ?pool:config.pool scenario)
  in
  on_oracle oracle_teacher;
  let ctx = Oracle.eval_ctx oracle in
  let dg = Data_graph.build scenario.Scenario.store in
  let schemas =
    match Scenario.all_dtds scenario with
    | [] ->
      (* no schema supplied: rule R1 falls back to a DataGuide derived
         from the instance, which is exact for the instance-parameterized
         XQ_I semantics *)
      [ Xl_schema.Schema_source.of_dataguide
          (Xl_schema.Dataguide.of_store scenario.Scenario.store) ]
    | dtds -> List.map Xl_schema.Schema_source.of_dtd dtds
  in
  let stats = Stats.create () in
  let tree = scenario.Scenario.target in
  on_phase Dropping;
  let bindings =
    Xl_obs.Obs.span ~name:"learn.drops" (fun () -> choose_drops oracle scenario)
  in
  (* the alphabet is stable once the drop phase has interned all target
     path symbols; the schema path DFAs, R1's only form of the schemas,
     can now be shared by every task *)
  let schema_dfas =
    List.map
      (fun src -> Xl_schema.Schema_source.to_dfa src ctx.Xl_xquery.Eval.alphabet)
      schemas
  in
  dd_of_tree tree stats;
  let results =
    List.map
      (fun task ->
        on_phase (Learning (Task.label task));
        Xl_obs.Obs.span ~name:"learn.task"
          ~detail:(scenario.Scenario.name ^ "/" ^ Task.label task) (fun () ->
            learn_task ~config ~stats ~teacher ~ctx ~dg ~schema_dfas
              ~tree ~known ~on_auto ~bindings task))
      (Task.tasks_of tree)
  in
  let learned = rebuild tree results in
  let out t =
    let v = Xl_xquery.Eval.run ctx (Xqtree.to_ast t) in
    String.concat "\n"
      (List.map
         (function
           | Xl_xquery.Value.Node n -> Serialize.node_to_string n
           | Xl_xquery.Value.Atom a -> Xl_xquery.Value.atom_to_string a)
         v)
  in
  let reference = Xl_obs.Obs.span ~name:"learn.reference" (fun () -> out tree) in
  let verify t = String.equal (out t) reference in
  on_phase Verifying;
  let verified =
    Xl_obs.Obs.span ~name:"learn.verify" (fun () -> verify learned)
  in
  let results, learned, verified =
    if verified then (results, learned, true)
    else
      (* coincidental conditions may have survived the drop context; try
         to repair them with equivalence queries in the other contexts *)
      Xl_obs.Obs.span ~name:"learn.sweep" (fun () ->
          let rec refine results learned pass =
            if pass >= 3 then (results, learned, false)
            else begin
              on_phase (Repairing pass);
              match
                sweep_once ~config ~stats ~teacher ~ctx scenario learned results
              with
              | None -> (results, learned, false)
              | Some results' ->
                let learned' = rebuild tree results' in
                if verify learned' then (results', learned', true)
                else refine results' learned' (pass + 1)
            end
          in
          refine results learned 0)
  in
  let query_text = Xl_xquery.Printer.to_string (Xqtree.to_ast learned) in
  { scenario; stats; node_results = results; learned; query_text; verified }
