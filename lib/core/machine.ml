(* The learner as a resumable state machine (see machine.mli).

   The LEARN-X1*+E engine below is the former body of [Learn.run]; the
   inversion of control is confined to this file's edges.  The engine
   still calls an ordinary {!Teacher.t}, but the teacher it is handed
   performs an [Ask] effect per question: an [Effect.Deep] handler
   around the engine captures the continuation at each question and
   hands it to the driver as a suspended machine value.  [step] feeds
   one answer by resuming the continuation.

   The captured continuation is one-shot, so by itself it cannot give
   machine values persistent semantics.  The transcript can: the engine
   is deterministic given (config, scenario store, answers), so a value
   whose continuation has been consumed — an old fork, or a snapshot
   decoded in a fresh process — is rebuilt by running a fresh engine
   and re-feeding its recorded answers, checking at every step that the
   engine asks the question the transcript recorded (by digest).  Any
   mismatch raises [Corrupt]: replay either reproduces the exact
   suspension point or fails loudly, never silently diverges.

   Effects never cross domains here: every teacher call happens on the
   domain driving the engine.  The pool is used only for pure
   sub-computations (schema compilation, the C-Learner scan, oracle
   batch chunks inside the driver's answer), which perform no effect. *)

open Xl_xml
open Xl_xqtree
open Learn_types

type question =
  | Membership of {
      label : string;
      context : Teacher.context;
      rel_path : string list;
      witness : Node.t option;
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

type answer =
  | Bool of bool
  | Bools of bool list
  | Eq of Teacher.eq_answer
  | Cb of Teacher.cb_answer option
  | Order of (Xl_xquery.Simple_path.t * bool) list

type phase = Dropping | Learning of string | Verifying | Repairing of int | Finished

type outcome = [ `Ask of question | `Done of Learn_types.result ]

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let c_steps = Xl_obs.Obs.Counter.make "machine_steps"
let c_replays = Xl_obs.Obs.Counter.make "machine_replays"

(* ---------------------------------------------------------------------- *)
(* The engine (the former Learn.run and its helpers)                       *)
(* ---------------------------------------------------------------------- *)

(* choose a dropped example for every task, depth-first with backtracking
   so no descendant faces an empty extent.  Returns variable bindings per
   XQ-Tree label (a collapse pair yields bindings for both halves). *)
let choose_drops (o : Oracle.t) (scenario : Scenario.t) :
    (string * (string * Node.t)) list =
  let tree = scenario.Scenario.target in
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
        let extent = Oracle.target_extent o child.Xqtree.label context in
        if extent = [] then None
        else
          let preferred = Scenario.pick scenario child.Xqtree.label in
          let ordered =
            let idx = List.mapi (fun i e -> (i, e)) extent in
            List.filter (fun (i, _) -> i = preferred) idx
            @ List.filter (fun (i, _) -> i <> preferred) idx
          in
          List.find_map
            (fun (_, e) ->
              let bindings = Task.bindings_of task e in
              let context' = context @ bindings in
              let rest_children =
                List.filter
                  (fun c -> not (String.equal c.Xqtree.label child.Xqtree.label))
                  n.Xqtree.children
                @ child.Xqtree.children
              in
              match assign_children rest_children context' with
              | Some kid_drops ->
                Some
                  ( (n.Xqtree.label, (v, List.assoc v bindings))
                    :: (child.Xqtree.label, (Option.get child.Xqtree.var, e))
                    :: kid_drops )
              | None -> None)
            ordered
      | _ ->
        let extent = Oracle.target_extent o n.Xqtree.label context in
        if extent = [] then None
        else
          let preferred = Scenario.pick scenario n.Xqtree.label in
          let ordered =
            let idx = List.mapi (fun i e -> (i, e)) extent in
            List.filter (fun (i, _) -> i = preferred) idx
            @ List.filter (fun (i, _) -> i <> preferred) idx
          in
          List.find_map
            (fun (_, e) ->
              let context' = context @ [ (v, e) ] in
              match assign_children n.Xqtree.children context' with
              | Some kid_drops -> Some ((n.Xqtree.label, (v, e)) :: kid_drops)
              | None -> None)
            ordered)
  in
  match assign tree [] with
  | Some drops -> drops
  | None -> raise (Learning_failed "no consistent drag-and-drop assignment exists")

(* the context of a task: bindings of the ancestors of the task's anchor
   (the collapse parent's own binding is part of the task, not context) *)
let context_of (tree : Xqtree.t) (bindings : (string * (string * Node.t)) list)
    (task : Task.t) : Teacher.context =
  let anchor_label =
    match task.Task.parent with
    | Some p -> p.Xqtree.label
    | None -> task.Task.node.Xqtree.label
  in
  List.filter_map
    (fun (a : Xqtree.node) ->
      match a.Xqtree.var with
      | Some _ -> List.assoc_opt a.Xqtree.label bindings
      | None -> None)
    (Xqtree.ancestors tree anchor_label)

exception Reanchor

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
          | Some prev when Dewey.is_ancestor cnode.Node.dewey prev.Node.dewey -> acc
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
    let ask s =
      teacher.Teacher.path_membership ~label ~context ~rel_path:s ~witness:None
    in
    let ask_batch =
      Option.map
        (fun f ss -> f ~label ~context ~rel_paths:ss)
        teacher.Teacher.path_membership_batch
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
        ?ask_batch ~stats ~r1_dfas ~alphabet ~abs_prefix ~dropped_path ~ask ()
    in
    let cl =
      Clearner.create ?pool:config.pool dg context
        ~endpoints:(Task.bindings_of task dropped)
    in
    let fixed : Cond.t list ref = ref [] in
    let rounds = ref 0 in
    let bind n = Task.bindings_of task n in
    let equivalence (dfa : Xl_automata.Dfa.t) : int list option =
      let rec loop () =
        incr rounds;
        if !rounds > config.max_rounds then
          raise (Learning_failed (label ^ ": too many equivalence rounds"));
        let conds = Clearner.hypothesis cl @ !fixed in
        let extent =
          Extent.select_by_dfa ctx dfa base
          |> Extent.filter_conds ctx context ~bind conds
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
              ignore (Clearner.observe_positive cl ctx ~bindings:(bind node));
              Plearner.note_positive pl s;
              if path_ok then loop () else Some word
            end
            else if Plearner.known_positive_paths pl |> List.mem s then begin
              (* no path expression separates it: raise a Condition Box *)
              match
                teacher.Teacher.condition_box ~label ~context
                  ~negative_example:(Some node)
              with
              | Some { Teacher.cond; terminals; negative = _ } ->
                stats.Stats.cb <- stats.Stats.cb + 1;
                stats.Stats.cb_terminals <- stats.Stats.cb_terminals + terminals;
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
      let hyp = Clearner.minimized cl in
      let extent_with conds =
        Extent.select_by_dfa ctx dfa base
        |> Extent.filter_conds ctx context ~bind conds
        |> List.map (fun (n : Node.t) -> n.Node.id)
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
   context could not distinguish from redundant — that excludes it.
   Conditions discarded by a positive example are banned from
   restoration, so the exchange terminates.

   All sweep progress (the pass number, the per-task cond/spare sets,
   the sweep's own equivalence dialog) is ordinary engine state: it
   lives between two Ask suspensions like everything else, so a machine
   snapshotted mid-repair resumes inside the same sweep with nothing
   leaked from the interrupted run. *)

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
    let anchor_label =
      match task.Task.parent with
      | Some p -> p.Xqtree.label
      | None -> task.Task.node.Xqtree.label
    in
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
    extend [ [] ] [] (Xqtree.ancestors learned anchor_label)
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
    | Some task when r.learned_conds = [] && r.spare_conds = [] ->
      ignore task;
      r
    | Some task ->
      let anchor =
        match task.Task.parent with
        | Some p -> p
        | None -> task.Task.node
      in
      let source_path =
        match Task.composed_source task with
        | Some (Xqtree.Abs (_, p)) | Some (Xqtree.Rel p) -> Some p
        | None -> None
      in
      let base_of (context : Teacher.context) : Node.t option =
        match anchor.Xqtree.source with
        | Some (Xqtree.Abs (uri, _)) ->
          let doc =
            match uri with
            | None -> Store.default store
            | Some u -> Store.find_exn store u
          in
          Some doc.Doc.doc_node
        | _ -> (
          match Xqtree.base_var learned anchor.Xqtree.label with
          | Some v -> List.assoc_opt v context
          | None -> Some (Store.default store).Doc.doc_node)
      in
      let conds = ref r.learned_conds in
      let spares = ref r.spare_conds in
      let give_up = ref false in
      (match source_path with
      | None -> ()
      | Some p ->
        let extent_in context =
          match base_of context with
          | None -> []
          | Some base ->
            Xl_xquery.Eval.eval_path ctx p base
            |> Extent.filter_conds ctx context ~bind:(Task.bindings_of task)
                 !conds
        in
        let holds context node c =
          Extent.satisfies ctx context ~bindings:(Task.bindings_of task node)
            [ c ]
        in
        List.iter
          (fun context ->
            let rec settle budget =
              if budget > 0 && not !give_up then begin
                stats.Stats.eq <- stats.Stats.eq + 1;
                match
                  teacher.Teacher.equivalence ~label:r.task_label ~context
                    ~extent:(extent_in context)
                with
                | Teacher.Equal -> ()
                | Teacher.Counter { node; positive } ->
                  stats.Stats.ce <- stats.Stats.ce + 1;
                  if positive then begin
                    let keep, dropped =
                      List.partition (holds context node) !conds
                    in
                    (* a spare a positive violates is coincidental
                       everywhere — never offer it either; a dropped
                       condition never re-enters [spares], so the
                       drop/restore exchange cannot oscillate *)
                    spares := List.filter (holds context node) !spares;
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
                       excludes the negative example *)
                    match
                      List.find_opt
                        (fun c -> not (holds context node c))
                        !spares
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

(* mutable cells shared between the engine (running under the handler)
   and the machine values outside it: where the engine currently is, and
   the oracle it derives its ground truth from.  Written only by the
   domain driving the engine. *)
type runtime = {
  mutable oracle : (Oracle.t * Teacher.t) option;
  mutable cur_phase : phase;
  mutable pending : pending option;
  mutable live_gen : int;
      (* transcript length the pending continuation continues from; -1
         when no continuation is live *)
}

and pending = P : (answer, reply) Effect.Deep.continuation -> pending

and reply =
  | I_ask of question * (answer, reply) Effect.Deep.continuation
  | I_done of Learn_types.result

let run_engine ~(config : config) ~(rt : runtime) ~(teacher : Teacher.t)
    ~known ~on_auto (scenario : Scenario.t) :
    Learn_types.result =
  let on_phase p = rt.cur_phase <- p in
  Xl_obs.Obs.span ~name:"learn.scenario" ~detail:scenario.Scenario.name
  @@ fun () ->
  let oracle, oracle_teacher =
    Xl_obs.Obs.span ~name:"oracle.init" (fun () ->
        Oracle.create ~strategy:config.strategy ?pool:config.pool scenario)
  in
  rt.oracle <- Some (oracle, oracle_teacher);
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
  let reference = out tree in
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

(* ---------------------------------------------------------------------- *)
(* The inversion: effect, handler, machine values                          *)
(* ---------------------------------------------------------------------- *)

type _ Effect.t += Ask : question -> answer Effect.t

let shape_error q =
  let kind =
    match q with
    | Membership _ -> "Membership expects Bool"
    | Membership_batch _ -> "Membership_batch expects Bools, one per path"
    | Equivalence _ -> "Equivalence expects Eq"
    | Condition_box _ -> "Condition_box expects Cb"
    | Order_box _ -> "Order_box expects Order"
  in
  invalid_arg ("Machine.step: answer shape mismatch — " ^ kind)

let check_shape (q : question) (a : answer) : unit =
  match q, a with
  | Membership _, Bool _ -> ()
  | Membership_batch { rel_paths; _ }, Bools bs ->
    if List.length bs <> List.length rel_paths then
      invalid_arg "Machine.step: Bools answer length differs from the batch"
  | Equivalence _, Eq _ -> ()
  | Condition_box _, Cb _ -> ()
  | Order_box _, Order _ -> ()
  | _ -> shape_error q

(* the teacher handed to the engine: every call is one performed effect,
   checked against the question shape on both sides of the suspension *)
let effect_teacher : Teacher.t =
  {
    Teacher.path_membership =
      (fun ~label ~context ~rel_path ~witness ->
        match Effect.perform (Ask (Membership { label; context; rel_path; witness })) with
        | Bool b -> b
        | _ -> assert false (* step validates the shape before resuming *));
    path_membership_batch =
      Some
        (fun ~label ~context ~rel_paths ->
          match Effect.perform (Ask (Membership_batch { label; context; rel_paths })) with
          | Bools bs -> bs
          | _ -> assert false);
    equivalence =
      (fun ~label ~context ~extent ->
        match Effect.perform (Ask (Equivalence { label; context; extent })) with
        | Eq e -> e
        | _ -> assert false);
    condition_box =
      (fun ~label ~context ~negative_example ->
        match Effect.perform (Ask (Condition_box { label; context; negative_example })) with
        | Cb c -> c
        | _ -> assert false);
    order_box =
      (fun ~label ->
        match Effect.perform (Ask (Order_box { label })) with
        | Order o -> o
        | _ -> assert false);
  }

let handle (f : unit -> Learn_types.result) : reply =
  Effect.Deep.match_with f ()
    {
      retc = (fun r -> I_done r);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Ask q ->
            Some (fun (k : (a, reply) Effect.Deep.continuation) -> I_ask (q, k))
          | _ -> None);
    }

type on_auto_cb = label:string -> rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit

type exchange = { question : question; answer : answer; seq : int; ts_ns : int }

type t = {
  t_scenario : Scenario.t;
  t_config : config;
  t_known : (string * (string list * bool)) list;
      (* Section 11 reuse: the genuine membership answers of the prior
         runs, (task label, (relative path, answer)), oldest first *)
  t_on_auto : on_auto_cb option;
  t_past : (int * exchange) list;  (* (question digest, exchange), newest first *)
  t_steps : int;
  t_phase : phase;
  t_outcome : outcome;
  t_rt : runtime;
}

let scenario m = m.t_scenario
let config m = m.t_config
let outcome m = m.t_outcome
let phase m = m.t_phase
let steps m = m.t_steps
let transcript m = List.rev_map snd m.t_past

let oracle_teacher m =
  match m.t_rt.oracle with
  | Some (_, teacher) -> teacher
  | None ->
    (* unreachable: the engine installs its oracle before the first
       question can be asked, and [start] runs at least that far *)
    invalid_arg "Machine.oracle_teacher: engine not initialized"

(* -------- stable question digests -------------------------------------- *)

(* Deterministic across processes (Hashtbl.hash is a pure function of
   the value); nodes contribute their document URI and Dewey code, the
   only process-stable identity they have.  31-bit so the digest
   serializes as a u32 on any platform. *)

let hmix h x = (((h * 131) + x) land 0x3FFFFFFF : int)
let hstr h s = hmix h (Hashtbl.hash (s : string))
let hpath h p = List.fold_left hstr (hmix h (List.length p)) p

let doc_of_node (store : Store.t) (n : Node.t) : Doc.t =
  let root = Node.root n in
  match
    List.find_opt
      (fun (d : Doc.t) -> Node.equal d.Doc.doc_node root)
      (Store.docs store)
  with
  | Some d -> d
  | None ->
    invalid_arg
      "Machine: a teacher answer names a node outside the scenario's store"

let hnode store h (n : Node.t) =
  let d = doc_of_node store n in
  List.fold_left hmix (hstr h d.Doc.uri) n.Node.dewey

let hctx store h (context : Teacher.context) =
  List.fold_left (fun h (v, n) -> hnode store (hstr h v) n) (hmix h (List.length context)) context

let hopt f h = function None -> hmix h 0 | Some x -> f (hmix h 1) x

let question_hash (store : Store.t) (q : question) : int =
  match q with
  | Membership { label; context; rel_path; witness } ->
    let h = hstr (hmix 1 1) label in
    let h = hctx store h context in
    let h = hpath h rel_path in
    hopt (hnode store) h witness
  | Membership_batch { label; context; rel_paths } ->
    let h = hstr (hmix 1 2) label in
    let h = hctx store h context in
    List.fold_left hpath (hmix h (List.length rel_paths)) rel_paths
  | Equivalence { label; context; extent } ->
    let h = hstr (hmix 1 3) label in
    let h = hctx store h context in
    List.fold_left (hnode store) (hmix h (List.length extent)) extent
  | Condition_box { label; context; negative_example } ->
    let h = hstr (hmix 1 4) label in
    let h = hctx store h context in
    hopt (hnode store) h negative_example
  | Order_box { label } -> hstr (hmix 1 5) label

(* -------- launching and replaying the engine ---------------------------- *)

let launch ~(config : config) ~known ~on_auto (scenario : Scenario.t) :
    runtime * reply =
  let rt = { oracle = None; cur_phase = Dropping; pending = None; live_gen = -1 } in
  let reply =
    handle (fun () ->
        run_engine ~config ~rt ~teacher:effect_teacher ~known ~on_auto scenario)
  in
  (rt, reply)

(* the exchange of one answer, stamped for the dialog view: a batched
   question reserves one sequence number per word, so its dialog lines
   interleave with spans like single questions do *)
let exchange ~ts_ns (q : question) (a : answer) : exchange =
  let lines =
    match q with Membership_batch { rel_paths; _ } -> List.length rel_paths | _ -> 1
  in
  { question = q; answer = a; seq = Xl_obs.Obs.next_seqs (max 1 lines); ts_ns }

(* re-feed recorded answers to a freshly launched engine, checking each
   question against its recorded digest; returns the engine's frontier
   and the transcript rebuilt with live question values *)
let replay ~(store : Store.t) (reply : reply) (pairs : (int * answer) list) :
    reply * (int * exchange) list =
  let step_no = ref 0 in
  let rec feed reply past = function
    | [] -> (reply, past)
    | (qh, a) :: rest -> (
      incr step_no;
      match reply with
      | I_done _ ->
        corrupt "replay: transcript has %d answers past the end of the run"
          (List.length rest + 1)
      | I_ask (q, k) ->
        if question_hash store q <> qh then
          corrupt "replay diverged at step %d: the engine asked %s" !step_no
            (match q with
            | Membership _ -> "a membership query"
            | Membership_batch _ -> "a batched membership query"
            | Equivalence _ -> "an equivalence query"
            | Condition_box _ -> "a condition box"
            | Order_box _ -> "an order box");
        check_shape q a;
        let ex = exchange ~ts_ns:(Xl_obs.Obs.now_ns ()) q a in
        feed (Effect.Deep.continue k a) ((qh, ex) :: past) rest)
  in
  try feed reply [] pairs
  with Learning_failed msg -> corrupt "replay: learning failed mid-transcript (%s)" msg

let make_t ~scenario ~config ~known ~on_auto ~(rt : runtime) ~past ~steps
    (reply : reply) : t =
  let phase, outcome =
    match reply with
    | I_done r ->
      rt.pending <- None;
      rt.live_gen <- -1;
      rt.cur_phase <- Finished;
      (Finished, `Done r)
    | I_ask (q, k) ->
      rt.pending <- Some (P k);
      rt.live_gen <- steps;
      (rt.cur_phase, `Ask q)
  in
  {
    t_scenario = scenario;
    t_config = config;
    t_known = known;
    t_on_auto = on_auto;
    t_past = past;
    t_steps = steps;
    t_phase = phase;
    t_outcome = outcome;
    t_rt = rt;
  }

(* Section 11 reuse: every genuine membership answer [prior]'s lineage
   was given, in ask order — a view over the transcripts, so replaying a
   machine that reuses them is as deterministic as any other replay *)
let known_of ~(scenario : Scenario.t) = function
  | None -> []
  | Some prior ->
    if not (String.equal prior.t_scenario.Scenario.name scenario.Scenario.name) then
      invalid_arg "Machine: the prior run is of another scenario";
    prior.t_known
    @ List.concat_map
        (fun ex ->
          match ex.question, ex.answer with
          | Membership { label; rel_path; _ }, Bool b -> [ (label, (rel_path, b)) ]
          | Membership_batch { label; rel_paths; _ }, Bools bs ->
            List.map2 (fun p b -> (label, (p, b))) rel_paths bs
          | _ -> [])
        (transcript prior)

let start ?(config = Learn_types.default_config) ?prior ?on_auto scenario =
  let known = known_of ~scenario prior in
  let rt, reply = launch ~config ~known ~on_auto scenario in
  make_t ~scenario ~config ~known ~on_auto ~rt ~past:[] ~steps:0 reply

(* rebuild a live continuation for a machine whose own was consumed (an
   old fork) by replaying its transcript on a fresh engine *)
let relive (m : t) : runtime * reply =
  Xl_obs.Obs.Counter.incr c_replays;
  let rt, reply0 =
    launch ~config:m.t_config ~known:m.t_known ~on_auto:m.t_on_auto
      m.t_scenario
  in
  let pairs = List.rev_map (fun (qh, ex) -> (qh, ex.answer)) m.t_past in
  let reply, _past = replay ~store:m.t_scenario.Scenario.store reply0 pairs in
  (rt, reply)

let label_of = function
  | Membership { label; _ }
  | Membership_batch { label; _ }
  | Equivalence { label; _ }
  | Condition_box { label; _ }
  | Order_box { label } -> label

let step (m : t) (a : answer) : outcome * t =
  match m.t_outcome with
  | `Done _ -> invalid_arg "Machine.step: the learner has already finished"
  | `Ask q ->
    check_shape q a;
    let t0 = Xl_obs.Obs.now_ns () in
    Xl_obs.Obs.Counter.incr c_steps;
    let store = m.t_scenario.Scenario.store in
    let qh = question_hash store q in
    let rt, k =
      match m.t_rt.pending with
      | Some (P k) when m.t_rt.live_gen = m.t_steps ->
        (* the hot path: this value holds the live continuation *)
        m.t_rt.pending <- None;
        m.t_rt.live_gen <- -1;
        (m.t_rt, k)
      | _ -> (
        (* consumed by another step of this lineage: rebuild by replay *)
        match relive m with
        | _, I_done _ ->
          corrupt "replay: the engine finished before the suspension point"
        | rt, I_ask (q', k) ->
          if question_hash store q' <> qh then
            corrupt "replay diverged at the suspension point (step %d)" m.t_steps;
          (rt, k))
    in
    let ex = exchange ~ts_ns:t0 q a in
    let reply = Effect.Deep.continue k a in
    let m' =
      make_t ~scenario:m.t_scenario ~config:m.t_config ~known:m.t_known
        ~on_auto:m.t_on_auto ~rt ~past:((qh, ex) :: m.t_past)
        ~steps:(m.t_steps + 1) reply
    in
    Xl_obs.Obs.record_completed ~name:"machine.step" ~detail:(label_of q)
      ~t0_ns:t0 ();
    (m'.t_outcome, m')

exception Aborted

let abort (m : t) : unit =
  match m.t_rt.pending with
  | Some (P k) when m.t_rt.live_gen = m.t_steps ->
    m.t_rt.pending <- None;
    m.t_rt.live_gen <- -1;
    (* unwind the engine stack so every span opened inside it records *)
    (try ignore (Effect.Deep.discontinue k Aborted : reply) with Aborted -> ())
  | _ -> ()

(* -------- driving -------------------------------------------------------- *)

let answer_with (teacher : Teacher.t) (q : question) : answer =
  match q with
  | Membership { label; context; rel_path; witness } ->
    Bool (teacher.Teacher.path_membership ~label ~context ~rel_path ~witness)
  | Membership_batch { label; context; rel_paths } -> (
    match teacher.Teacher.path_membership_batch with
    | Some f -> Bools (f ~label ~context ~rel_paths)
    | None ->
      (* a teacher without a batched oracle (the interactive console)
         still sees every question one at a time, in order *)
      Bools
        (List.map
           (fun rel_path ->
             teacher.Teacher.path_membership ~label ~context ~rel_path
               ~witness:None)
           rel_paths))
  | Equivalence { label; context; extent } ->
    Eq (teacher.Teacher.equivalence ~label ~context ~extent)
  | Condition_box { label; context; negative_example } ->
    Cb (teacher.Teacher.condition_box ~label ~context ~negative_example)
  | Order_box { label } -> Order (teacher.Teacher.order_box ~label)

let drive ~teacher (m : t) : Learn_types.result * t =
  let rec go m =
    match m.t_outcome with
    | `Done r -> (r, m)
    | `Ask q ->
      let _, m' = step m (answer_with teacher q) in
      go m'
  in
  go m

(* ---------------------------------------------------------------------- *)
(* Snapshots                                                               *)
(* ---------------------------------------------------------------------- *)

(* Layout (little-endian, version 2) — the framing conventions of
   {!Xl_xml.Snapshot}:

     magic "XLMACHIN"                                  8 bytes
     version                                           u32
     config: r1 r2                                     2 x u8
             strategy (0 Best, 1 Worst)                u8
             max_rounds                                u32
     scenario name                                     blob
     phase tag (0 drop, 1 learn, 2 verify,
                3 repair, 4 finished)                  u8
       + task label (blob, tag 1) | pass (u32, tag 3)
     entry count                                       u32
     entries, oldest first:
       question digest                                 u32
       answer tag + payload (see below)
     MD5 digest of everything above                    16 bytes

   blob = u32 length + bytes.  Nodes are stored as (document URI blob,
   Dewey length u32, Dewey components u32 each) — the only
   process-stable identity a node has.  Cond.t and Simple_path values
   (pure data, no closures) are stored as Marshal blobs; their payload
   integrity is guaranteed by the trailing digest, which is checked
   before any structural decoding.  The pool is deliberately absent:
   parallelism is an execution resource, not learner state. *)

let snapshot_magic = "XLMACHIN"
let snapshot_version = 2

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_bool b v = add_u8 b (if v then 1 else 0)

let add_blob b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_node b store (n : Node.t) =
  let d = doc_of_node store n in
  add_blob b d.Doc.uri;
  add_u32 b (List.length n.Node.dewey);
  List.iter (add_u32 b) n.Node.dewey

let add_answer b store (a : answer) =
  match a with
  | Bool false -> add_u8 b 0
  | Bool true -> add_u8 b 1
  | Bools bs ->
    add_u8 b 2;
    let n = List.length bs in
    add_u32 b n;
    let byte = ref 0 and fill = ref 0 in
    List.iter
      (fun v ->
        if v then byte := !byte lor (1 lsl !fill);
        incr fill;
        if !fill = 8 then begin
          add_u8 b !byte;
          byte := 0;
          fill := 0
        end)
      bs;
    if !fill > 0 then add_u8 b !byte
  | Eq Teacher.Equal -> add_u8 b 3
  | Eq (Teacher.Counter { node; positive }) ->
    add_u8 b 4;
    add_bool b positive;
    add_node b store node
  | Cb None -> add_u8 b 5
  | Cb (Some { Teacher.cond; terminals; negative }) ->
    add_u8 b 6;
    add_u32 b terminals;
    add_bool b negative;
    add_blob b (Marshal.to_string (cond : Cond.t) [])
  | Order keys ->
    add_u8 b 7;
    add_blob b (Marshal.to_string (keys : (Xl_xquery.Simple_path.t * bool) list) [])

let add_phase b (p : phase) =
  match p with
  | Dropping -> add_u8 b 0
  | Learning label ->
    add_u8 b 1;
    add_blob b label
  | Verifying -> add_u8 b 2
  | Repairing pass ->
    add_u8 b 3;
    add_u32 b pass
  | Finished -> add_u8 b 4

let snapshot (m : t) : string =
  Xl_obs.Obs.span ~name:"machine.snapshot" (fun () ->
      let store = m.t_scenario.Scenario.store in
      let b = Buffer.create 1024 in
      Buffer.add_string b snapshot_magic;
      add_u32 b snapshot_version;
      add_bool b m.t_config.rules.Plearner.r1;
      add_bool b m.t_config.rules.Plearner.r2;
      add_u8 b (match m.t_config.strategy with Oracle.Best -> 0 | Oracle.Worst -> 1);
      add_u32 b m.t_config.max_rounds;
      add_blob b m.t_scenario.Scenario.name;
      add_phase b m.t_phase;
      add_u32 b m.t_steps;
      List.iter
        (fun (qh, ex) ->
          add_u32 b qh;
          add_answer b store ex.answer)
        (List.rev m.t_past);
      let body = Buffer.contents b in
      body ^ Digest.string body)

(* -------- decoding ------------------------------------------------------- *)

type cursor = { data : string; mutable pos : int; limit : int }

let need (c : cursor) n what =
  if c.pos + n > c.limit then corrupt "machine snapshot truncated reading %s" what

let u8 c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_le c.data c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then corrupt "negative length in %s" what;
  v

let blob c what =
  let n = u32 c what in
  need c n what;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_bool c what =
  match u8 c what with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad boolean %d in %s" v what

let node_of c (store : Store.t) : Node.t =
  let uri = blob c "node uri" in
  let doc =
    match
      List.find_opt (fun (d : Doc.t) -> String.equal d.Doc.uri uri) (Store.docs store)
    with
    | Some d -> d
    | None -> corrupt "snapshot names document %S, not in this store" uri
  in
  let len = u32 c "dewey length" in
  let rec walk (n : Node.t) i =
    if i = len then n
    else begin
      let k = u32 c "dewey component" in
      let all = Node.attributes n @ Node.children n in
      match List.nth_opt all (k - 1) with
      | Some child -> walk child (i + 1)
      | None -> corrupt "dewey step %d out of range under %s" k (Node.symbol n)
    end
  in
  walk doc.Doc.doc_node 0

(* -------- public node references ---------------------------------------- *)

(* The snapshot codec's (document URI, Dewey code) node identity, exposed
   for other wire formats — the session server ships counterexample
   nodes to clients and decodes their answers with exactly the pairs the
   snapshot would store, so a node that round-trips one codec round-trips
   the other. *)

let node_ref (store : Store.t) (n : Node.t) : string * int list =
  ((doc_of_node store n).Doc.uri, n.Node.dewey)

let node_of_ref (store : Store.t) ~uri ~dewey : (Node.t, string) Stdlib.result =
  match
    List.find_opt (fun (d : Doc.t) -> String.equal d.Doc.uri uri) (Store.docs store)
  with
  | None -> Error (Printf.sprintf "document %S not in this store" uri)
  | Some doc ->
    let rec walk (n : Node.t) = function
      | [] -> Ok n
      | k :: rest -> (
        let all = Node.attributes n @ Node.children n in
        match List.nth_opt all (k - 1) with
        | Some child -> walk child rest
        | None ->
          Error
            (Printf.sprintf "dewey step %d out of range under %s" k
               (Node.symbol n)))
    in
    walk doc.Doc.doc_node dewey

let read_answer c store : answer =
  match u8 c "answer tag" with
  | 0 -> Bool false
  | 1 -> Bool true
  | 2 ->
    let n = u32 c "bools length" in
    let nbytes = (n + 7) / 8 in
    need c nbytes "bools payload";
    let bs =
      List.init n (fun i ->
          Char.code c.data.[c.pos + (i / 8)] land (1 lsl (i mod 8)) <> 0)
    in
    c.pos <- c.pos + nbytes;
    Bools bs
  | 3 -> Eq Teacher.Equal
  | 4 ->
    let positive = read_bool c "counterexample sign" in
    let node = node_of c store in
    Eq (Teacher.Counter { node; positive })
  | 5 -> Cb None
  | 6 ->
    let terminals = u32 c "cb terminals" in
    let negative = read_bool c "cb negation" in
    let cond : Cond.t = Marshal.from_string (blob c "cb condition") 0 in
    Cb (Some { Teacher.cond; terminals; negative })
  | 7 ->
    let keys : (Xl_xquery.Simple_path.t * bool) list =
      Marshal.from_string (blob c "order keys") 0
    in
    Order keys
  | tag -> corrupt "bad answer tag %d" tag

let read_phase c : phase =
  match u8 c "phase tag" with
  | 0 -> Dropping
  | 1 -> Learning (blob c "phase label")
  | 2 -> Verifying
  | 3 -> Repairing (u32 c "phase pass")
  | 4 -> Finished
  | tag -> corrupt "bad phase tag %d" tag

let restore ?pool ?prior ?on_auto ~(scenario : Scenario.t) (data : string) : t =
  let known = known_of ~scenario prior in
  Xl_obs.Obs.span ~name:"machine.restore" ~detail:scenario.Scenario.name
    (fun () ->
      let len = String.length data in
      let digest_bytes = 16 in
      let min_len = String.length snapshot_magic + 4 + digest_bytes in
      if len < min_len then corrupt "machine snapshot too short (%d bytes)" len;
      if not (String.equal (String.sub data 0 8) snapshot_magic) then
        corrupt "bad magic (not a machine snapshot)";
      let body = String.sub data 0 (len - digest_bytes) in
      let c = { data; pos = 8; limit = len - digest_bytes } in
      let version = u32 c "version" in
      if version <> snapshot_version then
        corrupt "unsupported machine snapshot version %d (expected %d)" version
          snapshot_version;
      if
        not
          (String.equal (String.sub data (len - digest_bytes) digest_bytes)
             (Digest.string body))
      then corrupt "checksum mismatch (snapshot corrupted or truncated)";
      let r1 = read_bool c "config.r1" in
      let r2 = read_bool c "config.r2" in
      let strategy =
        match u8 c "config.strategy" with
        | 0 -> Oracle.Best
        | 1 -> Oracle.Worst
        | v -> corrupt "bad strategy %d" v
      in
      let max_rounds = u32 c "config.max_rounds" in
      let config =
        { rules = { Plearner.r1; r2 }; strategy; max_rounds; pool }
      in
      let name = blob c "scenario name" in
      if not (String.equal name scenario.Scenario.name) then
        corrupt "snapshot is of scenario %S, not %S" name scenario.Scenario.name;
      let stored_phase = read_phase c in
      let nentries = u32 c "entry count" in
      let store = scenario.Scenario.store in
      let pairs =
        (* explicit loop: the cursor reads must happen in entry order *)
        let rec read n acc =
          if n = 0 then List.rev acc
          else
            let qh = u32 c "question digest" in
            let a = read_answer c store in
            read (n - 1) ((qh, a) :: acc)
        in
        read nentries []
      in
      if c.pos <> c.limit then
        corrupt "%d trailing bytes after the transcript" (c.limit - c.pos);
      let rt, reply0 = launch ~config ~known ~on_auto scenario in
      let reply, past = replay ~store reply0 pairs in
      let m =
        make_t ~scenario ~config ~known ~on_auto ~rt ~past ~steps:nentries
          reply
      in
      if m.t_phase <> stored_phase then
        corrupt "replay reached phase %s, snapshot recorded %s"
          (match m.t_phase with
          | Dropping -> "dropping"
          | Learning l -> "learning " ^ l
          | Verifying -> "verifying"
          | Repairing p -> Printf.sprintf "repair pass %d" p
          | Finished -> "finished")
          (match stored_phase with
          | Dropping -> "dropping"
          | Learning l -> "learning " ^ l
          | Verifying -> "verifying"
          | Repairing p -> Printf.sprintf "repair pass %d" p
          | Finished -> "finished");
      m)
