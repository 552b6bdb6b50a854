(** The simulated minimally adequate teacher.

    Built from a {!Scenario.t}: every answer is *derived* from the target
    XQ-Tree by evaluation — membership of a path in the target path
    language, extent comparison for equivalence queries, and the
    scenario's explicit conditions for Condition Boxes.  The experiments
    of Figure 16 measure how many of these answers the user must provide,
    which depends only on the answers, not on who computes them. *)

open Xl_xml
open Xl_xqtree

type strategy =
  | Best  (** the paper's default: pick the most informative counterexample *)
  | Worst  (** adversarial pick, for the bracketed worst-case cells *)

type t = {
  scenario : Scenario.t;
  ctx : Xl_xquery.Eval.ctx;
  strategy : strategy;
  path_dfas : (string, Xl_automata.Dfa.t) Hashtbl.t;
  cb_queues : (string, (Cond.t * int) list ref) Hashtbl.t;
  extents : (string * (string * int) list, Node.t list) Hashtbl.t;
      (** (label, context variable->node id) -> intended extent; every
          equivalence query of every L* round recomputes the same target
          extent, so memoizing it here removes the dominant rescan.  The
          target tree and conditions are fixed for the oracle's lifetime
          and the teacher's [bind] is deterministic, so entries never go
          stale; keyed by node ids, not nodes, to keep keys small. *)
}

(* shared with the evaluator's extent cache: both memoize extent
   computations, so they report through the same counters (Counter.make
   is idempotent by name) *)
let c_extent_hit = Xl_obs.Obs.Counter.make "extent_cache_hit"
let c_extent_miss = Xl_obs.Obs.Counter.make "extent_cache_miss"

let task_of_label (o : t) (label : string) : Task.t =
  match
    List.find_opt
      (fun t -> String.equal (Task.label t) label)
      (Task.tasks_of o.scenario.Scenario.target)
  with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Oracle: no learning task at %s" label)

let path_dfa (o : t) (task : Task.t) : Xl_automata.Dfa.t =
  let label = Task.label task in
  match Hashtbl.find_opt o.path_dfas label with
  | Some d -> d
  | None ->
    let p =
      match Task.composed_source task with
      | Some (Xqtree.Abs (_, p)) | Some (Xqtree.Rel p) -> p
      | None -> invalid_arg (Printf.sprintf "Oracle: task %s has no source" label)
    in
    let alphabet = o.ctx.Xl_xquery.Eval.alphabet in
    Xl_xquery.Eval.intern_path_symbols alphabet p;
    let d =
      Xl_automata.Regex.to_dfa
        ~alphabet_size:(Xl_automata.Alphabet.size alphabet)
        (Xl_xquery.Path_expr.to_regex alphabet p)
    in
    Hashtbl.replace o.path_dfas label d;
    d

(** The intended extent EXT_{e,context} of the task at [label]. *)
let target_extent (o : t) (label : string) (context : Teacher.context) :
    Node.t list =
  let key =
    (label, List.map (fun (v, (n : Node.t)) -> (v, n.Node.id)) context)
  in
  match Hashtbl.find_opt o.extents key with
  | Some r ->
    Xl_obs.Obs.Counter.incr c_extent_hit;
    r
  | None ->
    Xl_obs.Obs.Counter.incr c_extent_miss;
    let task = task_of_label o label in
    let { Scenario.target; store; _ } = o.scenario in
    let base =
      match Task.base target store task context with
      | Some n -> n
      | None -> invalid_arg (Printf.sprintf "Oracle: context misses the base of %s" label)
    in
    let candidates = Extent.select_by_dfa o.ctx (path_dfa o task) base in
    let r =
      Extent.filter_conds o.ctx context ~bind:(Task.bindings_of task)
        (Task.conds task) candidates
    in
    Hashtbl.replace o.extents key r;
    r

(* one chunk of a batch: encode, then one DFA pass over the chunk's
   shared prefix trie.  Pure given the precompiled [dfa] and the frozen
   alphabet, so chunks may run on pool domains. *)
let batch_chunk (o : t) (dfa : Xl_automata.Dfa.t) (paths : string list list) :
    bool list =
  let alphabet = o.ctx.Xl_xquery.Eval.alphabet in
  let encoded =
    List.map (Xl_automata.Alphabet.encode_opt alphabet) paths
  in
  let words = List.filter_map Fun.id encoded in
  let answers = ref (Xl_automata.Dfa.accepts_batch dfa words) in
  (* paths with symbols outside the alphabet cannot be in the task's
     path language: rejected without touching the DFA *)
  List.map
    (fun enc ->
      match enc with
      | None -> false
      | Some _ -> (
        match !answers with
        | a :: rest ->
          answers := rest;
          a
        | [] -> assert false))
    encoded

(** Batched membership: all [rel_paths] of one observation-table fill are
    answered by a single pass of the task's path DFA over the batch's
    shared prefix trie, instead of one automaton walk per word.  With a
    [pool], large batches split into per-domain chunks (order-preserving,
    and each chunk's trie pass is independent). *)
let path_membership_batch (o : t) ?pool ~label ~context
    ~(rel_paths : string list list) () : bool list =
  ignore context;
  Xl_obs.Obs.span ~name:"oracle.batch" (fun () ->
      let task = task_of_label o label in
      (* compile (or fetch) the DFA before any fan-out: the memo table
         must not be written from pool domains *)
      let dfa = path_dfa o task in
      let n = List.length rel_paths in
      match pool with
      | Some pool when n >= 64 && Xl_exec.Pool.domains pool > 1 ->
        let chunk_size = max 32 ((n + Xl_exec.Pool.domains pool - 1) / Xl_exec.Pool.domains pool) in
        let rec chunks acc cur k = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | p :: rest ->
            if k = chunk_size then chunks (List.rev cur :: acc) [ p ] 1 rest
            else chunks acc (p :: cur) (k + 1) rest
        in
        let parts = chunks [] [] 0 rel_paths in
        List.concat (Xl_exec.Pool.map pool (batch_chunk o dfa) parts)
      | _ -> batch_chunk o dfa rel_paths)

let equivalence (o : t) ~label ~context ~extent =
  let target = target_extent o label context in
  let in_ l n = List.exists (Node.equal n) l in
  let positives = List.filter (fun n -> not (in_ extent n)) target in
  let negatives = List.filter (fun n -> not (in_ target n)) extent in
  match positives, negatives with
  | [], [] -> Teacher.Equal
  | _ -> (
    let last l = List.nth l (List.length l - 1) in
    (* Best: positives first (they advance both learners), document
       order.  Worst: negatives first, last in document order. *)
    match o.strategy, positives, negatives with
    | Best, p :: _, _ -> Teacher.Counter { node = p; positive = true }
    | Best, [], n :: _ -> Teacher.Counter { node = n; positive = false }
    | Worst, _, _ :: _ -> Teacher.Counter { node = last negatives; positive = false }
    | Worst, _ :: _, [] -> Teacher.Counter { node = last positives; positive = true }
    | _, [], [] -> assert false)

let cb_queue (o : t) label =
  match Hashtbl.find_opt o.cb_queues label with
  | Some q -> q
  | None ->
    let task = task_of_label o label in
    let conds =
      (match task.Task.parent with
      | Some p -> Scenario.explicit_conds o.scenario p
      | None -> [])
      @ Scenario.explicit_conds o.scenario task.Task.node
    in
    let q = ref conds in
    Hashtbl.replace o.cb_queues label q;
    q

let condition_box (o : t) ~label ~context ~negative_example =
  ignore context;
  ignore negative_example;
  let q = cb_queue o label in
  match !q with
  | [] -> None
  | (cond, terminals) :: rest ->
    q := rest;
    let negative = match cond with Cond.Neg _ -> true | _ -> false in
    Some { Teacher.cond; terminals; negative }

let order_box (o : t) ~label = Task.order_by (task_of_label o label)

let create ?(strategy = Best) ?pool (scenario : Scenario.t) : t * Teacher.t =
  let ctx = Xl_xquery.Eval.make_ctx scenario.Scenario.store in
  (* the alphabet must cover the source schema, for R1 and shared DFAs *)
  List.iter
    (fun dtd ->
      List.iter
        (fun s -> ignore (Xl_automata.Alphabet.intern ctx.Xl_xquery.Eval.alphabet s))
        (Xl_schema.Dtd.path_symbols dtd))
    (Scenario.all_dtds scenario);
  let o =
    {
      scenario;
      ctx;
      strategy;
      path_dfas = Hashtbl.create 16;
      cb_queues = Hashtbl.create 16;
      extents = Hashtbl.create 64;
    }
  in
  let teacher =
    {
      Teacher.path_membership =
        (fun ~label ~context ~rel_path ->
          List.hd
            (path_membership_batch o ?pool ~label ~context ~rel_paths:[ rel_path ] ()));
      path_membership_batch =
        (fun ~label ~context ~rel_paths ->
          path_membership_batch o ?pool ~label ~context ~rel_paths ());
      equivalence = (fun ~label ~context ~extent -> equivalence o ~label ~context ~extent);
      condition_box =
        (fun ~label ~context ~negative_example ->
          condition_box o ~label ~context ~negative_example);
      order_box = (fun ~label -> order_box o ~label);
    }
  in
  (o, teacher)

(** The evaluation context the oracle uses (shared with the learner so
    path DFAs agree on the alphabet). *)
let eval_ctx (o : t) = o.ctx
