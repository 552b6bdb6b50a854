(** Fuzz-case generation and admission (see the interface). *)

module Prng = Xl_workload.Prng
module Doc = Xl_xml.Doc
module Store = Xl_xml.Store
module Frag = Xl_xml.Frag
module Eval = Xl_xquery.Eval
module Env = Xl_xquery.Env
module Value = Xl_xquery.Value
module Pe = Xl_xquery.Path_expr
open Xl_xqtree

type t = {
  seed : int;
  index : int;
  gen : Gen_dtd.t;
  training : Frag.t;
  target : Xqtree.t;
  fallback : bool;
}

(* ---- admission ------------------------------------------------------- *)

let bases_of ctx doc base (n : Xqtree.node) =
  match n.Xqtree.source with
  | Some (Xqtree.Abs (_, p)) -> Eval.eval_path ctx p (Doc.doc_node doc)
  | Some (Xqtree.Rel p) -> (
    match base with Some b -> Eval.eval_path ctx p b | None -> [])
  | None -> []

let conds_hold ctx env (n : Xqtree.node) =
  match Cond.to_exprs n.Xqtree.conds with
  | None -> true
  | Some e -> ( try Value.to_bool (Eval.eval ctx env e) with _ -> false)

(* a consistent drop walk from [env]/[base] down [n]: one binding per
   variable node such that every nested node keeps a non-empty
   conditioned extent *)
let rec sat ctx doc env base (n : Xqtree.node) =
  match n.Xqtree.var with
  | Some v ->
    List.exists
      (fun nd ->
        let env' = Env.bind env v (Value.of_node nd) in
        conds_hold ctx env' n
        && List.for_all (sat ctx doc env' (Some nd)) n.Xqtree.children)
      (bases_of ctx doc base n)
  | None -> List.for_all (sat ctx doc env base) n.Xqtree.children

let walk_exists ctx doc (t : Xqtree.t) : bool = sat ctx doc Env.empty None t

(* Identifiability along the canonical drop walk (the first consistent
   one in extent order — what the simulated drag-and-drop phase picks):
   every absolute-source task nested under another variable must have a
   conditioned extent reaching outside every context node's subtree.
   Otherwise the learner can anchor the fragment relative to a context
   node; that answer is extent-equivalent on the training instance —
   the teacher has no counterexample to offer — yet diverges on fresh
   documents, so the fresh-document property would blame a correct
   learner. *)
let identifiable ctx doc (t : Xqtree.t) : bool =
  let outside cn e = Xl_core.Extent.rel_path ~base:cn e = None in
  let rec go env ctx_nodes base (n : Xqtree.node) : bool =
    match n.Xqtree.var with
    | None -> List.for_all (go env ctx_nodes base) n.Xqtree.children
    | Some v ->
      let ext =
        List.filter
          (fun nd -> conds_hold ctx (Env.bind env v (Value.of_node nd)) n)
          (bases_of ctx doc base n)
      in
      let chosen =
        List.find_opt
          (fun nd ->
            let env' = Env.bind env v (Value.of_node nd) in
            List.for_all (sat ctx doc env' (Some nd)) n.Xqtree.children)
          ext
      in
      (match chosen with
      | None -> false
      | Some nd ->
        let forced_absolute =
          match n.Xqtree.source with
          | Some (Xqtree.Abs _) when ctx_nodes <> [] ->
            List.exists
              (fun e -> List.for_all (fun c -> outside c e) ctx_nodes)
              ext
          | _ -> true
        in
        forced_absolute
        &&
        let env' = Env.bind env v (Value.of_node nd) in
        List.for_all (go env' (nd :: ctx_nodes) (Some nd)) n.Xqtree.children)
  in
  go Env.empty [] None t

(* global satisfying-binding count per variable-node label *)
let extent_counts ctx doc (t : Xqtree.t) : (string * int) list =
  let counts = Hashtbl.create 8 in
  let bump l =
    Hashtbl.replace counts l
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
  in
  let rec go env base (n : Xqtree.node) =
    match n.Xqtree.var with
    | Some v ->
      List.iter
        (fun nd ->
          let env' = Env.bind env v (Value.of_node nd) in
          if conds_hold ctx env' n then begin
            bump n.Xqtree.label;
            List.iter (go env' (Some nd)) n.Xqtree.children
          end)
        (bases_of ctx doc base n)
    | None -> List.iter (go env base) n.Xqtree.children
  in
  go Env.empty None t;
  List.map
    (fun n -> (n.Xqtree.label, Option.value ~default:0 (Hashtbl.find_opt counts n.Xqtree.label)))
    (Xqtree.var_nodes t)

(* ---- condition identifiability --------------------------------------- *)

module Cond_enum = Xl_core.Cond_enum
module Data_graph = Xl_core.Data_graph

(* the canonical drop walk: the first consistent binding per variable
   node, recorded with the ancestor bindings seen on the way — mirrors
   what the simulated drag-and-drop phase picks *)
let canonical_walk ctx doc (t : Xqtree.t) :
    (string * ((string * Xl_xml.Node.t) list * Xl_xml.Node.t)) list =
  let out = ref [] in
  let rec go env cb base (n : Xqtree.node) =
    match n.Xqtree.var with
    | Some v -> (
      let ext =
        List.filter
          (fun nd -> conds_hold ctx (Env.bind env v (Value.of_node nd)) n)
          (bases_of ctx doc base n)
      in
      match
        List.find_opt
          (fun nd ->
            let env' = Env.bind env v (Value.of_node nd) in
            List.for_all (sat ctx doc env' (Some nd)) n.Xqtree.children)
          ext
      with
      | None -> ()
      | Some nd ->
        out := (n.Xqtree.label, (cb, nd)) :: !out;
        let env' = Env.bind env v (Value.of_node nd) in
        List.iter (go env' (cb @ [ (v, nd) ]) (Some nd)) n.Xqtree.children)
    | None -> List.iter (go env cb base) n.Xqtree.children
  in
  go Env.empty [] None t;
  !out

(* visit every variable node under every context assignment the target
   semantics produce: [f node ancestor_bindings bases conditioned_extent] *)
let fold_contexts ctx doc (t : Xqtree.t)
    (f :
      Xqtree.node ->
      (string * Xl_xml.Node.t) list ->
      Xl_xml.Node.t list ->
      Xl_xml.Node.t list ->
      unit) : unit =
  let rec go env cb base (n : Xqtree.node) =
    match n.Xqtree.var with
    | Some v ->
      let bases = bases_of ctx doc base n in
      let ext =
        List.filter
          (fun nd -> conds_hold ctx (Env.bind env v (Value.of_node nd)) n)
          bases
      in
      f n cb bases ext;
      List.iter
        (fun nd ->
          let env' = Env.bind env v (Value.of_node nd) in
          List.iter (go env' (cb @ [ (v, nd) ]) (Some nd)) n.Xqtree.children)
        ext
    | None -> List.iter (go env cb base) n.Xqtree.children
  in
  go Env.empty [] None t

(* Condition identifiability.  The teacher is instance-bound: any
   conjunction of candidate conditions that selects the intended extent
   in every context of the training document is a correct answer the
   teacher cannot object to, and the learner is free to return any
   minimal such conjunction.  The case is a sound differential test only
   when ALL of them agree with the target on the fresh documents too.

   Characterization.  Let the survivors be the enumerated candidates of
   the canonical drop that hold on every intended-extent member of every
   training context (no correct conjunction can contain anything else,
   and membership never rules one out).  A learned conjunction is
   exactly a hitting set over the training "blocker sets" — for each
   training non-member (not already excluded by an explicit
   Condition-Box predicate, which the teacher states verbatim), the set
   of survivors that fail on it.  Every hitting set behaves like the
   target on a fresh instance iff

   - every survivor holds on every fresh intended-extent member (else
     some conjunction is too strong), and
   - every fresh non-member's blocker set contains some training
     blocker set (else the transversal avoiding the fresh blockers is a
     correct answer that wrongly selects the node). *)
let conds_identifiable ctx doc store (target : Xqtree.t)
    (fresh : Frag.t list) : bool =
  let var_nodes =
    List.filter (fun (n : Xqtree.node) -> n.Xqtree.conds <> []) (Xqtree.var_nodes target)
  in
  let split_conds (n : Xqtree.node) =
    List.partition (Xl_core.Scenario.is_explicit_cond target n) n.Xqtree.conds
  in
  if
    List.for_all
      (fun n -> match split_conds n with _, [] -> true | _ -> false)
      var_nodes
  then true
  else begin
    let holds ctx cb v nd c =
      Xl_core.Extent.holds
        (Xl_core.Extent.verdicts ctx cb ~bind:(fun nd -> [ (v, nd) ]))
        c nd
    in
    let walk = canonical_walk ctx doc target in
    let dg = Data_graph.build store in
    let info =
      List.filter_map
        (fun (n : Xqtree.node) ->
          let explicit, learnable = split_conds n in
          if learnable = [] then None
          else
            match List.assoc_opt n.Xqtree.label walk with
            | None -> None
            | Some (cb, dropped) ->
              let v = Option.get n.Xqtree.var in
              let cands =
                List.fold_left
                  (fun acc c ->
                    if List.exists (Cond.equal c) acc then acc else acc @ [ c ])
                  []
                  (Cond_enum.candidates dg cb ~ve:v dropped)
              in
              let survivors = ref cands in
              fold_contexts ctx doc target (fun m cb' _bases ext ->
                  if String.equal m.Xqtree.label n.Xqtree.label then
                    List.iter
                      (fun nd ->
                        survivors :=
                          List.filter (fun c -> holds ctx cb' v nd c) !survivors)
                      ext);
              Some (n.Xqtree.label, (v, !survivors, explicit)))
        var_nodes
    in
    let failing ctx cb v nd survivors =
      List.concat
        (List.mapi
           (fun i c -> if holds ctx cb v nd c then [] else [ i ])
           survivors)
    in
    let member ext nd =
      List.exists (fun m -> m.Xl_xml.Node.id = nd.Xl_xml.Node.id) ext
    in
    (* training pass: blocker sets per query node, and the conjunction
       must be able to exclude every non-member at all *)
    let blockers : (string, int list) Hashtbl.t = Hashtbl.create 8 in
    let ok = ref true in
    fold_contexts ctx doc target (fun n cb bases ext ->
        match List.assoc_opt n.Xqtree.label info with
        | None -> ()
        | Some (v, survivors, explicit) ->
          List.iter
            (fun nd ->
              if
                (not (member ext nd))
                && List.for_all (holds ctx cb v nd) explicit
              then begin
                match failing ctx cb v nd survivors with
                | [] -> ok := false
                | b -> Hashtbl.add blockers n.Xqtree.label b
              end)
            bases);
    let fresh_ok frag =
      let doc' = Doc.of_frag ~uri:"fuzz.xml" frag in
      let ctx' = Eval.make_ctx (Store.of_docs [ doc' ]) in
      let ok = ref true in
      fold_contexts ctx' doc' target (fun n cb bases ext ->
          match List.assoc_opt n.Xqtree.label info with
          | None -> ()
          | Some (v, survivors, explicit) ->
            List.iter
              (fun nd ->
                if member ext nd then begin
                  if not (List.for_all (holds ctx' cb v nd) survivors) then
                    ok := false
                end
                else if List.for_all (holds ctx' cb v nd) explicit then begin
                  let bf = failing ctx' cb v nd survivors in
                  let covered =
                    List.exists
                      (fun bt -> List.for_all (fun i -> List.mem i bf) bt)
                      (Hashtbl.find_all blockers n.Xqtree.label)
                  in
                  if not covered then ok := false
                end)
              bases);
      !ok
    in
    !ok && List.for_all fresh_ok fresh
  end

let drop_cond label i (t : Xqtree.t) : Xqtree.t =
  let rec go (n : Xqtree.node) =
    let conds =
      if String.equal n.Xqtree.label label then
        List.filteri (fun j _ -> j <> i) n.Xqtree.conds
      else n.Xqtree.conds
    in
    { n with Xqtree.conds; children = List.map go n.Xqtree.children }
  in
  go t

let admissible ?(fresh = []) (training : Frag.t) (target : Xqtree.t) : bool =
  Classes.in_class target Classes.X1_star_plus_E
  &&
  let doc = Doc.of_frag ~uri:"fuzz.xml" training in
  let store = Store.of_docs [ doc ] in
  let ctx = Eval.make_ctx store in
  walk_exists ctx doc target
  && identifiable ctx doc target
  && conds_identifiable ctx doc store target fresh
  &&
  let base_counts = extent_counts ctx doc target in
  List.for_all
    (fun (n : Xqtree.node) ->
      let own lbl counts = Option.value ~default:0 (List.assoc_opt lbl counts) in
      let with_conds = own n.Xqtree.label base_counts in
      with_conds >= 1
      && List.for_all
           (fun i ->
             let without =
               extent_counts ctx doc (drop_cond n.Xqtree.label i target)
             in
             own n.Xqtree.label without > with_conds)
           (List.init (List.length n.Xqtree.conds) Fun.id))
    (Xqtree.var_nodes target)

(* ---- generation ------------------------------------------------------ *)

let case_base ~seed ~index = Prng.split (Prng.create ~seed) index
let max_attempts = 30

let fallback_target (g : Gen_dtd.t) : Xqtree.t =
  let p =
    match
      List.filter (fun p -> List.length p >= 2) (Gen_dtd.root_paths g)
    with
    | p :: _ -> p
    | [] -> [ Xl_schema.Dtd.root g.Gen_dtd.dtd ]
  in
  let e = List.nth p (List.length p - 1) in
  Xqtree.make ~tag:"results" "N1"
    ~children:
      [ Xqtree.make ~tag:e ~var:"v1" ~source:(Xqtree.Abs (None, Pe.steps p)) "N1.1" ]

let generate ~seed ~index : t =
  let rng = Prng.split (case_base ~seed ~index) 0 in
  let rec attempt k =
    let g = Gen_dtd.generate rng in
    let training = Gen_doc.generate ~mode:`Covering rng g in
    if k = 0 then
      { seed; index; gen = g; training; target = fallback_target g; fallback = true }
    else
      let target = Gen_query.generate rng g in
      let fresh =
        List.init 3 (fun i ->
            Gen_doc.generate ~mode:`Random
              (Prng.split (case_base ~seed ~index) (1 + i))
              g)
      in
      if admissible ~fresh training target then
        { seed; index; gen = g; training; target; fallback = false }
      else attempt (k - 1)
  in
  attempt max_attempts

let fresh_doc (t : t) (i : int) : Frag.t =
  let rng = Prng.split (case_base ~seed:t.seed ~index:t.index) (1 + i) in
  Gen_doc.generate ~mode:`Random rng t.gen

(* ---- packaging ------------------------------------------------------- *)

let store_of (t : t) : Store.t =
  Store.of_docs [ Doc.of_frag ~uri:"fuzz.xml" t.training ]

let scenario (t : t) : Xl_core.Scenario.t =
  let store = store_of t in
  Xl_core.Scenario.make
    ~description:
      (Printf.sprintf "fuzz case %d of seed %d%s" t.index t.seed
         (if t.fallback then " (fallback)" else ""))
    ~source_dtd:t.gen.Gen_dtd.dtd ~store ~target:t.target
    (Printf.sprintf "fuzz-%d-%d" t.seed t.index)

let to_string (t : t) : string =
  Printf.sprintf
    "fuzz case: seed=%d index=%d%s\n\
     -- replay: bench/main.exe fuzz --seed %d --cases %d --only %d\n\
     -- source DTD --\n\
     %s\n\
     -- training document (%d element nodes) --\n\
     %s\n\
     -- target query --\n\
     %s"
    t.seed t.index
    (if t.fallback then " fallback" else "")
    t.seed (t.index + 1) t.index
    (Xl_schema.Dtd.to_string t.gen.Gen_dtd.dtd)
    (Frag.size t.training)
    (Xl_xml.Serialize.frag_to_pretty_string t.training)
    (Xqtree.to_listing t.target)
