(** The differential properties (see the interface). *)

module Doc = Xl_xml.Doc
module Store = Xl_xml.Store
module Frag = Xl_xml.Frag
module Serialize = Xl_xml.Serialize
module Eval = Xl_xquery.Eval
module Value = Xl_xquery.Value
module Pe = Xl_xquery.Path_expr
module Validate = Xl_schema.Validate
module Alphabet = Xl_automata.Alphabet
module Dfa = Xl_automata.Dfa
module Regex = Xl_automata.Regex
module Learn = Xl_core.Learn
module Machine = Xl_core.Machine
module Task = Xl_core.Task
open Xl_xqtree

type bug = Drop_learned_cond | Widen_learned_path

type failure =
  | Invalid_document of string
  | Learning_raised of string
  | R1_unsound of string
  | Training_mismatch
  | Fresh_mismatch of int
  | Parity_mismatch
  | Unprepared_store_mismatch

let failure_to_string = function
  | Invalid_document s -> "Invalid_document: " ^ s
  | Learning_raised s -> "Learning_raised: " ^ s
  | R1_unsound s -> "R1_unsound: rejected in-language word " ^ s
  | Training_mismatch -> "Training_mismatch: learned query differs on the training document"
  | Fresh_mismatch i -> Printf.sprintf "Fresh_mismatch: learned query differs on fresh document %d" i
  | Parity_mismatch -> "Parity_mismatch: Eval and Ref_eval differ"
  | Unprepared_store_mismatch -> "Unprepared_store_mismatch: lazy and prepared stores differ"

let constructor_name = function
  | Invalid_document _ -> "Invalid_document"
  | Learning_raised _ -> "Learning_raised"
  | R1_unsound _ -> "R1_unsound"
  | Training_mismatch -> "Training_mismatch"
  | Fresh_mismatch _ -> "Fresh_mismatch"
  | Parity_mismatch -> "Parity_mismatch"
  | Unprepared_store_mismatch -> "Unprepared_store_mismatch"

(* ---- bug injection --------------------------------------------------- *)

let rec last_tag = function
  | Pe.Step (_, Pe.Tag t) -> Some t
  | Pe.Step (_, _) -> None
  | Pe.Seq (a, b) -> ( match last_tag b with Some t -> Some t | None -> last_tag a)
  | Pe.Alt (a, b) -> ( match last_tag a with Some t -> Some t | None -> last_tag b)
  | Pe.Star p -> last_tag p
  | Pe.Eps -> None

let inject (bug : bug) (learned : Xqtree.t) : Xqtree.t =
  let done_ = ref false in
  let rec go (n : Xqtree.node) =
    let n =
      if !done_ then n
      else
        match bug with
        | Drop_learned_cond -> (
          match n.Xqtree.conds with
          | _ :: rest ->
            done_ := true;
            { n with Xqtree.conds = rest }
          | [] -> n)
        | Widen_learned_path -> (
          match n.Xqtree.source with
          | Some (Xqtree.Abs (u, p)) -> (
            match last_tag p with
            | Some t ->
              done_ := true;
              { n with Xqtree.source = Some (Xqtree.Abs (u, Pe.desc (Pe.Tag t))) }
            | None -> n)
          | _ -> n)
    in
    { n with Xqtree.children = List.map go n.Xqtree.children }
  in
  go learned

(* ---- evaluation helpers ---------------------------------------------- *)

let value_to_string (v : Value.t) : string =
  String.concat "\n"
    (List.map
       (function
         | Value.Node n -> Serialize.node_to_string n
         | Value.Atom a -> Value.atom_to_string a)
       v)

let eval_to_string (t : Xqtree.t) (store : Store.t) : string =
  value_to_string (Eval.run (Eval.make_ctx store) (Xqtree.to_ast t))

let ref_eval_to_string (t : Xqtree.t) (store : Store.t) : string =
  value_to_string (Ref_eval.run (Eval.make_ctx store) (Xqtree.to_ast t))

let validate_frag dtd ~what frag =
  let doc = Doc.of_frag ~uri:(what ^ ".xml") frag in
  match Validate.validate dtd doc with
  | [] -> None
  | v :: _ ->
    Some (Invalid_document (Printf.sprintf "%s: %s" what (Validate.describe v)))

(* ground truth for R1 soundness, part 1: can this word occur as a
   root path of some document of the generated (recursion-free) DTD?
   Computed from first principles — root-path enumeration plus one
   attribute/#text extension — independently of the automata R1 uses. *)
let schema_realizable (g : Gen_dtd.t) (word : string list) : bool =
  let dtd = g.Gen_dtd.dtd in
  let elem_paths = Gen_dtd.root_paths g in
  let is_elem_path p = List.mem p elem_paths in
  let owner_of prefix =
    match List.rev prefix with
    | [] -> None
    | e :: _ -> Xl_schema.Dtd.find dtd e
  in
  match List.rev word with
  | [] -> false
  | last :: rev_prefix ->
    let prefix = List.rev rev_prefix in
    if String.length last > 0 && last.[0] = '@' then
      let name = String.sub last 1 (String.length last - 1) in
      is_elem_path prefix
      && (match owner_of prefix with
         | Some el ->
           List.exists
             (fun a -> String.equal a.Xl_schema.Dtd.att_name name)
             el.Xl_schema.Dtd.atts
         | None -> false)
    else if String.equal last "#text" then
      is_elem_path prefix
      && (match owner_of prefix with
         | Some el -> ( match el.Xl_schema.Dtd.content with
           | Xl_schema.Content_model.Mixed _ -> true
           | _ -> false)
         | None -> false)
    else is_elem_path word

(* ground truth for R1 soundness, part 2: the target path language per
   task, as a language of *absolute* paths ([on_auto] reports the path
   R1 actually judged, anchor prefix included), composed by threading
   each Rel source through its ancestors' sources.  R1 is sound iff it
   never rejects a word that is both schema-realizable and in the
   task's absolute target language. *)
let target_dfas (case : Case.t) (store : Store.t) :
    (string * (Alphabet.t * Dfa.t)) list =
  let ctx = Eval.make_ctx store in
  let alphabet = ctx.Eval.alphabet in
  let labelled = ref [] in
  let rec collect inherited (n : Xqtree.node) =
    let here =
      match n.Xqtree.source with
      | Some (Xqtree.Abs (_, p)) -> Some p
      | Some (Xqtree.Rel p) -> (
        match inherited with Some q -> Some (Pe.Seq (q, p)) | None -> Some p)
      | None -> inherited
    in
    (match n.Xqtree.var, here with
    | Some _, Some p -> labelled := (n.Xqtree.label, p) :: !labelled
    | _ -> ());
    List.iter (collect here) n.Xqtree.children
  in
  collect None case.Case.target;
  (* a // in a target path ranges over every schema symbol, so the
     alphabet must cover them all before any DFA is compiled *)
  List.iter
    (fun s -> ignore (Alphabet.intern alphabet s))
    (Xl_schema.Dtd.path_symbols case.Case.gen.Gen_dtd.dtd);
  List.iter (fun (_, p) -> Eval.intern_path_symbols alphabet p) !labelled;
  List.map
    (fun (label, p) ->
      let d =
        Regex.to_dfa ~alphabet_size:(Alphabet.size alphabet)
          (Pe.to_regex alphabet p)
      in
      (label, (alphabet, d)))
    !labelled

(* ---- the property ---------------------------------------------------- *)

let check ?bug ?(fresh = 3) (case : Case.t) : failure option =
  let dtd = case.Case.gen.Gen_dtd.dtd in
  let target = case.Case.target in
  (* 1: generated documents really are valid *)
  let invalid =
    match validate_frag dtd ~what:"training" case.Case.training with
    | Some f -> Some f
    | None ->
      List.find_map
        (fun i -> validate_frag dtd ~what:(Printf.sprintf "fresh-%d" i) (Case.fresh_doc case i))
        (List.init fresh Fun.id)
  in
  match invalid with
  | Some f -> Some f
  | None -> (
    (* 2: evaluator parity and store-preparation parity on the target *)
    let prepared = Case.store_of ~prepare:true case in
    let out_fast = eval_to_string target prepared in
    if not (String.equal out_fast (ref_eval_to_string target prepared)) then
      Some Parity_mismatch
    else
      let lazy_store = Case.store_of ~prepare:false case in
      let out_lazy = eval_to_string target lazy_store in
      if not (String.equal out_fast out_lazy) then Some Unprepared_store_mismatch
      else begin
        (* 3: learn, recording R1 auto-answers *)
        let scenario = Case.scenario case in
        let r1_rejects = ref [] in
        let on_auto ~label ~rule ~path ~answer =
          ignore answer;
          match rule with
          | `R1 -> r1_rejects := (label, path) :: !r1_rejects
          | `R2 -> ()
        in
        (* the harness's simulated teacher is an explicit loop over the
           learner state machine: each question is answered with the
           machine's own oracle and fed back through [Machine.step] *)
        let learn_stepwise () =
          let m = Machine.start ~on_auto scenario in
          let teacher = Machine.oracle_teacher m in
          let rec loop m =
            match Machine.outcome m with
            | `Done r -> r
            | `Ask q ->
              let _, m' = Machine.step m (Machine.answer_with teacher q) in
              loop m'
          in
          loop m
        in
        match
          try Ok (learn_stepwise ()) with
          | Learn.Learning_failed m -> Error ("Learning_failed: " ^ m)
          | e -> Error (Printexc.to_string e)
        with
        | Error m -> Some (Learning_raised m)
        | Ok r -> (
          (* 4: R1 soundness against the target path languages *)
          let dfas = target_dfas case scenario.Xl_core.Scenario.store in
          let unsound =
            List.find_map
              (fun (label, word) ->
                if not (schema_realizable case.Case.gen word) then None
                else
                  match List.assoc_opt label dfas with
                  | None -> None
                  | Some (alphabet, dfa) -> (
                    match Alphabet.encode_opt alphabet word with
                    | None -> None
                    | Some w ->
                      if Dfa.accepts dfa w then
                        Some
                          (R1_unsound
                             (Printf.sprintf "%s at %s" (String.concat "/" word) label))
                      else None))
              !r1_rejects
          in
          match unsound with
          | Some f -> Some f
          | None ->
            (* 5: differential equivalence, training then fresh *)
            let learned =
              match bug with
              | None -> r.Learn.learned
              | Some b -> inject b r.Learn.learned
            in
            let differs store =
              not
                (String.equal (eval_to_string target store)
                   (eval_to_string learned store))
            in
            if differs prepared then Some Training_mismatch
            else
              List.find_map
                (fun i ->
                  let store =
                    Store.of_docs
                      [ Doc.of_frag ~uri:"fuzz.xml" (Case.fresh_doc case i) ]
                  in
                  Store.prepare store;
                  if differs store then Some (Fresh_mismatch i) else None)
                (List.init fresh Fun.id))
      end)
