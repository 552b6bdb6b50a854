(* Parity tests for the evaluator: {!Eval} (frozen scan, extent cache,
   hash joins and semi-joins) must be observationally equivalent to the
   nested-loop, pointer-walk reference {!Xl_fuzz.Ref_eval} — same node
   sequences (ids and order) on every benchmark query — and the learner
   must reproduce every committed Figure-16 interaction row.

   The sweeps fan out on a {!Xl_exec.Pool}: each work item (a query, or a
   whole scenario run) is checked inside a worker domain and reduced to a
   comparable string; the Alcotest assertions run afterwards on the main
   domain.  Stores are complete at construction, so work items share
   them read-only straight away. *)

open Xl_xquery
module Xml = Xl_xml

let pool = Xl_exec.Pool.create ()

(* A result fingerprint that is stable across evaluation strategies:
   store-resident nodes print as their id (identity + order check),
   constructed nodes — whose ids are fresh per evaluation — print as
   their serialized form. *)
let fingerprint (store : Xml.Store.t) (v : Value.t) : string =
  String.concat "|"
    (List.map
       (fun (it : Value.item) ->
         match it with
         | Value.Node n -> (
           match Xml.Store.frozen_of_node store n with
           | Some (fz, p) when Xml.Frozen.node fz p == n -> Printf.sprintf "#%d" n.Xml.Node.id
           | _ -> "C:" ^ Xml.Serialize.node_to_string n)
         | Value.Atom a -> "A:" ^ Value.atom_to_string a)
       v)

(* Evaluate every query under both evaluators — concurrently, one worker
   per query, each with its own pair of contexts (evaluation contexts
   carry mutable caches and must stay domain-confined) — then compare
   fingerprints (or exception messages, when both raise). *)
let check_query_parity ~suite (store : Xml.Store.t)
    (queries : (string * string) list) =
  let outcomes =
    Xl_exec.Pool.map pool
      (fun (qid, text) ->
        let label = Printf.sprintf "%s/%s" suite qid in
        let ast = Parser.parse text in
        let run eval =
          match eval (Eval.make_ctx store) ast with
          | v -> Ok (fingerprint store v)
          | exception e -> Error (Printexc.to_string e)
        in
        (label, run (Eval.run ?env:None), run (Xl_fuzz.Ref_eval.run ?env:None)))
      queries
  in
  List.iter
    (fun (label, got, reference) ->
      match (got, reference) with
      | Ok a, Ok b -> Alcotest.(check string) label b a
      | Error a, Error b -> Alcotest.(check string) (label ^ " (raises)") b a
      | Ok _, Error e ->
        Alcotest.failf "%s: the reference raised %s but Eval succeeded"
          label e
      | Error e, Ok _ ->
        Alcotest.failf "%s: Eval raised %s but the reference succeeded"
          label e)
    outcomes

let test_xmark_parity () =
  List.iter
    (fun seed ->
      let doc =
        Xl_workload.Xmark_gen.generate ~seed Xl_workload.Xmark_gen.tiny_scale
      in
      let store = Xml.Store.of_docs [ doc ] in
      check_query_parity
        ~suite:(Printf.sprintf "xmark-seed%d" seed)
        store
        (List.map
           (fun (q : Xl_workload.Xmark_queries.query) -> (q.id, q.text))
           Xl_workload.Xmark_queries.all))
    [ 1; 2; 3 ]

let test_xmp_parity () =
  let store = Xl_workload.Xmp_data.store () in
  check_query_parity ~suite:"xmp" store
    (List.map
       (fun (q : Xl_workload.Xmp_queries.query) -> (q.id, q.text))
       Xl_workload.Xmp_queries.all)

(* The randomized fuzz corpus sweeps far more DTD/document/query shapes
   through the hash joins than the paper suites do; a fixed 25-seed
   slice keeps the sweep deterministic.  Each worker generates its case,
   evaluates the target query under both evaluators on its own store
   and reduces to a serialized form (node-identity free, so the
   comparison is meaningful across separately built stores). *)
let test_fuzz_corpus_parity () =
  let outcomes =
    Xl_exec.Pool.map pool
      (fun index ->
        let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
        let store = Xl_fuzz.Case.store_of case in
        let target = case.Xl_fuzz.Case.target in
        ( index,
          Xl_fuzz.Props.eval_to_string target store,
          Xl_fuzz.Props.ref_eval_to_string target store ))
      (List.init 25 Fun.id)
  in
  List.iter
    (fun (index, got, reference) ->
      Alcotest.(check string)
        (Printf.sprintf "fuzz case %d Eval vs Ref_eval" index)
        reference got)
    outcomes

(* ---------- quantifier semi-join ------------------------------------------ *)

(* Keys chosen to stress the semi-join's superset filter: numeric and
   string coercion ("1", "1.0", "01", the number 1), NaN, missing and
   multi-valued keys, and witnesses that meet a key but fail the rest of
   the body (a relay_conds-style [<] residual). *)
let semi_xml =
  {|<r>
      <a k="1"/><a k="1.0"/><a k="01"/><a k="x"/><a k="NaN"/><a k="5"/><a/>
      <a><k>7</k><k>x</k></a>
      <w p="1" q="9"/><w p="01" q="2"/><w p="x" q="1"/><w p="NaN" q="1"/>
      <w q="1"/><w p="1.0" q="3"/><w p="5" q="9"/>
      <w><p>7</p><p>y</p><q>1</q></w>
    </r>|}

let ka = "data(($a/@k, $a/k))"
let kw = "data(($w/@p, $w/p))"
let qw = "data(($w/@q, $w/q))"
let per_a body = Printf.sprintf "for $a in /r/a return <o>{%s}</o>" body

(* (id, query, Eval's expected branch: [true] semi-join) *)
let semi_queries =
  [
    ("build-left", per_a (Printf.sprintf "some $w in /r/w satisfies %s = %s" kw ka), true);
    ("build-right", per_a (Printf.sprintf "some $w in /r/w satisfies %s = %s" ka kw), true);
    ( "lt-residual",
      per_a (Printf.sprintf "some $w in /r/w satisfies %s = %s and %s < 3" ka kw qw),
      true );
    ( "residual-first",
      per_a (Printf.sprintf "some $w in /r/w satisfies %s < 3 and %s = %s" qw kw ka),
      true );
    ( "relay-shape",
      per_a
        (Printf.sprintf "some $w in /r/w satisfies %s = data($w/@p) and %s = %s" ka qw ka),
      true );
    ( "literal-probes",
      {|for $s in ("1", "1.0", "01", 1, "x", "NaN", "") return <o>{some $w in /r/w satisfies data($w/@p) = $s}</o>|},
      true );
    ( "nan-literal",
      {|<o>{some $w in /r/w satisfies data($w/@p) = "NaN"}</o>|},
      true );
    ( "in-flwor-where",
      Printf.sprintf "for $a in /r/a where some $w in /r/w satisfies %s = %s return $a" kw ka,
      true );
    ( "empty-source",
      per_a (Printf.sprintf "some $w in /r/none satisfies %s = %s" kw ka),
      true );
    ( "impure-body",
      per_a (Printf.sprintf "some $w in /r/w satisfies %s = %s and %s + 0 < 3" ka kw qw),
      false );
    ( "impure-body-raises",
      per_a (Printf.sprintf "some $w in /r/w satisfies %s = %s and data($w/@q) + 0 < 3" ka kw),
      false );
    ("every", per_a (Printf.sprintf "every $w in /r/w satisfies %s = %s" kw ka), false);
    ( "two-bindings",
      per_a
        (Printf.sprintf
           "some $w in /r/w, $v in /r/a satisfies %s = data($v/@k) and data($v/@k) = %s"
           kw ka),
      false );
    ( "open-source",
      per_a (Printf.sprintf "some $w in (/r/w, $a) satisfies %s = %s" kw ka),
      false );
    ( "key-mentions-outer",
      per_a (Printf.sprintf "some $w in /r/w satisfies data(($w/@p, $a/@k)) = %s" ka),
      false );
  ]

let quant_counter name =
  match Xl_obs.Obs.Counter.find name with
  | Some c -> Xl_obs.Obs.Counter.value c
  | None -> 0

(* (semi-joins, nested loops, bodies evaluated) of one evaluation; the
   reference evaluator only counts bodies *)
let with_quant_counts f =
  Xl_obs.Obs.reset ();
  Xl_obs.Obs.set_enabled true;
  let v = Fun.protect ~finally:(fun () -> Xl_obs.Obs.set_enabled false) f in
  ( v,
    ( quant_counter "eval_quant_semi_join",
      quant_counter "eval_quant_nested",
      quant_counter "eval_quant_witnesses"
      + quant_counter "ref_eval_quant_witnesses" ) )

let test_semi_join_parity () =
  let store =
    Xml.Store.of_docs [ Xml.Xml_parser.parse_doc ~uri:"semi.xml" semi_xml ]
  in
  check_query_parity ~suite:"semi-join" store
    (List.map (fun (id, q, _) -> (id, q)) semi_queries);
  (* the branch each query takes in Eval *)
  List.iter
    (fun (id, q, semi) ->
      let ast = Parser.parse q in
      let run () =
        try ignore (Eval.run (Eval.make_ctx store) ast)
        with Eval.Type_error _ -> ()
      in
      let (), (s, n, _) = with_quant_counts run in
      Alcotest.(check bool) (id ^ ": semi-join planned") semi (s > 0);
      Alcotest.(check bool) (id ^ ": no mixed branches") true (s = 0 || n = 0))
    semi_queries

(* Every Rel3 candidate the C-Learner enumerates on the tiny XMark
   instance, evaluated as a condition over every (person, item) pair,
   must agree between the semi-join and the reference's nested loop. *)
let test_semi_join_rel3_candidates () =
  let doc = Xl_workload.Xmark_gen.generate ~seed:1 Xl_workload.Xmark_gen.tiny_scale in
  let store = Xml.Store.of_docs [ doc ] in
  let dg = Xl_core.Data_graph.build store in
  let ctx = Eval.make_ctx store in
  let nodes q = Value.nodes_of (Eval.run ctx (Parser.parse q)) in
  let persons = nodes "/site/people/person" in
  let items = nodes "/site/regions//item" in
  let relays =
    List.fold_left
      (fun acc (p, i) ->
        List.fold_left
          (fun acc (c : Xl_xqtree.Cond.t) ->
            match c with
            | Xl_xqtree.Cond.Relay _ when not (List.exists (Xl_xqtree.Cond.equal c) acc) ->
              c :: acc
            | _ -> acc)
          acc
          (Xl_core.Cond_enum.candidates dg [ ("p", p) ] ~ve:"i" i))
      []
      (List.concat_map (fun p -> List.map (fun i -> (p, i)) items) persons)
  in
  Alcotest.(check bool) "the instance yields Rel3 candidates" true (relays <> []);
  let frame =
    match
      Parser.parse
        "for $p in /site/people/person, $i in /site/regions//item return 1"
    with
    | Ast.Flwor f -> f
    | _ -> assert false
  in
  let outcomes =
    List.map
      (fun c ->
        let ast = Ast.Flwor { frame with Ast.return = Xl_xqtree.Cond.to_expr c } in
        let run eval =
          with_quant_counts (fun () ->
              fingerprint store (eval (Eval.make_ctx store) ast))
        in
        ( Xl_xqtree.Cond.to_string c,
          run (Eval.run ?env:None),
          run (Xl_fuzz.Ref_eval.run ?env:None) ))
      relays
  in
  List.iter
    (fun (label, (got, (semi, _, _)), (reference, _)) ->
      Alcotest.(check string) label reference got;
      Alcotest.(check bool) (label ^ ": answered by probe") true (semi > 0))
    outcomes

(* Counts, not time: on the Q9 target, the semi-join evaluates a body
   per (person, item) pair and matching auction, so growing the instance
   4x grows the bodies evaluated by about persons x items (16x); the
   nested loop grows by persons x items x closed auctions (64x). *)
let test_semi_join_scaling () =
  let q9 ?scale ?streamed () =
    List.assoc "Q9" (Xl_workload.Xmark_scenarios.all ?scale ?streamed ())
  in
  let count (sc : Xl_core.Scenario.t) run_to_string =
    let store = sc.Xl_core.Scenario.store in
    let ast = Xl_xqtree.Xqtree.to_ast sc.Xl_core.Scenario.target in
    with_quant_counts (fun () -> run_to_string (Eval.make_ctx store) ast)
  in
  let eval = Eval.run_to_string ?env:None
  and reference = Xl_fuzz.Ref_eval.run_to_string ?env:None in
  let x1 = q9 () in
  let x4 = q9 ~scale:(Xl_workload.Xmark_gen.scale_factor 4) ~streamed:true () in
  let r1, (q1, _, w1) = count x1 eval in
  let r4, (q4, _, w4) = count x4 eval in
  let n1, (_, _, nw1) = count x1 reference in
  let n4, (_, _, nw4) = count x4 reference in
  Alcotest.(check string) "1x result, semi-join vs nested loop" n1 r1;
  Alcotest.(check string) "4x result, semi-join vs nested loop" n4 r4;
  Alcotest.(check int) "quantifiers grow with persons x items" (16 * q1) q4;
  if w4 > 24 * w1 then
    Alcotest.failf "semi-join bodies grew %d -> %d (%.1fx), over ~16x" w1 w4
      (float_of_int w4 /. float_of_int w1);
  if nw4 < 48 * nw1 then
    Alcotest.failf "nested-loop bodies grew %d -> %d, expected ~64x" nw1 nw4;
  (* learning Q9 on the larger instance asks the same questions *)
  let row sc = Xl_core.Stats.to_row (Xl_core.Learn.run sc).Xl_core.Learn.stats in
  Alcotest.(check string) "Q9 row at 4x equals 1x" (row x1) (row x4)

(* ---------- identity semi-join ------------------------------------------- *)

(* [is] conjuncts are planned like [=] ones, keyed on node ids.  Q2's
   condition is the first bidder's increase of some open auction; the
   same shape as a FLWOR join, and the atoms, attributes and constructed
   nodes that meet no node id, on every tiny instance. *)
let identity_queries =
  let first = "$b/bidder[1]/increase" in
  [
    ( "q2-some",
      Printf.sprintf
        "for $inc in /site/open_auctions/open_auction/bidder/increase where some $b in /site/open_auctions/open_auction satisfies $inc is %s return $inc"
        first );
    ( "q2-some-build-left",
      Printf.sprintf
        "for $inc in /site/open_auctions/open_auction/bidder/increase return <o>{some $b in /site/open_auctions/open_auction satisfies %s is $inc}</o>"
        first );
    ( "flwor-join",
      Printf.sprintf
        "for $inc in /site/open_auctions/open_auction/bidder/increase, $b in /site/open_auctions/open_auction where $inc is %s return <o>{$inc}{$b/@id}</o>"
        first );
    ( "join-with-residual",
      "for $p in /site/people/person, $q in /site/people/person where $p is $q and exists($p/@id) return $q/@id"
    );
    ( "atom-probe",
      "for $inc in /site/open_auctions/open_auction/bidder/increase return <o>{some $b in /site/open_auctions/open_auction satisfies data($inc) is $b/bidder[1]/increase}</o>"
    );
    ( "atom-build",
      "for $inc in /site/open_auctions/open_auction/bidder/increase return <o>{some $b in /site/open_auctions/open_auction satisfies $inc is data($b/bidder[1]/increase)}</o>"
    );
    ( "constructed-probe",
      "for $c in (<increase>1</increase>, <increase/>) return <o>{some $b in /site/open_auctions/open_auction satisfies $c is $b/bidder[1]/increase}</o>"
    );
    ( "mixed-probe",
      Printf.sprintf
        "for $inc in /site/open_auctions/open_auction/bidder/increase return <o>{some $b in /site/open_auctions/open_auction satisfies ($inc, data($inc)) is (%s, $b/bidder[1])}</o>"
        first );
  ]

let test_identity_semi_join_parity () =
  List.iter
    (fun seed ->
      let doc =
        Xl_workload.Xmark_gen.generate ~seed Xl_workload.Xmark_gen.tiny_scale
      in
      let store = Xml.Store.of_docs [ doc ] in
      check_query_parity ~suite:(Printf.sprintf "identity-seed%d" seed) store
        identity_queries;
      (* every query takes a join: a FLWOR hash join or a semi-join *)
      List.iter
        (fun (id, q) ->
          let (), (s, n, _) =
            with_quant_counts (fun () ->
                ignore (Eval.run (Eval.make_ctx store) (Parser.parse q)))
          in
          let joins = s + quant_counter "eval_flwor_hash_join" in
          Alcotest.(check bool) (id ^ ": joined") true (joins > 0);
          Alcotest.(check int) (id ^ ": no nested quantifier") 0 n)
        identity_queries)
    [ 1; 2; 3 ]

(* The join index cache is keyed on the comparison as well as on (source,
   key): an [=] plan and an [is] plan over the same source and key
   expressions index different keys, so whichever runs second on a shared
   context must not be answered from the other's index.  Increases repeat
   across auctions, so the two queries really differ. *)
let test_identity_and_equality_share_no_index () =
  let store =
    Xml.Store.of_docs
      [ Xl_workload.Xmark_gen.generate ~seed:1 Xl_workload.Xmark_gen.tiny_scale ]
  in
  let query op =
    Printf.sprintf
      "for $inc in /site/open_auctions/open_auction/bidder/increase return <o>{some $b in /site/open_auctions/open_auction satisfies $inc %s $b/bidder[1]/increase}</o>"
      op
    |> Parser.parse
  in
  let eq = query "=" and is = query "is" in
  let reference q = Xl_fuzz.Ref_eval.run_to_string (Eval.make_ctx store) q in
  let ref_eq = reference eq and ref_is = reference is in
  Alcotest.(check bool) "= and is answer differently here" true
    (not (String.equal ref_eq ref_is));
  List.iter
    (fun (order, first, second) ->
      let ctx = Eval.make_ctx store in
      let got_first = Eval.run_to_string ctx (fst first) in
      let got_second = Eval.run_to_string ctx (fst second) in
      Alcotest.(check string) (order ^ ": first") (snd first) got_first;
      Alcotest.(check string) (order ^ ": second, shared context") (snd second)
        got_second;
      Alcotest.(check int) (order ^ ": one index per comparison") 2
        (Hashtbl.length ctx.Eval.join_cache))
    [ ("= then is", (eq, ref_eq), (is, ref_is)); ("is then =", (is, ref_is), (eq, ref_eq)) ]

(* Counted: the learner's Q2 target evaluates its [where] quantifier as
   the identity semi-join on every tuple, never as a nested loop. *)
let test_q2_identity_semi_join () =
  let sc = List.assoc "Q2" (Xl_workload.Xmark_scenarios.all ()) in
  let store = sc.Xl_core.Scenario.store in
  let ast = Xl_xqtree.Xqtree.to_ast sc.Xl_core.Scenario.target in
  let reference = Xl_fuzz.Ref_eval.run_to_string (Eval.make_ctx store) ast in
  let got, (semi, nested, _) =
    with_quant_counts (fun () -> Eval.run_to_string (Eval.make_ctx store) ast)
  in
  Alcotest.(check string) "Q2 result, semi-join vs nested loop" reference got;
  Alcotest.(check bool) "semi-joins" true (semi > 0);
  Alcotest.(check int) "nested quantifiers" 0 nested

(* XMark Q1's inner FLWOR joins items to their category by an equality
   [where]: on a 24-category instance it must be planned as a hash join
   on every one of the 24 outer iterations, never as a nested loop, and
   answer exactly what the reference's nested loop answers. *)
let test_q1_hash_join () =
  let scale =
    {
      Xl_workload.Xmark_gen.categories = 24;
      items_per_region = 30;
      people = 30;
      open_auctions = 20;
      closed_auctions = 25;
    }
  in
  let store = Xml.Store.of_docs [ Xl_workload.Xmark_gen.generate scale ] in
  let q1 =
    Parser.parse
      {|for $c in /site/categories/category
        return <category>{$c/name}{
          for $i in /site/regions/(europe|africa)/item
          where $i/incategory/@category = $c/@id
          return <item>{$i/name}</item>}</category>|}
  in
  let reference = Xl_fuzz.Ref_eval.run_to_string (Eval.make_ctx store) q1 in
  Xl_obs.Obs.reset ();
  Xl_obs.Obs.set_enabled true;
  let got =
    Fun.protect
      ~finally:(fun () -> Xl_obs.Obs.set_enabled false)
      (fun () -> Eval.run_to_string (Eval.make_ctx store) q1)
  in
  Alcotest.(check string) "Q1 result, hash join vs nested loop" reference got;
  Alcotest.(check int) "hash joins" 24 (quant_counter "eval_flwor_hash_join");
  Alcotest.(check int) "nested loops" 0 (quant_counter "eval_flwor_nested_loop")

(* The extent and join caches over the corpus: evaluating a case's
   target twice on one context — cold, then answered from the caches the
   first run filled — must match the reference both times. *)
let test_fuzz_corpus_engines () =
  let outcomes =
    Xl_exec.Pool.map pool
      (fun index ->
        let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
        let store = Xl_fuzz.Case.store_of case in
        let ast = Xl_xqtree.Xqtree.to_ast case.Xl_fuzz.Case.target in
        let ctx = Eval.make_ctx store in
        let cold = Eval.run_to_string ctx ast in
        let warm = Eval.run_to_string ctx ast in
        (index, cold, warm, Xl_fuzz.Ref_eval.run_to_string (Eval.make_ctx store) ast))
      (List.init 25 Fun.id)
  in
  List.iter
    (fun (index, cold, warm, reference) ->
      Alcotest.(check string)
        (Printf.sprintf "fuzz case %d cold Eval vs Ref_eval" index)
        reference cold;
      Alcotest.(check string)
        (Printf.sprintf "fuzz case %d warm Eval vs Ref_eval" index)
        reference warm)
    outcomes

(* Direct selection parity on the Figure-16 stores: for a sample of
   concrete nodes, select by the node's generalized tag-path expression
   from the document root — and by the relative remainder from an
   ancestor base — by the frozen scan (extent cache emptied first), the
   memoized answer to the same call, and the pointer walk, comparing
   node-id sequences (identity and order). *)
let test_select_engine_parity () =
  let stores =
    [
      ( "xmark",
        (List.hd (Xl_workload.Xmark_scenarios.all ()) : string * Xl_core.Scenario.t)
        |> fun (_, sc) -> sc.Xl_core.Scenario.store );
      ("xmp", Xl_workload.Xmp_data.store ());
    ]
  in
  let jobs =
    List.concat_map
      (fun (suite, store) ->
        (* every 7th node: a deterministic spread over document order *)
        let sample =
          List.filteri
            (fun i _ -> i mod 7 = 0)
            (List.concat_map Xml.Doc.nodes (Xml.Store.docs store))
        in
        [ (suite, store, sample) ])
      stores
  in
  let outcomes =
    Xl_exec.Pool.map pool
      (fun (suite, store, sample) ->
        let ctx = Eval.make_ctx store in
        let ids nodes =
          String.concat ","
            (List.map (fun (n : Xml.Node.t) -> string_of_int n.Xml.Node.id) nodes)
        in
        let mismatches = ref [] in
        List.iter
          (fun (n : Xml.Node.t) ->
            let root = Xml.Node.root n in
            let doc_base =
              match
                List.find_opt
                  (fun (d : Xml.Doc.t) ->
                    Xml.Node.equal d.Xml.Doc.doc_node root
                    || Xml.Node.equal (Xml.Doc.root d) root)
                  (Xml.Store.docs store)
              with
              | Some d -> d.Xml.Doc.doc_node
              | None -> root
            in
            let checks =
              (* doc-rooted: the node's own generalized path *)
              [ (Xl_core.Data_graph.generalized_path n, doc_base) ]
              @
              (* relative: the remainder below the topmost element *)
              match Xml.Node.tag_path n with
              | _root :: (_ :: _ as rest) -> (
                match
                  Xl_core.Extent.ancestor_at n (List.length rest)
                with
                | Some base ->
                  [ ( Xl_xquery.Path_expr.seq
                        (List.map
                           (fun sym ->
                             if String.length sym > 0 && sym.[0] = '@' then
                               Xl_xquery.Path_expr.child
                                 (Xl_xquery.Path_expr.Attr
                                    (String.sub sym 1 (String.length sym - 1)))
                             else if String.equal sym "#text" then
                               Xl_xquery.Path_expr.child
                                 Xl_xquery.Path_expr.Text_node
                             else
                               Xl_xquery.Path_expr.child
                                 (Xl_xquery.Path_expr.Tag sym))
                           rest),
                      base ) ]
                | None -> [])
              | _ -> []
            in
            List.iter
              (fun (p, base) ->
                Hashtbl.reset ctx.Eval.extent_cache;
                let f = ids (Eval.eval_path ctx p base) in
                let c = ids (Eval.eval_path ctx p base) in
                let w =
                  let cp = Eval.compile_path ctx p in
                  ids (Eval.tree_select ctx cp.Eval.dfa cp.Eval.live base)
                in
                if not (String.equal f w && String.equal c w) then
                  mismatches :=
                    Printf.sprintf "%s node %d: frozen=%s cached=%s walk=%s"
                      suite n.Xml.Node.id f c w
                    :: !mismatches)
              checks)
          sample;
        (suite, List.length sample, List.rev !mismatches))
      jobs
  in
  List.iter
    (fun (suite, sampled, mismatches) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %d sampled bases agree across engines" suite
           sampled)
        [] mismatches)
    outcomes

(* ---------- context alphabet ---------------------------------------------- *)

(* The node walk the context alphabet was once built with: every node of
   every document in document order, documents in store order, then
   "#text" for constructed text.  [Eval.make_ctx] reads the snapshots'
   symbol tables instead, and must intern the same symbols in the same
   order — path DFAs, schema DFAs and pinned query texts all depend on
   the numbering. *)
let walk_alphabet (store : Xml.Store.t) : string list =
  let a = Xl_automata.Alphabet.create () in
  List.iter
    (fun d ->
      List.iter
        (fun n -> ignore (Xl_automata.Alphabet.intern a (Xml.Node.symbol n)))
        (Xml.Doc.all_nodes d))
    (Xml.Store.docs store);
  ignore (Xl_automata.Alphabet.intern a "#text");
  Xl_automata.Alphabet.symbols a

(* Every store the whole-store oracles run over: the Figure-16 stores at
   1x and streamed 4x, the XMP store, the 1x catalog serialized and
   re-parsed (tree path and streaming parse), and the 25-seed [Gen_doc]
   corpus. *)
let oracle_stores =
  lazy
    (let distinct_stores scenarios =
       List.fold_left
         (fun acc (_, (sc : Xl_core.Scenario.t)) ->
           let st = sc.Xl_core.Scenario.store in
           if List.exists (fun s -> s == st) acc then acc else acc @ [ st ])
         [] scenarios
     in
     let named prefix stores =
       List.mapi (fun i st -> (Printf.sprintf "%s #%d" prefix i, st)) stores
     in
     let xmark = Xl_workload.Xmark_scenarios.all () in
     let catalog_doc =
       List.hd (Xml.Store.docs (snd (List.hd xmark)).Xl_core.Scenario.store)
     in
     let catalog_text = Xml.Serialize.node_to_string (Xml.Doc.root catalog_doc) in
     let reparsed = Xml.Xml_parser.parse_doc ~uri:"catalog.xml" catalog_text in
     let _, streamed = Xml.Frozen_builder.parse ~uri:"catalog.xml" catalog_text in
     named "fig16 xmark 1x" (distinct_stores xmark)
     @ named "fig16 xmark 4x streamed"
         (distinct_stores
            (Xl_workload.Xmark_scenarios.all
               ~scale:(Xl_workload.Xmark_gen.scale_factor 4) ~streamed:true ()))
     @ named "fig16 xmp" (distinct_stores (Xl_workload.Xmp_scenarios.all ()))
     @ [ ("xmp store", Xl_workload.Xmp_data.store ());
         ("catalog serialized and re-parsed", Xml.Store.of_docs [ reparsed ]);
         ("catalog serialized and streamed", Xml.Store.of_frozen [ streamed ]) ]
     @ List.init 25 (fun index ->
           ( Printf.sprintf "gen_doc case %d" index,
             Xl_fuzz.Case.store_of (Xl_fuzz.Case.generate ~seed:20040301 ~index) )))

let test_alphabet_order () =
  let xmark = Xl_workload.Xmark_scenarios.all () in
  let stores = Lazy.force oracle_stores in
  List.iter
    (fun (label, store) ->
      Alcotest.(check (list string)) label (walk_alphabet store)
        (Xl_automata.Alphabet.symbols (Eval.make_ctx store).Eval.alphabet))
    stores;
  (* with no schema to add symbols, the oracle's context alphabet is the
     store's own: the DataGuide scenarios' alphabet is the walk's *)
  let q1 = List.assoc "Q1" xmark in
  let o, _ =
    Xl_core.Oracle.create
      { q1 with Xl_core.Scenario.source_dtd = None; more_dtds = [] }
  in
  Alcotest.(check (list string)) "DataGuide scenario xmark Q1"
    (walk_alphabet q1.Xl_core.Scenario.store)
    (Xl_automata.Alphabet.symbols (Xl_core.Oracle.eval_ctx o).Eval.alphabet)

(* ---------- node ranks, Dewey codes and document order --------------------- *)

(* The Dewey numbering nodes once stored in a list field: [[1]] for a
   root element (attached or constructed), [d @ [k]] for the k-th of an
   element's attributes-then-children, [[]] for a document node.
   [Node.dewey] must rebuild exactly these codes, and [Node.compare_order]
   must agree with the order they gave: Dewey order, then ids. *)
let list_dewey (tbl : (int, int list) Hashtbl.t) (top : Xml.Node.t) =
  let rec go d (n : Xml.Node.t) =
    Hashtbl.replace tbl n.Xml.Node.id d;
    List.iteri
      (fun i c -> go (d @ [ i + 1 ]) c)
      (n.Xml.Node.attributes @ n.Xml.Node.children)
  in
  match top.Xml.Node.kind with
  | Xml.Node.Document ->
    Hashtbl.replace tbl top.Xml.Node.id [];
    List.iter (go [ 1 ]) top.Xml.Node.children
  | _ -> go [ 1 ] top

let list_order tbl (a : Xml.Node.t) (b : Xml.Node.t) =
  let c =
    Xml.Dewey.compare (Hashtbl.find tbl a.Xml.Node.id) (Hashtbl.find tbl b.Xml.Node.id)
  in
  if c <> 0 then c else compare a.Xml.Node.id b.Xml.Node.id

let test_rank_dewey_oracle () =
  let tbl = Hashtbl.create 65536 in
  let sign x = compare x 0 in
  let rng = Random.State.make [| 20040301 |] in
  (* [pairs] random pairs drawn from [nodes]: the rank order must be the
     list order *)
  let check_pairs label (nodes : Xml.Node.t array) pairs =
    let n = Array.length nodes in
    let bad = ref 0 in
    for _ = 1 to pairs do
      let a = nodes.(Random.State.int rng n) and b = nodes.(Random.State.int rng n) in
      if sign (Xml.Node.compare_order a b) <> sign (list_order tbl a b) then incr bad
    done;
    Alcotest.(check int) (Printf.sprintf "%s: %d random pairs in list order" label pairs)
      0 !bad
  in
  let check_codes label nodes =
    let bad =
      List.filter
        (fun (n : Xml.Node.t) ->
          Xml.Node.dewey n <> Hashtbl.find tbl n.Xml.Node.id)
        nodes
    in
    Alcotest.(check int) (label ^ ": Dewey codes equal the list oracle") 0 (List.length bad)
  in
  (* store documents: both producers rank every node by its position *)
  let sampled = ref [] in
  List.iter
    (fun (label, store) ->
      let nodes =
        List.concat_map
          (fun fz ->
            let doc = Xml.Frozen.doc fz in
            list_dewey tbl doc.Xml.Doc.doc_node;
            Alcotest.(check int) (label ^ ": node_count is the row count")
              (Xml.Frozen.size fz) (Xml.Doc.node_count doc);
            let misranked = ref 0 in
            Array.iteri
              (fun p (n : Xml.Node.t) -> if n.Xml.Node.rank <> p then incr misranked)
              (Xml.Frozen.nodes fz);
            Alcotest.(check int) (label ^ ": nodes.(p).rank = p") 0 !misranked;
            Array.to_list (Xml.Frozen.nodes fz))
          (Xml.Store.frozen_docs store)
      in
      check_codes label nodes;
      check_pairs label (Array.of_list nodes) 2000;
      sampled := List.filteri (fun i _ -> i mod 11 = 0) nodes :: !sampled)
    (Lazy.force oracle_stores);
  (* constructed elements: copies of stored subtrees under new roots *)
  let constructed =
    List.concat_map
      (fun (store, q) ->
        let v = Eval.run (Eval.make_ctx store) (Parser.parse q) in
        List.concat_map
          (fun (it : Value.item) ->
            match it with
            | Value.Node n when n.Xml.Node.parent = None ->
              list_dewey tbl n;
              Xml.Node.all_nodes n
            | _ -> [])
          v)
      [ ( (snd (List.hd (Xl_workload.Xmark_scenarios.all ()))).Xl_core.Scenario.store,
          "for $i in /site/regions/europe/item return <hit n=\"x\" m=\"y\">{$i/name}<w>{$i/@id}</w>{$i}</hit>" );
        ( Xl_workload.Xmp_data.store (),
          "for $b in document(\"bib.xml\")//book return <r>{$b/title}{$b}</r>" ) ]
  in
  Alcotest.(check bool) "queries construct elements" true (List.length constructed > 100);
  check_codes "constructed" constructed;
  let misranked =
    List.filter
      (fun (n : Xml.Node.t) ->
        let all = Xml.Node.all_nodes (Xml.Node.root n) in
        let rec index i = function
          | [] -> -1
          | m :: rest -> if m == n then i else index (i + 1) rest
        in
        n.Xml.Node.rank <> 1 + index 0 all)
      constructed
  in
  Alcotest.(check int) "constructed: ranks are preorder from 1" 0 (List.length misranked);
  (* across documents and stores, with constructed nodes mixed in *)
  let mixed = Array.of_list (constructed @ List.concat !sampled) in
  check_pairs "stores and constructed mixed" mixed 50000

(* Streaming-ingestion parity over the fuzz corpus: for each case's
   training document, the one-pass builder (fragment walk and SAX text
   parse) must reproduce the two-pass freeze-of-tree snapshot node for
   node. *)
let test_streaming_fuzz_parity () =
  let outcomes =
    Xl_exec.Pool.map pool
      (fun index ->
        let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
        let frag = case.Xl_fuzz.Case.training in
        let tree_fz = Xml.Frozen.freeze (Xml.Doc.of_frag ~uri:"t.xml" frag) in
        let _, frag_fz = Xml.Frozen_builder.of_frag ~uri:"t.xml" frag in
        let text = Xml.Serialize.frag_to_string frag in
        let _, parse_fz = Xml.Frozen_builder.parse ~uri:"t.xml" text in
        let eq = Xml.Frozen.structural_equal tree_fz in
        (index, eq frag_fz, eq parse_fz))
      (List.init 25 Fun.id)
  in
  List.iter
    (fun (index, frag_ok, parse_ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "fuzz case %d streamed fragment walk" index)
        true frag_ok;
      Alcotest.(check bool)
        (Printf.sprintf "fuzz case %d streamed text parse" index)
        true parse_ok)
    outcomes

(* The same parity on the Figure-16 documents: the XMark generator's
   direct-to-builder path against generate-then-freeze (same seed, same
   scale), and each XMP document re-ingested through the SAX parser. *)
let test_streaming_fig16_parity () =
  List.iter
    (fun seed ->
      let tree_fz =
        Xml.Frozen.freeze
          (Xl_workload.Xmark_gen.generate ~seed Xl_workload.Xmark_gen.tiny_scale)
      in
      let _, stream_fz =
        Xl_workload.Xmark_gen.generate_frozen ~seed
          Xl_workload.Xmark_gen.tiny_scale
      in
      Alcotest.(check bool)
        (Printf.sprintf "xmark seed %d streamed vs tree" seed)
        true
        (Xml.Frozen.structural_equal tree_fz stream_fz))
    [ 1; 2; 3 ];
  List.iter
    (fun (d : Xml.Doc.t) ->
      let text = Xml.Serialize.node_to_string (Xml.Doc.root d) in
      let uri = Xml.Doc.uri d in
      let tree_fz = Xml.Frozen.freeze (Xml.Xml_parser.parse_doc ~uri text) in
      let _, stream_fz = Xml.Frozen_builder.parse ~uri text in
      Alcotest.(check bool)
        (Printf.sprintf "xmp %s streamed vs tree" uri)
        true
        (Xml.Frozen.structural_equal tree_fz stream_fz))
    (Xml.Store.docs (Xl_workload.Xmp_data.store ()))

(* One comparable line per learning run: interaction counts and the
   verified flag. *)
let stats_row (name : string) (r : Xl_core.Learn.result) : string =
  let s = r.Xl_core.Learn.stats in
  Printf.sprintf "%s dd=%d(%d) mq=%d eq=%d ce=%d cb=%d(%d) ob=%d r=(%d,%d,%d) auto=%d restarts=%d verified=%b"
    name s.Xl_core.Stats.dd s.Xl_core.Stats.dd_terminals s.Xl_core.Stats.mq
    s.Xl_core.Stats.eq s.Xl_core.Stats.ce s.Xl_core.Stats.cb
    s.Xl_core.Stats.cb_terminals s.Xl_core.Stats.ob s.Xl_core.Stats.reduced_r1
    s.Xl_core.Stats.reduced_r2 s.Xl_core.Stats.reduced_both
    s.Xl_core.Stats.auto_known s.Xl_core.Stats.restarts
    r.Xl_core.Learn.verified

let fig16_scenarios () =
  List.map (fun (n, sc) -> ("xmark", n, sc)) (Xl_workload.Xmark_scenarios.all ())
  @ List.map (fun (n, sc) -> ("xmp", n, sc)) (Xl_workload.Xmp_scenarios.all ())

(* A streamed XMark store (documents ingested through the builder and
   registered with their pre-built snapshots) must be indistinguishable
   from the tree-built store: same interaction counts on every Figure-16
   scenario. *)
let test_streamed_store_learner_parity () =
  let rows scenarios =
    Xl_exec.Pool.map pool
      (fun (name, sc) ->
        match Xl_core.Learn.run sc with
        | r -> stats_row name r
        | exception e -> name ^ " FAILED " ^ Printexc.to_string e)
      scenarios
  in
  let tree = rows (Xl_workload.Xmark_scenarios.all ()) in
  let streamed = rows (Xl_workload.Xmark_scenarios.all ~streamed:true ()) in
  Alcotest.(check int) "same number of scenarios" (List.length tree)
    (List.length streamed);
  List.iter2
    (fun t s -> Alcotest.(check string) "interaction counts" t s)
    tree streamed

(* Pool invariance (DESIGN.md §5h): the intra-scenario pool (oracle
   batch chunks, schema precompute, relay scan) changes who computes
   answers, never the answers — every stats row must be byte-identical
   with the fan-outs on one domain and on four.  Scenarios run on the
   main domain here so the config's pool is the only pool in play; its
   domains read each suite's store straight from the constructor. *)
let sweep_configs () =
  let pool4 = Xl_exec.Pool.create ~domains:4 () in
  [
    ("pool=seq", Xl_core.Learn.default_config);
    ("pool=4", { Xl_core.Learn.default_config with pool = Some pool4 });
  ]

let test_learner_pool_parity () =
  let scenarios = fig16_scenarios () in
  let rows_under config =
    List.map
      (fun (suite, name, sc) ->
        let label = suite ^ "-" ^ name in
        match Xl_core.Learn.run ~config sc with
        | r -> stats_row label r
        | exception e -> label ^ " FAILED " ^ Printexc.to_string e)
      scenarios
  in
  match sweep_configs () with
  | [] -> assert false
  | (ref_label, ref_config) :: rest ->
    let reference = rows_under ref_config in
    List.iter
      (fun (label, config) ->
        List.iter2
          (fun expected got ->
            Alcotest.(check string)
              (Printf.sprintf "%s vs %s" label ref_label)
              expected got)
          reference (rows_under config))
      rest

(* The same invariance over the randomized corpus: 25 deterministic fuzz
   cases sweep many more DTD/alphabet/counterexample shapes through the
   batch resolver and its pool chunks (compiled-DFA R1, deferred genuine
   questions, Any_last fallback) than the two paper suites do. *)
let test_fuzz_pool_parity () =
  let configs = sweep_configs () in
  List.iter
    (fun index ->
      let case () = Xl_fuzz.Case.generate ~seed:20040301 ~index in
      match configs with
      | [] -> assert false
      | (ref_label, ref_config) :: rest ->
        let row config =
          let sc = Xl_fuzz.Case.scenario (case ()) in
          match Xl_core.Learn.run ~config sc with
          | r -> stats_row (Printf.sprintf "case %d" index) r
          | exception e ->
            Printf.sprintf "case %d FAILED %s" index (Printexc.to_string e)
        in
        let reference = row ref_config in
        List.iter
          (fun (label, config) ->
            Alcotest.(check string)
              (Printf.sprintf "fuzz case %d: %s vs %s" index label ref_label)
              reference (row config))
          rest)
    (List.init 25 Fun.id)

(* The Figure-16 interaction counts are pinned by fig16_stats.json (a
   declared test dep): one [Stats.to_json] object per scenario, keyed
   "suite/name".  Re-learning any scenario of either suite must
   reproduce its object field for field, whatever the engine does under
   the hood.  This is the learner-behaviour guard. *)
let pinned_fig16_stats () =
  let module Json = Xl_json.Json in
  (* dune runtest runs in _build/default/test, dune exec in the root *)
  match List.find_opt Sys.file_exists [ "fig16_stats.json"; "test/fig16_stats.json" ] with
  | None -> Alcotest.fail "fig16_stats.json not found (declared test dep)"
  | Some path -> (
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok (Json.Obj rows) -> rows
    | Ok _ -> Alcotest.failf "%s: not a JSON object" path
    | Error e -> Alcotest.failf "%s: %s" path e)

let test_pinned_fig16_counts () =
  let pinned = pinned_fig16_stats () in
  let rows =
    Xl_exec.Pool.map pool
      (fun (suite, name, sc) ->
        ( suite ^ "/" ^ name,
          Xl_core.Stats.to_json (Xl_core.Learn.run sc).Xl_core.Learn.stats ))
      (fig16_scenarios ())
  in
  Alcotest.(check (list string)) "one pinned row per fig16 scenario"
    (List.map fst rows) (List.map fst pinned);
  List.iter
    (fun (key, got) ->
      let got =
        match Xl_json.Json.parse got with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: Stats.to_json unparseable: %s" key e
      in
      let want = List.assoc key pinned in
      if want <> got then
        Alcotest.failf "%s stats row: pinned %s, got %s" key
          (Xl_json.Json.to_string want) (Xl_json.Json.to_string got))
    rows

(* The fill's counted work on the Figure-16 set (XMark 1x + XMP) with
   the counters on.  Batch traffic, its auto-answered share, genuine and
   reused questions, L* rounds, conditions judged and the evaluator
   branches that answered are the learner's work, not the host's, so
   they are pinned exactly; and with no
   [on_auto] observer only genuine questions are spelled into words. *)
let test_fill_work_counted () =
  let module Obs = Xl_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  List.iter (fun (_, _, sc) -> ignore (Xl_core.Learn.run sc)) (fig16_scenarios ());
  let value name =
    match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0
  in
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (value name))
    [
      ("mq_batched", 118829);
      ("mq_auto_answered", 118696);
      ("mq_user", 63);
      ("mq_reused", 0);
      ("lstar_rounds", 70);
      (* one condition judged on one node, memo misses only *)
      ("cond_evals", 1858);
      (* which evaluator branch answered: [is] bodies semi-join too *)
      ("eval_quant_nested", 0);
      ("eval_quant_semi_join", 1134);
      ("eval_flwor_nested_loop", 132);
    ];
  if value "mq_spelled" > value "mq_user" then
    Alcotest.failf "%d words spelled for %d genuine questions" (value "mq_spelled")
      (value "mq_user")

let () =
  Alcotest.run "perf-parity"
    [
      ( "query-results",
        [
          Alcotest.test_case "xmark tiny instances, 3 seeds" `Quick
            test_xmark_parity;
          Alcotest.test_case "xmp use-case store" `Quick test_xmp_parity;
          Alcotest.test_case "randomized fuzz corpus, 25 seeds" `Quick
            test_fuzz_corpus_parity;
          Alcotest.test_case "fuzz corpus, cold vs warm caches" `Quick
            test_fuzz_corpus_engines;
          Alcotest.test_case "fig16 stores, select-engine parity" `Quick
            test_select_engine_parity;
          Alcotest.test_case "xmark Q1 takes the hash join" `Quick
            test_q1_hash_join;
          Alcotest.test_case "make_ctx alphabet matches the node walk" `Quick
            test_alphabet_order;
          Alcotest.test_case "node ranks and Dewey codes match the list oracle"
            `Quick test_rank_dewey_oracle;
        ] );
      ( "semi-join",
        [
          Alcotest.test_case "coercion, NaN, residuals, fallbacks" `Quick
            test_semi_join_parity;
          Alcotest.test_case "every Rel3 candidate on tiny XMark" `Quick
            test_semi_join_rel3_candidates;
          Alcotest.test_case "Q9 bodies scale with persons x items" `Quick
            test_semi_join_scaling;
          Alcotest.test_case "is-identity joins on tiny XMark, 3 seeds" `Quick
            test_identity_semi_join_parity;
          Alcotest.test_case "= and is over one source and key" `Quick
            test_identity_and_equality_share_no_index;
          Alcotest.test_case "xmark Q2 takes the identity semi-join" `Quick
            test_q2_identity_semi_join;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "fuzz corpus, streamed vs tree" `Quick
            test_streaming_fuzz_parity;
          Alcotest.test_case "fig16 documents, streamed vs tree" `Quick
            test_streaming_fig16_parity;
        ] );
      ( "learner",
        [
          Alcotest.test_case "xmark suite, streamed store vs tree store" `Slow
            test_streamed_store_learner_parity;
          Alcotest.test_case "fig16 suites, one vs four domains" `Slow
            test_learner_pool_parity;
          Alcotest.test_case "fuzz corpus, one vs four domains" `Slow
            test_fuzz_pool_parity;
          Alcotest.test_case "interaction counts pinned to fig16_stats.json"
            `Slow test_pinned_fig16_counts;
          Alcotest.test_case "fig16 fill work, counted" `Slow test_fill_work_counted;
        ] );
    ]
