(* Unit and end-to-end tests for the learner (xl_core) — the paper's
   contribution.  The final test reproduces the paper's running example:
   q1 is learned from 3 drops, 1 counterexample and 1 Condition Box. *)

open Xl_xquery
open Xl_xqtree
open Xl_core

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let path = Parser.parse_path_string
let sp = Simple_path.of_string

(* the small instance of the paper's Section 2 *)
let mini_xml =
  {|<site>
      <regions>
        <africa>
          <item id="i3"><name>Drum</name><incategory category="c1"/><description>Loud</description></item>
        </africa>
        <europe>
          <item id="i7"><name>H. Potter</name><incategory category="c2"/><description>Best Seller</description></item>
          <item id="i6"><name>Encyclopedia</name><incategory category="c2"/><description>Huge</description></item>
        </europe>
        <asia>
          <item id="i10"><name>XML book</name><incategory category="c2"/><description>how-to</description></item>
        </asia>
      </regions>
      <categories>
        <category id="c1"><name>computer</name></category>
        <category id="c2"><name>book</name></category>
      </categories>
      <closed_auctions>
        <closed_auction><price>700</price><itemref item="i6"/></closed_auction>
        <closed_auction><price>50</price><itemref item="i7"/></closed_auction>
        <closed_auction><price>80</price><itemref item="i3"/></closed_auction>
        <closed_auction><price>100</price><itemref item="i10"/></closed_auction>
      </closed_auctions>
    </site>|}

let mini_dtd_text =
  {|<!ELEMENT site (regions, categories, closed_auctions)>
    <!ELEMENT regions (africa, europe, asia)>
    <!ELEMENT africa (item*)>
    <!ELEMENT europe (item*)>
    <!ELEMENT asia (item*)>
    <!ELEMENT item (name, incategory, description*)>
    <!ATTLIST item id ID #REQUIRED>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT incategory EMPTY>
    <!ATTLIST incategory category IDREF #REQUIRED>
    <!ELEMENT description (#PCDATA)>
    <!ELEMENT categories (category*)>
    <!ELEMENT category (name)>
    <!ATTLIST category id ID #REQUIRED>
    <!ELEMENT closed_auctions (closed_auction*)>
    <!ELEMENT closed_auction (price, itemref)>
    <!ELEMENT price (#PCDATA)>
    <!ELEMENT itemref EMPTY>
    <!ATTLIST itemref item IDREF #REQUIRED>|}

let mini_doc () = Xl_xml.Xml_parser.parse_doc ~uri:"auction.xml" mini_xml
let mini_store () = Xl_xml.Store.of_docs [ mini_doc () ]
let mini_dtd () = Xl_schema.Dtd_parser.parse mini_dtd_text

let q1_target () =
  Xqtree.make ~tag:"i_list" "N1"
    ~children:
      [
        Xqtree.make ~tag:"category" ~var:"c"
          ~source:(Xqtree.Abs (None, path "/site/categories/category"))
          "N1.1"
          ~children:
            [
              Xqtree.make ~tag:"cname" ~one_edge:true ~var:"cn"
                ~source:(Xqtree.Rel (path "name")) "N1.1.1";
              Xqtree.make ~tag:"item" ~var:"i"
                ~source:(Xqtree.Abs (None, path "/site/regions/(europe|africa)/item"))
                ~conds:
                  [
                    Cond.Join
                      ( Cond.ep ~path:(sp "incategory/@category") "i",
                        Cond.ep ~path:(sp "@id") "c" );
                    Cond.Relay
                      {
                        relay_var = "o";
                        relay_doc = None;
                        relay_path = path "/site/closed_auctions/closed_auction";
                        links = [ (Cond.ep ~path:(sp "@id") "i", sp "itemref/@item") ];
                        relay_conds = [ (sp "price", Ast.Lt, Value.Num 300.) ];
                      };
                  ]
                "N1.1.2"
                ~children:
                  [
                    Xqtree.make ~tag:"iname" ~one_edge:true ~var:"in"
                      ~source:(Xqtree.Rel (path "name")) "N1.1.2.1";
                    Xqtree.make ~tag:"desc" ~var:"d"
                      ~source:(Xqtree.Rel (path "description")) "N1.1.2.2";
                  ];
            ];
      ]

let q1_scenario () =
  Scenario.make ~store:(mini_store ()) ~source_dtd:(mini_dtd ())
    ~target:(q1_target ()) ~picks:[ ("N1.1.1", 1) ] "q1"

(* ---------- Stats ------------------------------------------------------------ *)

let test_stats () =
  let s = Stats.create () in
  s.Stats.reduced_r1 <- 100;
  s.Stats.reduced_r2 <- 30;
  s.Stats.reduced_both <- 25;
  check cint "reduced total = r1 + r2 - both" 105 (Stats.reduced_total s);
  s.Stats.dd <- 2;
  s.Stats.mq <- 3;
  s.Stats.ce <- 1;
  check cint "user interactions" 6 (Stats.user_interactions s);
  let t = Stats.create () in
  Stats.add ~into:t s;
  Stats.add ~into:t s;
  check cint "add accumulates" 210 (Stats.reduced_total t - 0)

(* ---------- Data graph ---------------------------------------------------------- *)

let test_data_graph () =
  let store = mini_store () in
  let dg = Data_graph.build store in
  let doc = Xl_xml.Store.default store in
  let item =
    Option.get (Xl_xml.Doc.node_with_path doc [ "site"; "regions"; "europe"; "item" ])
  in
  (* v-equality: the item id i7 appears on the item and on an itemref *)
  check cint "v-equality class of i7" 2 (List.length (Data_graph.with_value dg "i7"));
  let values = Data_graph.reachable_values dg item in
  check cbool "reaches @id" true
    (List.exists (fun (p, v, _) -> Simple_path.to_string p = "@id" && v = "i7") values);
  check cbool "reaches incategory/@category" true
    (List.exists
       (fun (p, v, _) -> Simple_path.to_string p = "incategory/@category" && v = "c2")
       values);
  check cbool "reaches name value" true
    (List.exists (fun (p, v, _) -> Simple_path.to_string p = "name" && v = "H. Potter") values);
  (* path_between and generalized paths *)
  let name = Option.get (Xl_xml.Doc.node_with_path doc [ "site"; "regions"; "europe"; "item"; "name" ]) in
  check cbool "path_between" true
    (match Data_graph.path_between item name with
    | Some p -> Simple_path.to_string p = "name"
    | None -> false);
  check cbool "not an ancestor" true (Data_graph.path_between name item = None);
  check cstr "generalized path" "/site/regions/europe/item"
    (Path_expr.to_string (Data_graph.generalized_path item));
  check cbool "density positive" true (Data_graph.density dg > 0.)

(* ---------- Candidate enumeration ------------------------------------------------ *)

let test_cond_enum_finds_join () =
  let store = mini_store () in
  let dg = Data_graph.build store in
  let doc = Xl_xml.Store.default store in
  let book_cat =
    List.find
      (fun n -> Xl_xml.Node.string_value n = "book")
      (Xl_xml.Doc.nodes_with_path doc [ "site"; "categories"; "category" ]
      |> fun l -> if l = [] then Xl_xml.Doc.nodes_with_path doc [ "site"; "categories"; "category"; "name" ] else l)
  in
  (* use the category element (parent of the name) *)
  let cat = match Xl_xml.Node.parent book_cat with Some p when p.Xl_xml.Node.name = "category" -> p | _ -> book_cat in
  let potter_item =
    List.find
      (fun (n : Xl_xml.Node.t) ->
        match Xl_xml.Node.attribute n "id" with
        | Some a -> a.Xl_xml.Node.value = "i7"
        | None -> false)
      (Xl_xml.Doc.nodes_with_path doc [ "site"; "regions"; "europe"; "item" ])
  in
  let candidates = Cond_enum.candidates dg [ ("c", cat) ] ~ve:"i" potter_item in
  check cbool "the q1 join is enumerated" true
    (List.exists
       (fun c ->
         match c with
         | Cond.Join (a, b) ->
           a.Cond.var = "i"
           && Simple_path.to_string a.Cond.path = "incategory/@category"
           && b.Cond.var = "c"
           && Simple_path.to_string b.Cond.path = "@id"
         | _ -> false)
       candidates)

(* ---------- Extents ---------------------------------------------------------------- *)

let test_extent_select_by_dfa () =
  let store = mini_store () in
  let ctx = Eval.make_ctx store in
  let alphabet = ctx.Eval.alphabet in
  Eval.intern_path_symbols alphabet (path "/site/regions/(europe|africa)/item");
  let dfa =
    Xl_automata.Regex.to_dfa
      ~alphabet_size:(Xl_automata.Alphabet.size alphabet)
      (Path_expr.to_regex alphabet (path "/site/regions/(europe|africa)/item"))
  in
  let doc = Xl_xml.Store.default store in
  let selected = Extent.select_by_dfa ctx dfa doc.Xl_xml.Doc.doc_node in
  check cint "three items in europe+africa" 3 (List.length selected);
  (* relative paths *)
  let item = List.hd selected in
  check cbool "rel_path" true
    (Extent.rel_path ~base:doc.Xl_xml.Doc.doc_node item
    = Some [ "site"; "regions"; "africa"; "item" ]);
  check cbool "outside subtree" true (Extent.rel_path ~base:item doc.Xl_xml.Doc.doc_node = None);
  check cbool "ancestor_at" true
    (match Extent.ancestor_at item 1 with
    | Some p -> p.Xl_xml.Node.name = "africa"
    | None -> false)

(* ---------- Template -------------------------------------------------------------- *)

let test_template () =
  let dtd = mini_dtd () in
  let t = Template.from_dtd dtd in
  check cstr "root" "site" t.Template.tag;
  check cint "site children" 3 (List.length t.Template.children);
  (* 1-labeled edges from the schema's one-to-one analysis *)
  let regions = List.find (fun c -> c.Template.tag = "regions") t.Template.children in
  check cbool "regions 1-labeled" true regions.Template.one_edge;
  let cats = List.find (fun c -> c.Template.tag = "categories") t.Template.children in
  let category = List.hd cats.Template.children in
  check cbool "starred child unlabeled" false category.Template.one_edge;
  let cname = List.hd category.Template.children in
  check cbool "category/name 1-labeled" true cname.Template.one_edge;
  (* skeleton = minimal subtree containing the drops, with fresh vars *)
  let sk =
    Template.skeleton t [ [ "site"; "categories"; "category"; "name" ] ]
  in
  check cbool "skeleton keeps only the drop chain" true
    (let rec depth (n : Xqtree.node) =
       1 + List.fold_left (fun a c -> max a (depth c)) 0 n.Xqtree.children
     in
     depth sk = 4);
  check cbool "drop box got a variable" true
    (match Xqtree.nodes sk |> List.rev with leaf :: _ -> leaf.Xqtree.var <> None | [] -> false)

(* ---------- Path split / conversion -------------------------------------------------- *)

let test_path_split () =
  (match Path_split.split_last (path "/site/categories/category/name") with
  | Some (prefix, last) ->
    check cstr "prefix" "/site/categories/category" (Path_expr.to_string prefix);
    check cstr "last" "/name" (Path_expr.to_string last)
  | None -> Alcotest.fail "split failed");
  (match Path_split.split_last (path "/site/regions/(europe|africa)/item") with
  | Some (_, last) -> check cstr "alt last" "/item" (Path_expr.to_string last)
  | None -> Alcotest.fail "alt split failed");
  check cbool "star cannot split" true (Path_split.split_last Path_expr.Eps = None)

let test_path_of_dfa () =
  let alphabet = Xl_automata.Alphabet.of_list [ "site"; "categories"; "category"; "name" ] in
  let p = path "/site/categories/category/name" in
  let dfa =
    Xl_automata.Regex.to_dfa ~alphabet_size:4 (Path_expr.to_regex alphabet p)
  in
  check cstr "dfa back to path" "/site/categories/category/name"
    (Path_of_dfa.to_string alphabet dfa)

(* ---------- Oracle -------------------------------------------------------------------- *)

let test_oracle_answers () =
  let sc = q1_scenario () in
  let oracle, teacher = Oracle.create sc in
  ignore oracle;
  (* path membership for the collapsed category/cname task *)
  check cbool "category name path accepted" true
    (teacher.Teacher.path_membership ~label:"N1.1.1" ~context:[]
       ~rel_path:[ "site"; "categories"; "category"; "name" ]);
  check cbool "person path rejected" false
    (teacher.Teacher.path_membership ~label:"N1.1.1" ~context:[]
       ~rel_path:[ "site"; "regions"; "europe"; "item"; "name" ]);
  (* the target extent of the cname task has one node per category *)
  let extent = Oracle.target_extent oracle "N1.1.1" [] in
  check cint "two category names" 2 (List.length extent);
  (* equivalence: the full extent is accepted *)
  check cbool "equal extent accepted" true
    (teacher.Teacher.equivalence ~label:"N1.1.1" ~context:[] ~extent = Teacher.Equal);
  (* a missing node produces a positive counterexample *)
  (match teacher.Teacher.equivalence ~label:"N1.1.1" ~context:[] ~extent:[ List.hd extent ] with
  | Teacher.Counter { positive = true; _ } -> ()
  | _ -> Alcotest.fail "expected a positive counterexample")

(* ---------- End-to-end: the paper's running example ------------------------------------ *)

let test_learn_q1 () =
  let r = Learn.run (q1_scenario ()) in
  let s = r.Learn.stats in
  check cbool "verified" true r.Learn.verified;
  check cint "three drag-and-drops (Section 2)" 3 s.Stats.dd;
  check cint "one condition box" 1 s.Stats.cb;
  check cint "condition box terminals" 3 s.Stats.cb_terminals;
  check cbool "counterexamples stay small" true (s.Stats.ce <= 3);
  check cbool "membership queries stay small" true (s.Stats.mq <= 10);
  check cbool "thousands were auto-answered" true (Stats.reduced_total s > 500);
  check cint "reduced identity" (Stats.reduced_total s)
    (s.Stats.reduced_r1 + s.Stats.reduced_r2 - s.Stats.reduced_both);
  (* the learned item fragment carries the join and the price condition *)
  let item = Option.get (Xqtree.find r.Learn.learned "N1.1.2") in
  check cbool "join learned" true
    (List.exists (function Cond.Join _ -> true | _ -> false) item.Xqtree.conds);
  check cbool "price condition from the box" true
    (List.exists
       (function Cond.Relay { relay_conds = _ :: _; _ } -> true | _ -> false)
       item.Xqtree.conds)

let test_learn_q1_without_rules () =
  (* with R1/R2 off every membership query goes to the user: the paper's
     point that raw polynomial L* is impractical *)
  let config =
    { Learn.default_config with rules = { Plearner.r1 = false; r2 = false } }
  in
  let r = Learn.run ~config (q1_scenario ()) in
  check cbool "still converges" true r.Learn.verified;
  check cbool "but needs hundreds of user answers" true (r.Learn.stats.Stats.mq > 200);
  check cint "nothing was auto-reduced" 0 (Stats.reduced_total r.Learn.stats)

let test_learn_worst_strategy () =
  let config = { Learn.default_config with strategy = Oracle.Worst } in
  let r = Learn.run ~config (q1_scenario ()) in
  check cbool "adversarial counterexamples still converge" true r.Learn.verified

(* ---------- Property: random X0 targets are learned exactly ----------------- *)

let prop_learn_random_x0 =
  (* pick a random node of the instance; the target selects every node
     with a related path (sometimes generalized to an alternation of two
     regions); the learned query must be extent-equivalent *)
  let store = mini_store () in
  let doc = Xl_xml.Store.default store in
  let dtd = mini_dtd () in
  let paths =
    [
      "/site/categories/category/name";
      "/site/regions/europe/item";
      "/site/regions/(europe|africa)/item/name";
      "/site/regions/(asia|europe)/item/description";
      "/site/closed_auctions/closed_auction/price";
      "/site/regions/africa/item/@id";
      "//description";
      "//name";
    ]
  in
  ignore doc;
  QCheck2.Test.make ~name:"random X0 targets verified" ~count:16
    (QCheck2.Gen.oneofl paths)
    (fun p ->
      let target =
        Xqtree.make ~tag:"result" "N1"
          ~children:
            [
              Xqtree.make ~tag:"hit" ~var:"x"
                ~source:(Xqtree.Abs (None, path p)) "N1.1";
            ]
      in
      let sc = Scenario.make ~store ~source_dtd:dtd ~target ("x0-" ^ p) in
      let r = Learn.run sc in
      r.Learn.verified && r.Learn.stats.Stats.dd = 1 && r.Learn.stats.Stats.cb = 0)

(* ---------- Answer reuse (Section 11) ----------------------------------------- *)

(* Drive a machine to completion with its own oracle teacher; the
   finished machine carries the transcript. *)
let finish m = Machine.drive ~teacher:(Machine.oracle_teacher m) m

(* A second run started with the first as its prior reuses every genuine
   answer (once each) and otherwise repeats the first run exactly. *)
let test_session_reuse () =
  let subjects =
    (("q1", q1_scenario ())
    :: List.filter
         (fun (n, _) -> List.mem n [ "Q13"; "Q14"; "Q19" ])
         (Xl_workload.Xmark_scenarios.all ()))
    @ List.filter (fun (n, _) -> String.equal n "Q9") (Xl_workload.Xmp_scenarios.all ())
  in
  List.iter
    (fun (name, sc) ->
      let r1, m1 = finish (Machine.start sc) in
      let r2, _ = finish (Machine.start ~prior:m1 sc) in
      let s1 = r1.Learn.stats and s2 = r2.Learn.stats in
      check cbool (name ^ ": first run verified") true r1.Learn.verified;
      check cbool (name ^ ": second run verified") true r2.Learn.verified;
      check cint (name ^ ": second run needs no membership queries") 0 s2.Stats.mq;
      List.iter
        (fun (what, count) -> check cint (name ^ ": same " ^ what) (count s1) (count s2))
        [
          ("dd", fun s -> s.Stats.dd);
          ("eq", fun s -> s.Stats.eq);
          ("ce", fun s -> s.Stats.ce);
          ("cb", fun s -> s.Stats.cb);
          ("reduced r1", fun s -> s.Stats.reduced_r1);
          ("reduced r2", fun s -> s.Stats.reduced_r2);
          ("reduced both", fun s -> s.Stats.reduced_both);
        ];
      check cint (name ^ ": each first-run answer reused once") s1.Stats.mq s2.Stats.auto_known)
    subjects

(* ---------- Scenario: explicit-condition splitting -------------------------------- *)

let test_scenario_explicit_split () =
  let sc = q1_scenario () in
  let item = Option.get (Xqtree.find sc.Scenario.target "N1.1.2") in
  (* the closed_auction relay (value predicate inside, links only to $i)
     must go through a Condition Box; the incategory join is learnable *)
  let explicit = Scenario.explicit_conds sc item in
  check cint "one explicit condition" 1 (List.length explicit);
  (match explicit with
  | [ (Cond.Relay r, terminals) ] ->
    check cbool "it is the priced relay" true (r.Cond.relay_conds <> []);
    check cint "three terminals (node, op, constant)" 3 terminals
  | _ -> Alcotest.fail "expected the relay condition");
  let learnable = Scenario.learnable_conds sc item in
  check cint "one learnable condition" 1 (List.length learnable);
  check cbool "it is the join" true
    (match learnable with [ Cond.Join _ ] -> true | _ -> false)

let test_scenario_cond_terminals () =
  check cint "value predicate" 3
    (Scenario.cond_terminals (Cond.Value (Cond.ep "x", Ast.Lt, Value.Num 1.)));
  check cint "negation costs nothing extra" 2
    (Scenario.cond_terminals
       (Cond.Neg (Cond.Expr (Ast.Call ("exists", [ Ast.Var "x" ])))));
  check cint "function comparison" 4
    (Scenario.cond_terminals
       (Cond.Func_cmp ("count", Cond.ep "x", Ast.Gt, Value.Num 1.)));
  check cbool "conjunction counts both sides" true
    (Scenario.cond_terminals
       (Cond.Expr
          (Ast.And
             ( Ast.Cmp (Ast.Eq, Ast.Var "a", Ast.int 1),
               Ast.Cmp (Ast.Gt, Ast.Var "a", Ast.int 0) )))
    = 6)

let test_scenario_cb_override () =
  let sc = { (q1_scenario ()) with Scenario.cb_terminals = [ ("N1.1.2", 13) ] } in
  let item = Option.get (Xqtree.find sc.Scenario.target "N1.1.2") in
  match Scenario.explicit_conds sc item with
  | [ (_, terminals) ] -> check cint "override respected" 13 terminals
  | _ -> Alcotest.fail "expected one explicit condition"

(* ---------- P-Learner rules in isolation ----------------------------------------- *)

let plearner_fixture ?(r1 = true) ?(r2 = true) ?(target = fun s -> List.length s = 2)
    () =
  (* a tiny world: alphabet {a,b,c,@x}, schema admitting a/b, a/c, a/b/@x *)
  let stats = Stats.create () in
  let schema =
    Xl_schema.Schema_source.of_dtd
      (Xl_schema.Dtd_parser.parse
         "<!ELEMENT a (b*, c?)><!ELEMENT b (#PCDATA)><!ELEMENT c EMPTY><!ATTLIST b x CDATA #IMPLIED>")
  in
  let alphabet = Xl_automata.Alphabet.of_list [ "a"; "b"; "c"; "@x"; "#text" ] in
  (* the schema's path language relativized to the base prefix a *)
  let r1_dfa =
    let sdfa = Xl_schema.Schema_source.to_dfa schema alphabet in
    Xl_automata.Dfa.with_start sdfa
      (Xl_automata.Dfa.run sdfa (Xl_automata.Alphabet.encode alphabet [ "a" ]))
  in
  let asked = ref [] in
  let ask s =
    asked := s :: !asked;
    target s
  in
  let pl =
    Plearner.create
      ~config:{ Plearner.r1; r2 }
      ~stats ~r1_dfas:[ r1_dfa ] ~alphabet ~abs_prefix:[ "a" ]
      ~dropped_path:[ "b" ] ~ask ~ask_batch:(List.map ask) ()
  in
  (pl, stats, asked, alphabet)

(* one word through the P-Learner's fill oracle *)
let member pl alphabet s =
  List.hd (Plearner.membership_batch pl [ Xl_automata.Alphabet.encode alphabet s ])

let test_plearner_r1 () =
  let pl, stats, asked, alphabet = plearner_fixture ~r2:false () in
  let m = member pl alphabet in
  (* schema-inconsistent: a/b/b is impossible (b has PCDATA content) *)
  check cbool "R1 auto-answers impossible path" false (m [ "b"; "b" ]);
  check cint "no user question" 0 (List.length !asked);
  check cint "reduced_r1 counted" 1 stats.Stats.reduced_r1;
  (* schema-consistent path goes to the user *)
  ignore (m [ "c" ]);
  check cint "consistent path asked" 1 (List.length !asked);
  (* asking again hits the memo, no second question *)
  ignore (m [ "c" ]);
  check cint "memoized" 1 (List.length !asked)

let test_plearner_r2_last_tag () =
  let pl, stats, asked, alphabet = plearner_fixture ~r1:false () in
  let m = member pl alphabet in
  (* dropped path ends in b: paths ending elsewhere are auto-answered N *)
  check cbool "wrong last tag rejected" false (m [ "b"; "c" ]);
  check cbool "attribute tail rejected" false (m [ "@x" ]);
  check cbool "empty path rejected" false (m []);
  check cint "nothing asked yet" 0 (List.length !asked);
  check cbool "R2 counted" true (stats.Stats.reduced_r2 >= 3);
  (* matching last tag is a genuine question *)
  ignore (m [ "c"; "b" ]);
  check cint "matching tail asked" 1 (List.length !asked)

let test_plearner_r2_backtrack () =
  let pl, stats, _, alphabet = plearner_fixture ~r1:false () in
  (* a positive counterexample ending in a different tag invalidates the
     Last_tag assumption: Restart is raised and counted *)
  (match Plearner.note_positive pl [ "c" ] with
  | () -> Alcotest.fail "expected Restart"
  | exception Plearner.Restart -> ());
  check cint "backtrack counted" 1 stats.Stats.restarts;
  (* after the restart the conflicting path is a known positive *)
  check cbool "path recorded positive" true
    (Plearner.is_known_positive pl (Xl_automata.Alphabet.encode alphabet [ "c" ]))

let test_plearner_conflict_restart () =
  let pl, stats, _, alphabet = plearner_fixture ~r1:false () in
  let m = member pl alphabet in
  ignore stats;
  (* the teacher says No to c/b, then an equivalence counterexample later
     claims it positive: the misattribution forces a restart *)
  let pl2, _, _, _ = plearner_fixture ~r1:false ~target:(fun _ -> false) () in
  ignore pl2;
  ignore (m [ "c"; "b" ]);
  (match Plearner.note_positive pl [ "c"; "b" ] with
  | () -> ()  (* answer was Yes: no conflict *)
  | exception Plearner.Restart -> ());
  check cbool "table is consistent afterwards" true (m [ "c"; "b" ])

(* ---------- Dialog (Figure 5) -------------------------------------------------- *)

(* The dialog view accounts for every counted interaction, on q1 and on
   all 30 Figure-16 scenarios: a line per genuine MQ word, per EQ (those
   with a counterexample counted apart) and per Condition Box, and the
   OrderBy lines' sort keys sum to the OB count. *)
let test_trace () =
  let scenarios =
    (("q1", q1_scenario ())
    :: List.map (fun (n, sc) -> ("xmark " ^ n, sc)) (Xl_workload.Xmark_scenarios.all ()))
    @ List.map (fun (n, sc) -> ("xmp " ^ n, sc)) (Xl_workload.Xmp_scenarios.all ())
  in
  check cint "q1 plus 30 Figure-16 scenarios" 31 (List.length scenarios);
  List.iter
    (fun (name, sc) ->
      let r, m = finish (Machine.start sc) in
      let transcript = Machine.transcript m in
      let events = List.map (fun r -> r.Dialog.event) (Dialog.records transcript) in
      let sum f = List.fold_left (fun acc e -> acc + f e) 0 events in
      let count p = sum (fun e -> if p e then 1 else 0) in
      let s = r.Learn.stats in
      check cint (name ^ ": MQ lines") s.Stats.mq
        (count (function Dialog.Membership _ -> true | _ -> false));
      check cint (name ^ ": EQ lines") s.Stats.eq
        (count (function Dialog.Equivalence _ -> true | _ -> false));
      check cint (name ^ ": counterexample EQ lines") s.Stats.ce
        (count (function
          | Dialog.Equivalence { outcome = `Positive_ce _ | `Negative_ce _; _ } -> true
          | _ -> false));
      check cint (name ^ ": CB lines") s.Stats.cb
        (count (function Dialog.Condition_box _ -> true | _ -> false));
      check cint (name ^ ": OB keys") s.Stats.ob
        (sum (function Dialog.Order_box { keys; _ } -> keys | _ -> 0));
      check cint (name ^ ": one text line per event") (List.length events)
        (match Dialog.to_string transcript with
        | "" -> 0
        | text -> List.length (String.split_on_char '\n' text)))
    scenarios

(* ---------- DataGuide fallback for R1 ------------------------------------------- *)

let test_learn_without_schema () =
  (* the same q1 scenario with no DTD: R1 falls back to the DataGuide and
     the session still needs only a handful of interactions *)
  let sc = { (q1_scenario ()) with Scenario.source_dtd = None } in
  let r = Learn.run sc in
  check cbool "verified without any schema" true r.Learn.verified;
  check cbool "DataGuide keeps MQs small" true (r.Learn.stats.Stats.mq <= 10);
  check cbool "R1 still reduces" true (r.Learn.stats.Stats.reduced_r1 > 100)

let () =
  Alcotest.run "xl_core"
    [
      ("stats", [ Alcotest.test_case "accounting" `Quick test_stats ]);
      ("data-graph", [ Alcotest.test_case "v-equality and paths" `Quick test_data_graph ]);
      ( "cond-enum",
        [ Alcotest.test_case "enumerates the q1 join" `Quick test_cond_enum_finds_join ] );
      ("extent", [ Alcotest.test_case "dfa selection" `Quick test_extent_select_by_dfa ]);
      ("template", [ Alcotest.test_case "from DTD and skeleton" `Quick test_template ]);
      ( "paths",
        [
          Alcotest.test_case "split for collapse" `Quick test_path_split;
          Alcotest.test_case "dfa to path" `Quick test_path_of_dfa;
        ] );
      ("oracle", [ Alcotest.test_case "teacher answers" `Quick test_oracle_answers ]);
      ( "scenario",
        [
          Alcotest.test_case "explicit/learnable split" `Quick test_scenario_explicit_split;
          Alcotest.test_case "terminal counting" `Quick test_scenario_cond_terminals;
          Alcotest.test_case "terminal override" `Quick test_scenario_cb_override;
        ] );
      ( "plearner",
        [
          Alcotest.test_case "rule R1" `Quick test_plearner_r1;
          Alcotest.test_case "rule R2 last-tag" `Quick test_plearner_r2_last_tag;
          Alcotest.test_case "rule R2 backtrack" `Quick test_plearner_r2_backtrack;
          Alcotest.test_case "conflict restart" `Quick test_plearner_conflict_restart;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "learns the paper's q1" `Quick test_learn_q1;
          Alcotest.test_case "rules off: MQ explosion" `Quick test_learn_q1_without_rules;
          Alcotest.test_case "worst-case strategy" `Quick test_learn_worst_strategy;
          Alcotest.test_case "session reuse (Section 11)" `Quick test_session_reuse;
          Alcotest.test_case "transcript (Figure 5)" `Quick test_trace;
          Alcotest.test_case "DataGuide fallback" `Quick test_learn_without_schema;
          QCheck_alcotest.to_alcotest prop_learn_random_x0;
        ] );
    ]
