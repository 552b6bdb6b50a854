(** Learning scenarios for the XMark queries of Figure 16 (top).

    The paper runs XLearner on the 19 learnable XMark queries (Q6 is the
    one outside XQ_I).  Each scenario packages the generated auction
    instance, the XMark DTD (rule R1's schema) and the intended query as
    a target XQ-Tree.  Output element names follow the benchmark's
    spirit; where the published query uses a construct outside our
    engine's surface (text() results, positional output attributes) the
    target keeps the same learning structure and the deviation is logged
    in EXPERIMENTS.md. *)

open Xl_xquery
open Xl_xqtree

let path = Parser.parse_path_string
let sp = Simple_path.of_string

let value_ep var spath = Cond.ep ~path:(sp spath) var
let data v spath = Ast.Call ("data", [ Ast.Simple (Ast.Var v, sp spath) ])
let data0 v = Ast.Call ("data", [ Ast.Var v ])

type env = { store : Xl_xml.Store.t; dtd : Xl_schema.Dtd.t }

(* [streamed] builds the instance through the one-pass streaming builder
   and registers the ready snapshot ([Store.of_frozen]) instead of the
   tree walk + freeze; the learner must not be able to tell the
   difference (the parity suite compares interaction counts). *)
let make_env ?(scale = Xmark_gen.default_scale) ?seed ?(streamed = false) () :
    env =
  if streamed then
    let _, fz = Xmark_gen.generate_frozen ?seed scale in
    { store = Xl_xml.Store.of_frozen [ fz ]; dtd = Xmark_dtd.get () }
  else
    let doc = Xmark_gen.generate ?seed scale in
    { store = Xl_xml.Store.of_docs [ doc ]; dtd = Xmark_dtd.get () }

let scenario env ?(picks = []) ?(extra_explicit = []) ~description name target =
  Xl_core.Scenario.make ~description ~source_dtd:env.dtd ~store:env.store ~picks
    ~extra_explicit ~target name

(* find a helper value in the instance (the "user knows the data" part of
   scenario authoring, e.g. the person id used in a selection) *)
let first_match env q =
  let ctx = Eval.make_ctx env.store in
  match Eval.run ctx (Parser.parse q) with
  | Value.Node n :: _ -> Xl_xml.Node.string_value n
  | Value.Atom a :: _ -> Value.atom_to_string a
  | [] -> invalid_arg ("no instance match for: " ^ q)

(* ---- Q1: the name of a given person ---------------------------------- *)
let q1 env =
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"person" ~var:"p"
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            ~conds:[ Cond.Value (value_ep "p" "@id", Ast.Eq, Value.Str "person0") ]
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"name" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
              ];
        ]
  in
  scenario env ~description:"Name of the person with ID person0" "Q1" target

(* ---- Q2: initial (first-bidder) increases of open auctions ----------- *)
let q2 env =
  let first_increase =
    Cond.Expr
      (Ast.Some_
         ( [ ("b", Ast.abs_path (path "/site/open_auctions/open_auction")) ],
           Ast.Cmp (Ast.Is, Ast.Var "inc", Ast.Simple (Ast.Var "b", sp "bidder[1]/increase"))
         ))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"increase" ~var:"inc"
            ~source:
              (Xqtree.Abs (None, path "/site/open_auctions/open_auction/bidder/increase"))
            ~conds:[ first_increase ] "N1.1";
        ]
  in
  scenario env ~description:"Initial increases of all open auctions" "Q2" target

(* ---- Q3: auctions whose current increase is at least twice the first - *)
let q3 env =
  let doubled =
    Cond.Expr
      (Ast.Cmp
         ( Ast.Le,
           Ast.Arith (Ast.Mul, data "b" "bidder[1]/increase", Ast.int 2),
           data "b" "bidder[last()]/increase" ))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"auction" ~var:"b"
            ~source:(Xqtree.Abs (None, path "/site/open_auctions/open_auction"))
            ~conds:[ doubled ] "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"id" ~var:"a" ~source:(Xqtree.Rel (path "@id"))
                  "N1.1.1";
              ];
        ]
  in
  scenario env
    ~description:"Auctions whose last increase is at least twice the first" "Q3"
    target

(* ---- Q4: reserves of auctions where a certain person bid ------------- *)
let q4 env =
  let person =
    (* [reserve] is optional per auction, so pick the bidder from an
       auction that has one — otherwise, on scaled instances, every
       auction this person bid in may lack the reserve the N1.1.1 drop
       needs and no drag-and-drop assignment exists.  On the default
       instance this is the same person as the unconstrained pick. *)
    first_match env
      "for $a in /site/open_auctions/open_auction where $a/reserve return \
       $a/bidder/personref/@person"
  in
  let bid_by =
    Cond.Expr
      (Ast.Cmp (Ast.Eq, data "b" "bidder/personref/@person", Ast.str person))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"history" ~var:"b"
            ~source:(Xqtree.Abs (None, path "/site/open_auctions/open_auction"))
            ~conds:[ bid_by ] "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"reserve" ~one_edge:true ~var:"r"
                  ~source:(Xqtree.Rel (path "reserve")) "N1.1.1";
              ];
        ]
  in
  scenario env ~description:"Reserves of auctions where a given person bid" "Q4"
    target

(* ---- Q5: how many sold items cost more than 40 ------------------------ *)
let q5 env =
  let target =
    Xqtree.make ~tag:"result"
      ~func:(Func_spec.Fn ("count", [ Func_spec.Hole 0 ]))
      ~children:
        [
          Xqtree.make ~var:"pr"
            ~source:(Xqtree.Abs (None, path "/site/closed_auctions/closed_auction/price"))
            ~conds:[ Cond.Value (Cond.ep "pr", Ast.Ge, Value.Num 40.) ]
            "N1.1";
        ]
      "N1"
  in
  scenario env ~description:"Number of sold items that cost more than 40" "Q5"
    target

(* ---- Q7: how many pieces of prose are in the database ----------------- *)
let q7 env =
  let target =
    Xqtree.make ~tag:"result"
      ~func:
        (Func_spec.Bin
           ( Ast.Add,
             Func_spec.Bin
               ( Ast.Add,
                 Func_spec.Fn ("count", [ Func_spec.Hole 0 ]),
                 Func_spec.Fn ("count", [ Func_spec.Hole 1 ]) ),
             Func_spec.Fn ("count", [ Func_spec.Hole 2 ]) ))
      ~children:
        [
          Xqtree.make ~var:"d" ~source:(Xqtree.Abs (None, path "//description")) "N1.1";
          Xqtree.make ~var:"t" ~source:(Xqtree.Abs (None, path "//text")) "N1.2";
          Xqtree.make ~var:"m" ~source:(Xqtree.Abs (None, path "//mail")) "N1.3";
        ]
      "N1"
  in
  scenario env ~description:"Amount of prose in the database" "Q7" target

(* ---- Q8: persons with the number of items they bought ----------------- *)
let q8 env =
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"buyer" ~var:"p"
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"pname" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"bought"
                  ~func:(Func_spec.Fn ("count", [ Func_spec.Hole 0 ]))
                  ~children:
                    [
                      Xqtree.make ~var:"ca"
                        ~source:(Xqtree.Abs (None, path "/site/closed_auctions/closed_auction"))
                        ~conds:
                          [
                            Cond.Join (value_ep "ca" "buyer/@person", value_ep "p" "@id");
                          ]
                        "N1.1.2.1";
                    ]
                  "N1.1.2";
              ];
        ]
  in
  scenario env ~description:"Persons and how many items they bought" "Q8" target

(* ---- Q9: persons with the European items they bought ------------------ *)
let q9 env =
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"person" ~var:"p"
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"pname" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"item" ~var:"i"
                  ~source:(Xqtree.Abs (None, path "/site/regions/europe/item"))
                  ~conds:
                    [
                      Cond.Relay
                        {
                          relay_var = "t";
                          relay_doc = None;
                          relay_path = path "/site/closed_auctions/closed_auction";
                          links =
                            [
                              (value_ep "i" "@id", sp "itemref/@item");
                              (value_ep "p" "@id", sp "buyer/@person");
                            ];
                          relay_conds = [];
                        };
                    ]
                  "N1.1.2"
                  ~children:
                    [
                      Xqtree.make ~tag:"iname" ~one_edge:true ~var:"in"
                        ~source:(Xqtree.Rel (path "name")) "N1.1.2.1";
                    ];
              ];
        ]
  in
  scenario env ~description:"Persons and the European items they bought" "Q9"
    target

(* ---- Q10: persons grouped by interest category (wide restructuring) --- *)
let q10 env =
  let leaf label tag rel =
    Xqtree.make ~tag ~var:(String.lowercase_ascii tag) ~source:(Xqtree.Rel (path rel)) label
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"categorie" ~var:"c"
            ~source:(Xqtree.Abs (None, path "/site/categories/category"))
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"cname" ~one_edge:true ~var:"cn"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"personne" ~var:"p"
                  ~source:(Xqtree.Abs (None, path "/site/people/person"))
                  ~conds:
                    [
                      Cond.Join
                        (value_ep "p" "profile/interest/@category", value_ep "c" "@id");
                    ]
                  "N1.1.2"
                  ~children:
                    [
                      Xqtree.make ~tag:"pname" ~one_edge:true ~var:"pn"
                        ~source:(Xqtree.Rel (path "name")) "N1.1.2.1";
                      leaf "N1.1.2.2" "email" "emailaddress";
                      leaf "N1.1.2.3" "koerper" "profile/gender";
                      leaf "N1.1.2.4" "alter" "profile/age";
                      leaf "N1.1.2.5" "bildung" "profile/education";
                      leaf "N1.1.2.6" "einkommen" "profile/@income";
                      leaf "N1.1.2.7" "strasse" "address/street";
                      leaf "N1.1.2.8" "stadt" "address/city";
                      leaf "N1.1.2.9" "land" "address/country";
                      leaf "N1.1.2.10" "kreditkarte" "creditcard";
                      leaf "N1.1.2.11" "webseite" "homepage";
                    ];
              ];
        ]
  in
  scenario env ~description:"Persons grouped by interest category" "Q10" target

(* ---- Q11: for each person, auctions their income can cover ------------ *)
let q11 env =
  let affords =
    Cond.Expr
      (Ast.Cmp
         ( Ast.Gt,
           data "p" "profile/@income",
           Ast.Arith (Ast.Mul, data "oa" "initial", Ast.int 1000) ))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"items" ~var:"p"
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"pname" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"number"
                  ~func:(Func_spec.Fn ("count", [ Func_spec.Hole 0 ]))
                  ~children:
                    [
                      Xqtree.make ~var:"oa"
                        ~source:(Xqtree.Abs (None, path "/site/open_auctions/open_auction"))
                        ~conds:[ affords ] "N1.1.2.1";
                    ]
                  "N1.1.2";
              ];
        ]
  in
  scenario env
    ~description:"Per person, the open auctions their income can cover" "Q11"
    target

(* ---- Q12: Q11 restricted to persons earning more than 50000 ----------- *)
let q12 env =
  let affords =
    Cond.Expr
      (Ast.Cmp
         ( Ast.Gt,
           data "p" "profile/@income",
           Ast.Arith (Ast.Mul, data "oa" "initial", Ast.int 1000) ))
  in
  let rich = Cond.Value (value_ep "p" "profile/@income", Ast.Gt, Value.Num 50000.) in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"items" ~var:"p"
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            ~conds:[ rich ] "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"pname" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"number"
                  ~func:(Func_spec.Fn ("count", [ Func_spec.Hole 0 ]))
                  ~children:
                    [
                      Xqtree.make ~var:"oa"
                        ~source:(Xqtree.Abs (None, path "/site/open_auctions/open_auction"))
                        ~conds:[ affords ] "N1.2.1";
                    ]
                  "N1.1.2";
              ];
        ]
  in
  scenario env ~description:"Q11 for persons with income over 50000" "Q12" target

(* ---- Q13: names and descriptions of Australian items ------------------ *)
let q13 env =
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"item" ~var:"i"
            ~source:(Xqtree.Abs (None, path "/site/regions/australia/item"))
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"iname" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"descr" ~var:"d"
                  ~source:(Xqtree.Rel (path "description")) "N1.1.2";
              ];
        ]
  in
  scenario env ~description:"Names and descriptions of Australian items" "Q13"
    target

(* ---- Q14: items whose description contains the word "gold" ------------ *)
let q14 env =
  let gold =
    Cond.Expr
      (Ast.Call ("contains", [ Ast.Simple (Ast.Var "i", sp "description"); Ast.str "gold" ]))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"item" ~var:"i" ~source:(Xqtree.Abs (None, path "//item"))
            ~conds:[ gold ] "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"iname" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
              ];
        ]
  in
  scenario env ~description:"Items whose description mentions gold" "Q14" target

(* ---- Q15: a long path chain ------------------------------------------- *)
let q15 env =
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"text" ~var:"k"
            ~source:
              (Xqtree.Abs
                 ( None,
                   path
                     "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/keyword/emph"
                 ))
            "N1.1";
        ]
  in
  scenario env ~description:"Deeply nested annotation keywords" "Q15" target

(* ---- Q16: Q15 with a condition on the seller --------------------------- *)
let q16 env =
  let chain = "annotation/description/parlist/listitem/parlist/listitem/text/keyword/emph" in
  let seller =
    first_match env
      ("for $ca in /site/closed_auctions/closed_auction where exists($ca/annotation/description/parlist) return $ca/seller/@person")
  in
  let seller_cond =
    Cond.Expr
      (Ast.Some_
         ( [ ("ca", Ast.abs_path (path "/site/closed_auctions/closed_auction")) ],
           Ast.And
             ( Ast.Cmp (Ast.Is, Ast.Var "k", Ast.Simple (Ast.Var "ca", sp chain)),
               Ast.Cmp (Ast.Eq, data "ca" "seller/@person", Ast.str seller) ) ))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"text" ~var:"k"
            ~source:
              (Xqtree.Abs
                 ( None,
                   path
                     ("/site/closed_auctions/closed_auction/" ^ chain) ))
            ~conds:[ seller_cond ] "N1.1";
        ]
  in
  scenario env ~description:"Q15 restricted by a seller condition" "Q16" target

(* ---- Q17: persons without a homepage ----------------------------------- *)
let q17 env =
  let no_homepage =
    Cond.Neg (Cond.Expr (Ast.Call ("exists", [ Ast.Simple (Ast.Var "p", sp "homepage") ])))
  in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"person" ~var:"p"
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            ~conds:[ no_homepage ] "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"name" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
              ];
        ]
  in
  scenario env ~description:"Persons without a homepage (Negative Condition Box)"
    "Q17" target

(* ---- Q18: currency conversion (user-defined function, inlined) --------- *)
let q18 env =
  let target =
    Xqtree.make ~tag:"result"
      ~func:
        (Func_spec.Bin
           ( Ast.Mul,
             Func_spec.Fn ("sum", [ Func_spec.Hole 0 ]),
             Func_spec.Const (Value.Num 2.20371) ))
      ~children:
        [
          Xqtree.make ~var:"r"
            ~source:(Xqtree.Abs (None, path "/site/open_auctions/open_auction/reserve"))
            "N1.1";
        ]
      "N1"
  in
  scenario env
    ~description:"Currency-converted reserves (UDF learned as plain arithmetic)"
    "Q18" target

(* ---- Q19: items with location, alphabetically ordered ------------------ *)
let q19 env =
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          Xqtree.make ~tag:"item" ~var:"i"
            ~source:(Xqtree.Abs (None, path "/site/regions//item"))
            ~order_by:[ (sp "name", false) ] "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"name" ~one_edge:true ~var:"n"
                  ~source:(Xqtree.Rel (path "name")) "N1.1.1";
                Xqtree.make ~tag:"location" ~var:"l"
                  ~source:(Xqtree.Rel (path "location")) "N1.1.2";
              ];
        ]
  in
  scenario env ~description:"All items with location, ordered by name" "Q19"
    target

(* ---- Q20: customers by income bracket ---------------------------------- *)
let q20 env =
  let band label tag cond =
    Xqtree.make ~tag
      ~func:(Func_spec.Fn ("count", [ Func_spec.Hole 0 ]))
      ~children:
        [
          Xqtree.make ~var:("p" ^ label)
            ~source:(Xqtree.Abs (None, path "/site/people/person"))
            ~conds:[ cond ] (label ^ ".1");
        ]
      label
  in
  let income v = value_ep v "profile/@income" in
  let target =
    Xqtree.make ~tag:"result" "N1"
      ~children:
        [
          band "N1.1" "preferred" (Cond.Value (income "pN1.1", Ast.Ge, Value.Num 100000.));
          band "N1.2" "standard"
            (Cond.Expr
               (Ast.And
                  ( Ast.Cmp (Ast.Ge, data "pN1.2" "profile/@income", Ast.int 50000),
                    Ast.Cmp (Ast.Lt, data "pN1.2" "profile/@income", Ast.int 100000) )));
          band "N1.3" "challenge" (Cond.Value (income "pN1.3", Ast.Lt, Value.Num 50000.));
          band "N1.4" "na"
            (Cond.Neg
               (Cond.Expr
                  (Ast.Call ("exists", [ Ast.Simple (Ast.Var "pN1.4", sp "profile/@income") ]))));
        ]
  in
  scenario env ~description:"Customers grouped by income bracket" "Q20" target

(** The 19 learnable XMark queries, in Figure 16 order. *)
let all ?scale ?seed ?streamed () : (string * Xl_core.Scenario.t) list =
  let env = make_env ?scale ?seed ?streamed () in
  [
    ("Q1", q1 env); ("Q2", q2 env); ("Q3", q3 env); ("Q4", q4 env);
    ("Q5", q5 env); ("Q7", q7 env); ("Q8", q8 env); ("Q9", q9 env);
    ("Q10", q10 env); ("Q11", q11 env); ("Q12", q12 env); ("Q13", q13 env);
    ("Q14", q14 env); ("Q15", q15 env); ("Q16", q16 env); ("Q17", q17 env);
    ("Q18", q18 env); ("Q19", q19 env); ("Q20", q20 env);
  ]
