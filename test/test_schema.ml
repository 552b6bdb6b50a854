(* Unit and property tests for the DTD substrate (xl_schema). *)

open Xl_schema

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let dtd_text =
  {|<!ELEMENT site (regions, categories)>
    <!ELEMENT regions (europe, africa?)>
    <!ELEMENT europe (item*)>
    <!ELEMENT africa (item+)>
    <!ELEMENT item (name, incategory, description*)>
    <!ATTLIST item id ID #REQUIRED featured CDATA #IMPLIED>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT incategory EMPTY>
    <!ATTLIST incategory category IDREF #REQUIRED>
    <!ELEMENT description (#PCDATA | bold)*>
    <!ELEMENT bold (#PCDATA)>
    <!ELEMENT categories (category*)>
    <!ELEMENT category (name)>
    <!ATTLIST category id ID #REQUIRED>|}

let dtd () = Dtd_parser.parse dtd_text

(* ---------- content models ----------------------------------------------- *)

let test_content_model_parse () =
  let d = dtd () in
  (match Dtd.find d "site" with
  | Some el ->
    check cstr "seq model" "(regions,categories)" (Content_model.to_string el.Dtd.content)
  | None -> Alcotest.fail "site missing");
  (match Dtd.find d "description" with
  | Some el ->
    check cstr "mixed model" "(#PCDATA|bold)*" (Content_model.to_string el.Dtd.content)
  | None -> Alcotest.fail "description missing");
  match Dtd.find d "incategory" with
  | Some el -> check cstr "empty" "EMPTY" (Content_model.to_string el.Dtd.content)
  | None -> Alcotest.fail "incategory missing"

let test_child_names () =
  let d = dtd () in
  check cbool "site children" true (Dtd.children_of d "site" = [ "regions"; "categories" ]);
  check cbool "regions children" true (Dtd.children_of d "regions" = [ "europe"; "africa" ]);
  check cbool "description children" true (Dtd.children_of d "description" = [ "bold" ])

let test_one_to_one () =
  let d = dtd () in
  check cbool "site->regions is 1-1" true (Dtd.one_to_one d ~parent:"site" ~child:"regions");
  check cbool "item->name is 1-1" true (Dtd.one_to_one d ~parent:"item" ~child:"name");
  check cbool "regions->africa optional" false (Dtd.one_to_one d ~parent:"regions" ~child:"africa");
  check cbool "europe->item starred" false (Dtd.one_to_one d ~parent:"europe" ~child:"item");
  check cbool "item->description starred" false
    (Dtd.one_to_one d ~parent:"item" ~child:"description")

let test_occurs_exactly_once_combinators () =
  let open Content_model in
  let m p = occurs_exactly_once (Children p) "x" in
  check cbool "plain name" true (m (Name "x"));
  check cbool "in sequence" true (m (Seq [ Name "a"; Name "x" ]));
  check cbool "optional" false (m (Opt (Name "x")));
  check cbool "choice both sides" true (m (Choice [ Name "x"; Seq [ Name "x"; Name "a" ] ]));
  check cbool "choice one side" false (m (Choice [ Name "x"; Name "a" ]));
  check cbool "twice" false (m (Seq [ Name "x"; Name "x" ]));
  check cbool "plus" false (m (Plus (Name "x")))

let test_attributes () =
  let d = dtd () in
  check cint "item attlist" 2 (List.length (Dtd.attributes_of d "item"));
  check cbool "attribute symbols" true
    (List.mem "@id" (Dtd.attribute_symbols d) && List.mem "@category" (Dtd.attribute_symbols d));
  check cbool "path symbols include #text" true (List.mem "#text" (Dtd.path_symbols d))

(* ---------- DTD parser on the real XMark DTD ------------------------------ *)

let test_xmark_dtd () =
  let d = Xl_workload.Xmark_dtd.get () in
  check cstr "root" "site" (Dtd.root d);
  check cbool "all elements declared" true (List.length (Dtd.element_names d) > 50);
  check cbool "open_auction content parsed" true
    (Dtd.children_of d "open_auction"
    = [ "initial"; "reserve"; "bidder"; "current"; "privacy"; "itemref"; "seller";
        "annotation"; "quantity"; "type"; "interval" ])

(* ---------- validation ----------------------------------------------------- *)

let valid_doc () =
  Xl_xml.Xml_parser.parse_doc
    {|<site>
        <regions>
          <europe>
            <item id="i1"><name>n</name><incategory category="c1"/></item>
          </europe>
        </regions>
        <categories><category id="c1"><name>books</name></category></categories>
      </site>|}

let test_validate_ok () =
  check cint "no violations" 0 (List.length (Validate.validate (dtd ()) (valid_doc ())))

let test_validate_failures () =
  let violations src =
    List.length (Validate.validate (dtd ()) (Xl_xml.Xml_parser.parse_doc src))
  in
  check cbool "wrong root" true (violations "<categories/>" > 0);
  check cbool "bad content order" true
    (violations "<site><categories/><regions><europe/></regions></site>" > 0);
  check cbool "missing required attr" true
    (violations
       {|<site><regions><europe><item><name>n</name><incategory category="c1"/></item></europe></regions><categories><category id="c1"><name>b</name></category></categories></site>|}
    > 0);
  check cbool "dangling idref" true
    (violations
       {|<site><regions><europe><item id="i1"><name>n</name><incategory category="zz"/></item></europe></regions><categories><category id="c1"><name>b</name></category></categories></site>|}
    > 0);
  check cbool "duplicate id" true
    (violations
       {|<site><regions><europe><item id="x"><name>n</name><incategory category="x"/></item><item id="x"><name>n</name><incategory category="x"/></item></europe></regions><categories><category id="x"><name>b</name></category></categories></site>|}
    > 0);
  check cbool "undeclared element" true
    (violations "<site><regions><europe><unknown/></europe></regions><categories/></site>" > 0)

let test_validate_generated_xmark () =
  let doc, violations =
    Xl_workload.Xmark_gen.generate_valid Xl_workload.Xmark_gen.tiny_scale
  in
  check cbool "generated data is schema-valid" true (violations = []);
  check cbool "non-trivial" true (Xl_xml.Doc.node_count doc > 100)

(* ---------- schema path language (rule R1) --------------------------------- *)

let test_admits () =
  let sp = Schema_paths.compile (dtd ()) in
  let yes p = check cbool (String.concat "/" p) true (Schema_paths.admits sp p) in
  let no p = check cbool (String.concat "/" p) false (Schema_paths.admits sp p) in
  yes [ "site" ];
  yes [ "site"; "regions"; "europe"; "item"; "name" ];
  yes [ "site"; "regions"; "europe"; "item"; "@id" ];
  yes [ "site"; "regions"; "europe"; "item"; "incategory"; "@category" ];
  yes [ "site"; "regions"; "europe"; "item"; "name"; "#text" ];
  no [ "regions" ];
  no [ "site"; "europe" ];
  no [ "site"; "regions"; "europe"; "item"; "@nosuch" ];
  no [ "site"; "regions"; "europe"; "item"; "#text" ];
  no [ "site"; "regions"; "europe"; "item"; "name"; "name" ];
  no [ "site"; "unknown" ]

let test_admits_attr_not_prefix () =
  let sp = Schema_paths.compile (dtd ()) in
  check cbool "attr mid-path rejected" false
    (Schema_paths.admits sp [ "site"; "regions"; "europe"; "item"; "@id"; "name" ])

(* a content model may name an element no declaration defines, and the
   root may be undeclared: the path language admits the step and nothing
   below it *)
let undeclared_dtd_text = "<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)>"

let test_to_dfa_undeclared_names () =
  let accepts d path =
    let alphabet = Xl_automata.Alphabet.of_list [ "a"; "b"; "c"; "r"; "#text" ] in
    Xl_automata.Dfa.accepts
      (Schema_paths.to_dfa (Schema_paths.compile d) alphabet)
      (Xl_automata.Alphabet.encode alphabet path)
  in
  let d = Dtd_parser.parse undeclared_dtd_text in
  check cbool "a/c accepted" true (accepts d [ "a"; "c" ]);
  check cbool "a/c/#text rejected" false (accepts d [ "a"; "c"; "#text" ]);
  check cbool "a/b/#text accepted" true (accepts d [ "a"; "b"; "#text" ]);
  let rootless = Dtd_parser.parse ~root:"r" "<!ELEMENT b (#PCDATA)>" in
  check cbool "undeclared root accepted" true (accepts rootless [ "r" ]);
  check cbool "nothing below it" false (accepts rootless [ "r"; "b" ])

let test_max_depth () =
  let sp = Schema_paths.compile (dtd ()) in
  check cint "depth" 6 (Schema_paths.max_depth sp);
  let rec_dtd = Dtd_parser.parse "<!ELEMENT a (a?)>" in
  check cbool "recursion capped" true
    (Schema_paths.max_depth ~cap:10 (Schema_paths.compile rec_dtd) >= 10)

let test_dtd_to_string_roundtrip () =
  let d = dtd () in
  let d2 = Dtd_parser.parse (Dtd.to_string d) in
  check cbool "same elements" true (Dtd.element_names d = Dtd.element_names d2);
  check cbool "same one-to-one analysis" true
    (Dtd.one_to_one d ~parent:"item" ~child:"name"
    = Dtd.one_to_one d2 ~parent:"item" ~child:"name")

(* ---------- Relax NG (Section 8's actual filter) ---------------------------- *)

let rnc_text =
  {|# a bibliography schema in compact syntax
    start = bib
    bib = element bib { book* }
    book = element book { attribute year { text }, title, author+, price? }
    title = element title { text }
    author = element author { element first { text }, element last { text } }
    price = element price { text }|}

let test_relaxng_parse_and_admits () =
  let rng = Relaxng.parse rnc_text in
  let yes p = check cbool (String.concat "/" p) true (Relaxng.admits rng p) in
  let no p = check cbool (String.concat "/" p) false (Relaxng.admits rng p) in
  yes [ "bib" ];
  yes [ "bib"; "book" ];
  yes [ "bib"; "book"; "@year" ];
  yes [ "bib"; "book"; "author"; "last" ];
  yes [ "bib"; "book"; "title"; "#text" ];
  no [ "book" ];
  no [ "bib"; "title" ];
  no [ "bib"; "book"; "@id" ];
  no [ "bib"; "book"; "author"; "last"; "first" ];
  no [ "bib"; "book"; "#text" ]

let test_relaxng_of_dtd_agrees () =
  (* the DTD conversion preserves the path language *)
  let d = dtd () in
  let rng = Relaxng.of_dtd d in
  let sp = Schema_paths.compile d in
  let paths =
    [
      [ "site" ]; [ "site"; "regions"; "europe"; "item"; "name" ];
      [ "site"; "regions"; "europe"; "item"; "@id" ];
      [ "site"; "regions"; "europe"; "item"; "name"; "#text" ];
      [ "site"; "europe" ]; [ "site"; "regions"; "europe"; "item"; "@nope" ];
      [ "regions" ]; [ "site"; "categories"; "category"; "name" ];
      [ "site"; "regions"; "africa"; "item"; "incategory"; "@category" ];
    ]
  in
  List.iter
    (fun p ->
      check cbool (String.concat "/" p) (Schema_paths.admits sp p) (Relaxng.admits rng p))
    paths

let test_relaxng_roundtrip () =
  let rng = Relaxng.parse rnc_text in
  let rng2 = Relaxng.parse (Relaxng.to_string rng) in
  check cbool "printed schema reparses to the same language" true
    (List.for_all
       (fun p -> Relaxng.admits rng p = Relaxng.admits rng2 p)
       [ [ "bib"; "book"; "title" ]; [ "bib"; "book"; "author"; "first" ]; [ "bib"; "x" ] ])

(* ---------- DataGuide --------------------------------------------------------- *)

let test_dataguide () =
  let doc = valid_doc () in
  let dg = Dataguide.of_doc doc in
  check cbool "instance path admitted" true
    (Dataguide.admits dg [ "site"; "regions"; "europe"; "item"; "name" ]);
  check cbool "attributes admitted" true
    (Dataguide.admits dg [ "site"; "regions"; "europe"; "item"; "@id" ]);
  check cbool "prefix admitted" true (Dataguide.admits dg [ "site"; "regions" ]);
  check cbool "absent path rejected" false
    (Dataguide.admits dg [ "site"; "regions"; "africa" ]);
  check cbool "empty path rejected" false (Dataguide.admits dg []);
  check cbool "size counts distinct paths" true (Dataguide.size dg > 5);
  check cbool "paths listing is consistent" true
    (List.for_all (Dataguide.admits dg) (Dataguide.paths dg));
  (* the DataGuide language is a subset of the schema language *)
  let sp = Schema_paths.compile (dtd ()) in
  check cbool "dataguide refines the schema" true
    (List.for_all (Schema_paths.admits sp) (Dataguide.paths dg))

let test_dataguide_dfa_agrees () =
  let doc = valid_doc () in
  let dg = Dataguide.of_doc doc in
  let alphabet =
    Xl_automata.Alphabet.of_list
      ([ "site"; "regions"; "europe"; "item"; "name"; "incategory"; "categories";
         "category"; "@id"; "@category"; "#text"; "bogus" ])
  in
  let dfa = Dataguide.to_dfa dg alphabet in
  List.iter
    (fun p ->
      let direct = Dataguide.admits dg p in
      let via_dfa =
        match Xl_automata.Alphabet.encode_opt alphabet p with
        | Some w -> Xl_automata.Dfa.accepts dfa w
        | None -> false
      in
      check cbool ("dfa " ^ String.concat "/" p) direct via_dfa)
    [
      [ "site" ]; [ "site"; "regions"; "europe"; "item" ];
      [ "site"; "regions"; "europe"; "item"; "@id" ]; [ "site"; "bogus" ];
      [ "bogus" ]; [ "site"; "categories"; "category"; "name" ];
    ]

(* ---------- Schema sources ----------------------------------------------------- *)

let test_schema_source_dispatch () =
  let d = dtd () in
  let sources =
    [
      Schema_source.of_dtd d;
      Schema_source.of_relaxng (Relaxng.of_dtd d);
      Schema_source.of_dataguide (Dataguide.of_doc (valid_doc ()));
    ]
  in
  (* a path in the instance is admitted by all three *)
  let p = [ "site"; "regions"; "europe"; "item"; "name" ] in
  List.iter
    (fun src ->
      check cbool (Schema_source.describe src) true (Schema_source.admits src p))
    sources;
  (* an impossible path is rejected by all three *)
  let bad = [ "site"; "nothing" ] in
  List.iter
    (fun src ->
      check cbool ("reject " ^ Schema_source.describe src) false
        (Schema_source.admits src bad))
    sources

(* Every source kind's DFA accepts exactly what its reference walk
   admits.  A path is spelled by a list of choices: [(true, i)] takes the
   i-th step the source admits next (when there is one), [(false, i)]
   the i-th symbol of the whole alphabet — so paths run deep into each
   language and then step off it, with the empty path, attribute and
   text steps mid-path, and a symbol no source knows among them. *)
let prop_schema_dfa_agrees =
  let d = dtd () in
  let xmark = Xl_workload.Xmark_dtd.get () in
  let undeclared = Dtd_parser.parse undeclared_dtd_text in
  let sources =
    [
      Schema_source.of_dtd xmark;
      Schema_source.of_dtd d;
      Schema_source.of_dtd undeclared;
      Schema_source.of_relaxng (Relaxng.parse rnc_text);
      Schema_source.of_relaxng (Relaxng.of_dtd xmark);
      Schema_source.of_relaxng (Relaxng.of_dtd undeclared);
      Schema_source.of_dataguide (Dataguide.of_doc (valid_doc ()));
    ]
  in
  let symbols =
    List.sort_uniq String.compare
      (List.concat_map Dtd.path_symbols [ xmark; d; undeclared ]
      @ [ "c"; "bib"; "book"; "@year"; "title"; "author"; "first"; "last"; "price";
          "bogus" ])
    |> Array.of_list
  in
  let alphabet = Xl_automata.Alphabet.of_list (Array.to_list symbols) in
  let dfas = List.map (fun src -> (src, Schema_source.to_dfa src alphabet)) sources in
  let path_of src choices =
    List.fold_left
      (fun path (follow, i) ->
        let next =
          if follow then
            List.filter
              (fun sym -> Schema_source.admits src (path @ [ sym ]))
              (Array.to_list symbols)
          else []
        in
        let sym =
          match next with
          | [] -> symbols.(i mod Array.length symbols)
          | _ -> List.nth next (i mod List.length next)
        in
        path @ [ sym ])
      [] choices
  in
  let gen = QCheck2.Gen.(list_size (0 -- 8) (pair (frequency [ (4, pure true); (1, pure false) ]) nat)) in
  QCheck2.Test.make ~name:"schema DFA agrees with admits" ~count:300 gen (fun choices ->
      List.for_all
        (fun (src, dfa) ->
          let path = path_of src choices in
          Xl_automata.Dfa.accepts dfa (Xl_automata.Alphabet.encode alphabet path)
          = Schema_source.admits src path)
        dfas)

let () =
  Alcotest.run "xl_schema"
    [
      ( "content-model",
        [
          Alcotest.test_case "parse" `Quick test_content_model_parse;
          Alcotest.test_case "child names" `Quick test_child_names;
          Alcotest.test_case "one-to-one" `Quick test_one_to_one;
          Alcotest.test_case "occurs-exactly-once" `Quick test_occurs_exactly_once_combinators;
          Alcotest.test_case "attributes" `Quick test_attributes;
        ] );
      ("xmark-dtd", [ Alcotest.test_case "parses fully" `Quick test_xmark_dtd ]);
      ( "validate",
        [
          Alcotest.test_case "valid document" `Quick test_validate_ok;
          Alcotest.test_case "violations" `Quick test_validate_failures;
          Alcotest.test_case "generated xmark" `Quick test_validate_generated_xmark;
        ] );
      ( "schema-paths",
        [
          Alcotest.test_case "admits" `Quick test_admits;
          Alcotest.test_case "attr terminates" `Quick test_admits_attr_not_prefix;
          Alcotest.test_case "undeclared names" `Quick test_to_dfa_undeclared_names;
          QCheck_alcotest.to_alcotest prop_schema_dfa_agrees;
          Alcotest.test_case "max depth" `Quick test_max_depth;
        ] );
      ( "printer",
        [ Alcotest.test_case "to_string roundtrip" `Quick test_dtd_to_string_roundtrip ] );
      ( "relaxng",
        [
          Alcotest.test_case "parse and admits" `Quick test_relaxng_parse_and_admits;
          Alcotest.test_case "DTD conversion agrees" `Quick test_relaxng_of_dtd_agrees;
          Alcotest.test_case "print roundtrip" `Quick test_relaxng_roundtrip;
        ] );
      ( "dataguide",
        [
          Alcotest.test_case "trie semantics" `Quick test_dataguide;
          Alcotest.test_case "dfa agrees" `Quick test_dataguide_dfa_agrees;
        ] );
      ( "schema-source",
        [ Alcotest.test_case "dispatch" `Quick test_schema_source_dispatch ] );
    ]
