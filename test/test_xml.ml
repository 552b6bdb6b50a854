(* Unit and property tests for the XML substrate (xl_xml). *)

open Xl_xml

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

(* ---------- Dewey ------------------------------------------------------- *)

let test_dewey_order () =
  check cint "root vs root" 0 (Dewey.compare [ 1 ] [ 1 ]);
  check cbool "prefix smaller" true (Dewey.compare [ 1 ] [ 1; 1 ] < 0);
  check cbool "sibling order" true (Dewey.compare [ 1; 2 ] [ 1; 10 ] < 0);
  check cbool "document order across depth" true (Dewey.compare [ 1; 2; 9 ] [ 1; 3 ] < 0)


let test_dewey_strings () =
  check cstr "to_string" "1.2.3" (Dewey.to_string [ 1; 2; 3 ]);
  check cbool "roundtrip" true (Dewey.of_string "1.2.3" = [ 1; 2; 3 ])

(* ---------- Frag -------------------------------------------------------- *)

let sample =
  Frag.e "site"
    [
      Frag.e "regions"
        [
          Frag.e "europe"
            [
              Frag.e "item" ~attrs:[ ("id", "i7") ]
                [ Frag.elem "name" "H. Potter"; Frag.elem "description" "Best Seller" ];
            ];
        ];
      Frag.e "categories" [ Frag.e "category" ~attrs:[ ("id", "c2") ] [ Frag.elem "name" "book" ] ];
    ]

let test_frag_basics () =
  check cint "size counts elements" 9 (Frag.size sample);
  check cstr "string_value concatenates" "H. PotterBest Sellerbook" (Frag.string_value sample);
  check cbool "equal reflexive" true (Frag.equal sample sample);
  check cbool "equal distinguishes" false (Frag.equal sample (Frag.elem "site" "x"))

(* ---------- Doc / Node --------------------------------------------------- *)

let doc () = Doc.of_frag ~uri:"test.xml" sample

let test_doc_structure () =
  let d = doc () in
  let root = Doc.root d in
  check cstr "root tag" "site" root.Node.name;
  check cint "two children" 2 (List.length (Node.element_children root));
  check cbool "root has document parent" true
    (match Node.parent root with Some p -> p.Node.kind = Node.Document | None -> false)

let test_tag_path () =
  let d = doc () in
  match Doc.node_with_path d [ "site"; "regions"; "europe"; "item"; "name" ] with
  | None -> Alcotest.fail "name node not found"
  | Some n ->
    check cstr "string value" "H. Potter" (Node.string_value n);
    check cbool "tag_path roundtrip" true
      (Node.tag_path n = [ "site"; "regions"; "europe"; "item"; "name" ])

let test_attribute_path () =
  let d = doc () in
  match Doc.node_with_path d [ "site"; "regions"; "europe"; "item"; "@id" ] with
  | None -> Alcotest.fail "@id not found"
  | Some a ->
    check cbool "is attribute" true (Node.is_attribute a);
    check cstr "value" "i7" a.Node.value;
    check cstr "symbol" "@id" (Node.symbol a)

let test_document_order () =
  let d = doc () in
  let nodes = Doc.nodes d in
  let sorted = List.sort Node.compare_order nodes in
  let ids l = List.map (fun n -> n.Node.id) l in
  check cbool "Doc.nodes is already document order" true (ids nodes = ids sorted);
  let name_item = Doc.node_with_path d [ "site"; "regions"; "europe"; "item"; "name" ] in
  let name_cat = Doc.node_with_path d [ "site"; "categories"; "category"; "name" ] in
  match name_item, name_cat with
  | Some a, Some b -> check cbool "item name before category name" true (Node.compare_order a b < 0)
  | _ -> Alcotest.fail "nodes missing"

let test_rank_ordinal_dewey () =
  let d = doc () in
  (* preorder, attributes before children, the document node first *)
  List.iteri
    (fun r n -> check cint (Printf.sprintf "rank of %s" (Node.symbol n)) r n.Node.rank)
    (d.Doc.doc_node :: Doc.all_nodes d);
  let at path = Option.get (Doc.node_with_path d path) in
  let item = at [ "site"; "regions"; "europe"; "item" ] in
  let id = at [ "site"; "regions"; "europe"; "item"; "@id" ] in
  let name = at [ "site"; "regions"; "europe"; "item"; "name" ] in
  let cat = at [ "site"; "categories" ] in
  check cint "attribute ordinal" 1 id.Node.ordinal;
  check cint "children count after attributes" 2 name.Node.ordinal;
  check cbool "document node code" true (Node.dewey d.Doc.doc_node = []);
  check cbool "root element code" true (Node.dewey (Doc.root d) = [ 1 ]);
  check cbool "attribute code" true (Node.dewey id = [ 1; 1; 1; 1; 1 ]);
  check cbool "child code" true (Node.dewey name = [ 1; 1; 1; 1; 2 ]);
  check cbool "second child code" true (Node.dewey cat = [ 1; 2 ]);
  check cstr "pp shows the code" "name(1.1.1.1.2)" (Format.asprintf "%a" Node.pp name);
  check cbool "the attribute hangs off the item" true
    (match Node.parent id with Some p -> p == item | None -> false)

let test_all_nodes_count () =
  let d = doc () in
  (* 9 elements + 2 attributes + 3 texts + 1 document node indexed *)
  check cint "node_count" 15 (Doc.node_count d);
  check cint "element+attr nodes" 11 (List.length (Doc.nodes d))

(* Ancestorship by parent links is strict Dewey-prefix ancestorship. *)
let test_dewey_ancestor () =
  let d = doc () in
  let rec strict_prefix p q =
    match p, q with
    | [], _ :: _ -> true
    | x :: p', y :: q' -> x = y && strict_prefix p' q'
    | _ -> false
  in
  let nodes = d.Doc.doc_node :: Doc.all_nodes d in
  List.iter
    (fun a ->
      List.iter
        (fun n ->
          check cbool
            (Format.asprintf "%a ancestor of %a" Node.pp a Node.pp n)
            (strict_prefix (Node.dewey a) (Node.dewey n))
            (Node.is_ancestor a n))
        nodes)
    nodes

(* ---------- Parser ------------------------------------------------------- *)

let test_parse_simple () =
  let f = Xml_parser.parse "<a x='1'><b>hi</b><c/></a>" in
  check cbool "structure" true
    (Frag.equal f (Frag.e "a" ~attrs:[ ("x", "1") ] [ Frag.elem "b" "hi"; Frag.e "c" [] ]))

let test_parse_entities () =
  let f = Xml_parser.parse "<a>&lt;tag&gt; &amp; &quot;x&quot; &#65;&#x42;</a>" in
  check cstr "decoded" "<tag> & \"x\" AB" (Frag.string_value f)

let test_parse_cdata_comments () =
  let f = Xml_parser.parse "<a><!-- note --><![CDATA[1 < 2 & 3]]></a>" in
  check cstr "cdata" "1 < 2 & 3" (Frag.string_value f)

let test_parse_prolog_doctype () =
  let f =
    Xml_parser.parse
      "<?xml version=\"1.0\"?><!DOCTYPE site [<!ELEMENT site (a)*>]><site><a/></site>"
  in
  check cbool "root" true (match f with Frag.E ("site", _, _) -> true | _ -> false)

let test_parse_whitespace_dropped () =
  let f = Xml_parser.parse "<a>\n  <b>x</b>\n  <c>y</c>\n</a>" in
  match f with
  | Frag.E ("a", _, kids) -> check cint "two children, no ws text" 2 (List.length kids)
  | _ -> Alcotest.fail "bad parse"

let test_parse_errors () =
  let fails s =
    match Xml_parser.parse s with
    | exception Xml_parser.Parse_error _ -> true
    | _ -> false
  in
  check cbool "mismatched tags" true (fails "<a></b>");
  check cbool "unterminated" true (fails "<a><b>");
  check cbool "junk after root" true (fails "<a/><b/>");
  check cbool "bad entity" true (fails "<a>&nosuch;</a>")

(* ---------- Serializer ---------------------------------------------------- *)

let test_serialize_escaping () =
  let f = Frag.e "a" ~attrs:[ ("k", "a\"b<c") ] [ Frag.T "x<y&z>" ] in
  check cstr "escaped" "<a k=\"a&quot;b&lt;c\">x&lt;y&amp;z&gt;</a>"
    (Serialize.frag_to_string f)

let test_serialize_node_roundtrip () =
  let d = doc () in
  let s = Serialize.node_to_string (Doc.root d) in
  let f = Xml_parser.parse s in
  check cbool "frag equal after roundtrip" true (Frag.equal f sample)

(* ---------- Store ---------------------------------------------------------- *)

let test_store () =
  let d1 = Doc.of_frag ~uri:"a.xml" (Frag.elem "a" "1") in
  let d2 = Doc.of_frag ~uri:"b.xml" (Frag.elem "b" "2") in
  let st = Store.of_docs [ d1; d2 ] in
  check cstr "default is first" "a.xml" (Doc.uri (Store.default st));
  check cbool "find by uri" true (Store.find st "b.xml" <> None);
  check cbool "find by basename" true (Store.find st "/tmp/b.xml" <> None);
  check cbool "missing" true (Store.find st "c.xml" = None);
  check cbool "value index covers both documents" true
    (List.for_all
       (fun v -> List.length (Hashtbl.find (Store.value_index st) v) = 1)
       [ "1"; "2" ])

let test_store_reuse () =
  let _, fz = Frozen_builder.of_frag ~uri:"sample.xml" sample in
  let store = Store.of_frozen [ fz ] in
  (* the store must keep the given snapshot, not re-freeze *)
  check cbool "store reuses the supplied snapshot" true
    (match Store.frozen_docs store with
    | [ fz' ] -> fz' == fz
    | _ -> false);
  check cbool "store queries work" true
    (List.length
       (List.filter
          (fun n -> String.equal (Node.symbol n) "item")
          (Doc.nodes (Store.default store)))
     = 1)

(* ---------- Frozen ---------------------------------------------------------- *)

let test_frozen_document_order () =
  let d = doc () in
  let fz = Frozen.freeze d in
  (* Doc.all_nodes omits the document node, which freezing puts at 0 *)
  let expected = List.sort Node.compare_order (d.Doc.doc_node :: Doc.all_nodes d) in
  check cint "size is node count" (List.length expected) (Frozen.size fz);
  check cint "nodes array matches size" (Frozen.size fz) (Array.length (Frozen.nodes fz));
  List.iteri
    (fun p n ->
      check cbool
        (Printf.sprintf "position %d is document-order node %d" p n.Node.id)
        true
        (Node.equal (Frozen.node fz p) n))
    expected;
  check cbool "position 0 is the doc node" true
    ((Frozen.node fz 0).Node.kind = Node.Document);
  (* per-position symbol ids decode to the node's symbol *)
  Array.iteri
    (fun p n ->
      check cstr
        (Printf.sprintf "symbol at %d" p)
        (Node.symbol n)
        fz.Frozen.symbols.(fz.Frozen.sym.(p)))
    (Frozen.nodes fz)

let test_frozen_structure_consistency () =
  let d = doc () in
  let fz = Frozen.freeze d in
  let n = Frozen.size fz in
  check cint "doc node has no parent" (-1) fz.Frozen.parent.(0);
  check cint "doc subtree spans everything" n fz.Frozen.subtree_end.(0);
  for p = 0 to n - 1 do
    let e = fz.Frozen.subtree_end.(p) in
    check cbool (Printf.sprintf "subtree of %d is non-empty and in range" p) true
      (e > p && e <= n);
    (* every position strictly inside [p]'s subtree has its parent inside
       it too, and every position outside doesn't chain back to [p] *)
    for q = p + 1 to n - 1 do
      let inside = q < e in
      let par = fz.Frozen.parent.(q) in
      if inside then
        check cbool (Printf.sprintf "parent of %d stays in subtree of %d" q p) true
          (par >= p && par < e)
      else
        check cbool (Printf.sprintf "%d outside subtree of %d" q p) true (par < p || par >= e)
    done;
    (* sibling/child links agree with parent links *)
    let fc = fz.Frozen.first_child.(p) in
    if fc >= 0 then (
      check cint (Printf.sprintf "first child of %d" p) p fz.Frozen.parent.(fc);
      check cint "first child is the next position" (p + 1) fc);
    let ns = fz.Frozen.next_sibling.(p) in
    if ns >= 0 then (
      check cbool (Printf.sprintf "next sibling of %d shares parent" p) true
        (fz.Frozen.parent.(ns) = fz.Frozen.parent.(p));
      check cint (Printf.sprintf "sibling of %d starts after its subtree" p) e ns)
  done

let test_frozen_pos_of_node () =
  let d = doc () in
  let fz = Frozen.freeze d in
  Array.iteri
    (fun p n ->
      match Frozen.pos_of_node fz n with
      | Some p' -> check cint (Printf.sprintf "pos_of_node roundtrip %d" p) p p'
      | None -> Alcotest.failf "node at position %d not found" p)
    (Frozen.nodes fz);
  let other = Doc.of_frag ~uri:"other.xml" (Frag.elem "a" "x") in
  check cbool "foreign node has no position" true
    (Frozen.pos_of_node fz (Doc.root other) = None)

(* ---------- SAX events and error locations ------------------------------ *)

let test_sax_events () =
  let src = "<a x=\"1\"><!-- c --><b/>hi<![CDATA[ there ]]></a>" in
  let events = List.rev (Xml_parser.fold_events src ~init:[] ~f:(fun acc e -> e :: acc)) in
  check cbool "event stream" true
    (events
    = [
        Xml_parser.Start_element ("a", [ ("x", "1") ]);
        Xml_parser.Start_element ("b", []);
        Xml_parser.End_element;
        Xml_parser.Text "hi";
        Xml_parser.Text " there ";
        Xml_parser.End_element;
      ]);
  (* whitespace-only text (CDATA included) never reaches the consumer *)
  let ws = "<a>\n  <b> </b> <![CDATA[\n]]></a>" in
  let texts =
    Xml_parser.fold_events ws ~init:0 ~f:(fun acc -> function
      | Xml_parser.Text _ -> acc + 1 | _ -> acc)
  in
  check cint "no ws-only text events" 0 texts

let test_parse_error_location () =
  let expect_loc src line col =
    match Xml_parser.parse src with
    | _ -> Alcotest.failf "parse of %S should fail" src
    | exception Xml_parser.Parse_error (_, loc) ->
      check cint (Printf.sprintf "line of %S" src) line loc.Xml_parser.line;
      check cint (Printf.sprintf "col of %S" src) col loc.Xml_parser.col
  in
  (* mismatched close tag on line 2 *)
  expect_loc "<a>\n  <b></c>\n</a>" 2 9;
  (* unterminated document: error at EOF, line 3 *)
  expect_loc "<a>\n<b>\n</b>" 3 5;
  (* broken attribute syntax on line 1 *)
  expect_loc "<a x=1></a>" 1 6

(* ---------- Streaming builder ------------------------------------------- *)

let streaming_sample_xml =
  "<site><regions><europe><item id=\"i7\" featured=\"yes\"><name>H. \
   Potter</name><desc>Best &amp; <em>seller</em><!-- note --></desc></item>\n\
   <item id=\"i8\"/></europe></regions><people/></site>"

let test_streaming_matches_tree () =
  let tree_fz =
    Frozen.freeze (Xml_parser.parse_doc ~uri:"s.xml" streaming_sample_xml)
  in
  let _, stream_fz = Frozen_builder.parse ~uri:"s.xml" streaming_sample_xml in
  check cbool "streamed snapshot equals frozen tree" true
    (Frozen.structural_equal tree_fz stream_fz);
  (* the builder's document side behaves like Doc.of_frag's *)
  let sdoc, fz2 = Frozen_builder.parse ~uri:"s.xml" streaming_sample_xml in
  check cbool "builder doc indexed" true
    (Doc.node_with_path sdoc [ "site"; "regions"; "europe"; "item" ] <> None);
  check cint "doc node count matches rows" (Doc.node_count sdoc) (Frozen.size fz2)

let test_streaming_of_frag () =
  let tree_fz = Frozen.freeze (Doc.of_frag ~uri:"sample.xml" sample) in
  let _, stream_fz = Frozen_builder.of_frag ~uri:"sample.xml" sample in
  check cbool "of_frag parity on the shared sample" true
    (Frozen.structural_equal tree_fz stream_fz);
  check cbool "text root rejected" true
    (match Frozen_builder.of_frag (Frag.T "x") with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_builder_misuse () =
  let b = Frozen_builder.create () in
  check cbool "close without open" true
    (match Frozen_builder.close_element b with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Frozen_builder.open_element b "r" [];
  Frozen_builder.close_element b;
  check cbool "second root rejected" true
    (match Frozen_builder.open_element b "r2" [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let b2 = Frozen_builder.create () in
  Frozen_builder.open_element b2 "r" [];
  check cbool "finish with open elements rejected" true
    (match Frozen_builder.finish b2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Positions from ranks ------------------------------------------- *)

(* [pos_of_node] reads the node's rank and checks the slot holds that very
   node, so neither id gaps nor interleaved ids matter, and a node of
   another snapshot with the same rank is foreign. *)
let test_pos_of_node_gaps_and_domains () =
  let roundtrip label fz =
    Array.iteri
      (fun p n ->
        check cbool (Printf.sprintf "%s: position %d round-trips" label p) true
          (Frozen.pos_of_node fz n = Some p))
      (Frozen.nodes fz)
  in
  (* a document with a hole in its id range, hand-assembled the way the
     streaming builder places nodes *)
  let doc_node = Doc.make_node ~rank:0 ~ordinal:0 Node.Document "" "" in
  ignore (Doc.make_node ~rank:0 ~ordinal:0 Node.Text "" "the hole");
  let root = Doc.make_node ~rank:1 ~ordinal:1 Node.Element "r" "" in
  root.Node.parent <- Some doc_node;
  doc_node.Node.children <- [ root ];
  let gappy =
    Frozen.freeze { Doc.uri = "gap.xml"; doc_node; root; node_count = 2 }
  in
  check cbool "the ids have a gap" true (root.Node.id - doc_node.Node.id > 1);
  roundtrip "id gap" gappy;
  (* two documents built at once on two domains draw interleaved ids *)
  let build () =
    Frozen.freeze (Doc.of_frag (Frag.e "r" (List.init 500 (fun i -> Frag.elem "c" (string_of_int i)))))
  in
  let other = Domain.spawn build in
  let mine = build () in
  let theirs = Domain.join other in
  roundtrip "built on this domain" mine;
  roundtrip "built on another domain" theirs;
  Array.iteri
    (fun p n ->
      check cbool (Printf.sprintf "same rank %d, other snapshot" p) true
        (Frozen.pos_of_node mine n = None))
    (Frozen.nodes theirs);
  check cbool "same rank, other snapshot (id gap)" true
    (Frozen.pos_of_node gappy (Frozen.node mine 1) = None);
  (* freezing checks the ranks it relies on *)
  let misranked = Doc.make_node ~rank:7 ~ordinal:1 Node.Element "r" "" in
  let doc_node' = Doc.make_node ~rank:0 ~ordinal:0 Node.Document "" "" in
  misranked.Node.parent <- Some doc_node';
  doc_node'.Node.children <- [ misranked ];
  check cbool "a misranked node is refused" true
    (match
       Frozen.freeze
         { Doc.uri = "bad.xml"; doc_node = doc_node'; root = misranked; node_count = 2 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Ingestion cost ----------------------------------------------- *)

(* The ingestion paths compared by what they allocate on one XMark
   instance (24 categories) — counts that do not depend on the host,
   unlike wall time.  Each path runs once unmeasured first, so one-time
   interning of tag names is not charged to the measured run, and the
   measurement starts from a collected heap: the byte count subtracts
   promoted words, which otherwise vary with where the minor heap
   happens to stand. *)
let xmark_text =
  lazy
    (let scale =
       {
         Xl_workload.Xmark_gen.categories = 24;
         items_per_region = 30;
         people = 30;
         open_auctions = 20;
         closed_auctions = 25;
       }
     in
     Serialize.node_to_string (Doc.root (Xl_workload.Xmark_gen.generate scale)))

let allocated_by f =
  ignore (Sys.opaque_identity (f ()));
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let parse_plus_freeze text = Frozen.freeze (Xml_parser.parse_doc text)

let test_stream_allocates_less () =
  let text = Lazy.force xmark_text in
  let tree = allocated_by (fun () -> parse_plus_freeze text) in
  let stream = allocated_by (fun () -> Frozen_builder.parse text) in
  if not (stream < tree) then
    Alcotest.failf "streamed build allocates %.0f bytes, parse + freeze %.0f" stream
      tree

(* ---------- Properties ------------------------------------------------------ *)

let gen_frag =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "item"; "name" ] in
  let attr = pair (oneofl [ "id"; "x" ]) (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) in
  let text = string_size ~gen:(char_range 'a' 'z') (1 -- 8) in
  fix
    (fun self depth ->
      if depth = 0 then map (fun s -> Frag.T s) text
      else
        frequency
          [
            (1, map (fun s -> Frag.T s) text);
            ( 3,
              map3
                (fun t attrs kids ->
                  (* attribute names must be unique per element, and
                     adjacent text children merge on reparse *)
                  let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs in
                  let rec merge = function
                    | Frag.T a :: Frag.T b :: rest -> merge (Frag.T (a ^ b) :: rest)
                    | x :: rest -> x :: merge rest
                    | [] -> []
                  in
                  Frag.E (t, attrs, merge kids))
                tag (list_size (0 -- 2) attr)
                (list_size (0 -- 3) (self (depth - 1))) );
          ])
    2

let rec merge_texts = function
  | Frag.T a :: Frag.T b :: rest -> merge_texts (Frag.T (a ^ b) :: rest)
  | Frag.E (t, attrs, kids) :: rest -> Frag.E (t, attrs, merge_texts kids) :: merge_texts rest
  | x :: rest -> x :: merge_texts rest
  | [] -> []

let gen_doc_frag =
  QCheck2.Gen.map
    (fun kids -> Frag.E ("root", [], merge_texts kids))
    QCheck2.Gen.(list_size (0 -- 4) gen_frag)

let prop_roundtrip =
  QCheck2.Test.make ~name:"serialize/parse roundtrip" ~count:200
    ~print:Serialize.frag_to_string gen_doc_frag
    (fun f ->
      (* whitespace-only text nodes are dropped by the parser, so only
         generate non-ws text (the generator above does) *)
      let s = Serialize.frag_to_string f in
      Frag.equal (Xml_parser.parse s) f)

let prop_dewey_total_order =
  let open QCheck2 in
  Test.make ~name:"dewey compare is a total order" ~count:500
    Gen.(triple (list_size (1 -- 4) (1 -- 5)) (list_size (1 -- 4) (1 -- 5)) (list_size (1 -- 4) (1 -- 5)))
    (fun (a, b, c) ->
      let ( <= ) x y = Dewey.compare x y <= 0 in
      (* antisymmetry + transitivity spot checks *)
      (not (a <= b) || not (b <= a) || Dewey.compare a b = 0)
      && ((not (a <= b)) || (not (b <= c)) || a <= c))

let prop_tag_paths_unique_prefix =
  QCheck2.Test.make ~name:"node tag_path starts with the root tag" ~count:100
    gen_doc_frag (fun f ->
      let d = Doc.of_frag f in
      List.for_all
        (fun n ->
          match Node.tag_path n with "root" :: _ -> true | _ -> false)
        (Doc.nodes d))

let () =
  Alcotest.run "xl_xml"
    [
      ( "dewey",
        [
          Alcotest.test_case "order" `Quick test_dewey_order;
          Alcotest.test_case "ancestor" `Quick test_dewey_ancestor;
          Alcotest.test_case "strings" `Quick test_dewey_strings;
        ] );
      ("frag", [ Alcotest.test_case "basics" `Quick test_frag_basics ]);
      ( "doc",
        [
          Alcotest.test_case "structure" `Quick test_doc_structure;
          Alcotest.test_case "tag_path" `Quick test_tag_path;
          Alcotest.test_case "attribute path" `Quick test_attribute_path;
          Alcotest.test_case "document order" `Quick test_document_order;
          Alcotest.test_case "rank, ordinal and Dewey code" `Quick test_rank_ordinal_dewey;
          Alcotest.test_case "node counts" `Quick test_all_nodes_count;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata and comments" `Quick test_parse_cdata_comments;
          Alcotest.test_case "prolog and doctype" `Quick test_parse_prolog_doctype;
          Alcotest.test_case "whitespace dropped" `Quick test_parse_whitespace_dropped;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "sax events" `Quick test_sax_events;
          Alcotest.test_case "error locations" `Quick test_parse_error_location;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "matches tree path" `Quick test_streaming_matches_tree;
          Alcotest.test_case "of_frag parity" `Quick test_streaming_of_frag;
          Alcotest.test_case "builder misuse" `Quick test_builder_misuse;
        ] );
      ( "ingestion",
        [
          Alcotest.test_case "streamed build allocates less than parse + freeze"
            `Quick test_stream_allocates_less;
        ] );
      ( "serializer",
        [
          Alcotest.test_case "escaping" `Quick test_serialize_escaping;
          Alcotest.test_case "roundtrip" `Quick test_serialize_node_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "basics" `Quick test_store;
          Alcotest.test_case "store reuse" `Quick test_store_reuse;
        ] );
      ( "frozen",
        [
          Alcotest.test_case "document order" `Quick test_frozen_document_order;
          Alcotest.test_case "structure consistency" `Quick test_frozen_structure_consistency;
          Alcotest.test_case "pos_of_node roundtrip" `Quick test_frozen_pos_of_node;
          Alcotest.test_case "pos_of_node across id gaps and domains" `Quick
            test_pos_of_node_gaps_and_domains;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_dewey_total_order; prop_tag_paths_unique_prefix ] );
    ]
