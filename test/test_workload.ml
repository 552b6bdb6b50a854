(* Tests for the workload library: generators, use-case encodings and the
   paper reference data (xl_workload). *)

open Xl_workload

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int

(* ---------- PRNG ------------------------------------------------------------ *)

let test_prng_determinism () =
  let seq seed = let r = Prng.create ~seed in List.init 20 (fun _ -> Prng.int r 1000) in
  check cbool "same seed, same stream" true (seq 42 = seq 42);
  check cbool "different seeds differ" true (seq 42 <> seq 43)

let test_prng_ranges () =
  let r = Prng.create ~seed:7 in
  check cbool "int in range" true
    (List.for_all (fun _ -> let v = Prng.int r 10 in v >= 0 && v < 10) (List.init 200 Fun.id));
  check cbool "float in range" true
    (List.for_all (fun _ -> let v = Prng.float r in v >= 0. && v < 1.) (List.init 200 Fun.id));
  check cbool "choose picks members" true
    (List.for_all (fun _ -> List.mem (Prng.choose r [ 1; 2; 3 ]) [ 1; 2; 3 ]) (List.init 50 Fun.id))

(* ---------- XMark generator --------------------------------------------------- *)

let doc () = Xmark_gen.generate Xmark_gen.default_scale

let eval q d =
  Xl_xquery.Eval.run (Xl_xquery.Eval.ctx_of_doc d) (Xl_xquery.Parser.parse q)

let count q d = List.length (eval q d)

let test_generator_determinism () =
  let a = Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root (doc ())) in
  let b = Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root (doc ())) in
  check cbool "byte-identical" true (String.equal a b);
  let c =
    Xl_xml.Serialize.node_to_string
      (Xl_xml.Doc.root (Xmark_gen.generate ~seed:99 Xmark_gen.default_scale))
  in
  check cbool "seed changes the data" true (not (String.equal a c))

let test_generator_valid () =
  let _, violations = Xmark_gen.generate_valid Xmark_gen.default_scale in
  check cint "DTD-valid" 0 (List.length violations)

let test_generator_guarantees () =
  let d = doc () in
  (* the structural features the Figure-16 scenarios rely on *)
  check cbool "person0 exists (Q1)" true
    (List.exists
       (fun item ->
         match item with
         | Xl_xquery.Value.Node n -> Xl_xml.Node.string_value n = "person0"
         | _ -> false)
       (eval "/site/people/person/@id" d));
  check cbool "every region has items (Q13/Q19)" true
    (List.for_all
       (fun r -> count (Printf.sprintf "/site/regions/%s/item" r) d > 0)
       Xmark_gen.regions);
  check cbool "gold keywords exist (Q14)" true
    (count "//keyword" d > 0
    && List.exists
         (fun item ->
           match item with
           | Xl_xquery.Value.Node n -> Xl_xml.Node.string_value n = "gold"
           | _ -> false)
         (eval "//keyword" d));
  check cbool "deep annotation chain exists (Q15)" true
    (count
       "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/keyword/emph"
       d
    > 0);
  check cbool "incomes below and above 50000 (Q20)" true
    (count "/site/people/person" d > 0
    && Xl_xquery.Value.to_bool (eval "//profile/@income < 50000" d)
    && Xl_xquery.Value.to_bool (eval "//profile/@income >= 100000" d));
  check cbool "some persons lack a homepage (Q17)" true
    (count "/site/people/person" d > count "/site/people/person/homepage" d);
  check cbool "buyers differ from sellers" true
    (List.for_all2
       (fun b s -> b <> s)
       (List.map (function Xl_xquery.Value.Node n -> Xl_xml.Node.string_value n | _ -> "")
          (eval "/site/closed_auctions/closed_auction/buyer/@person" d))
       (List.map (function Xl_xquery.Value.Node n -> Xl_xml.Node.string_value n | _ -> "")
          (eval "/site/closed_auctions/closed_auction/seller/@person" d)))

let test_scale_controls_size () =
  let tiny = Xl_xml.Doc.node_count (Xmark_gen.generate Xmark_gen.tiny_scale) in
  let full = Xl_xml.Doc.node_count (doc ()) in
  check cbool "tiny < default" true (tiny < full)

(* ---------- XMP data ------------------------------------------------------------ *)

let test_xmp_data () =
  let store = Xmp_data.store () in
  check cint "three documents" 3 (List.length (Xl_xml.Store.docs store));
  let bib = Xl_xml.Store.find_exn store "bib.xml" in
  let reviews = Xl_xml.Store.find_exn store "reviews.xml" in
  let prices = Xl_xml.Store.find_exn store "prices.xml" in
  let c q d = List.length (eval q d) in
  ignore c;
  check cint "eight books" 8 (count "/bib/book" bib);
  check cbool "A-W after 1991 exists (Q1)" true
    (List.exists
       (fun b -> b.Xmp_data.publisher = "Addison-Wesley" && b.Xmp_data.year > 1991)
       Xmp_data.books);
  check cbool "review titles join book titles (Q5)" true
    (count "/reviews/entry" reviews > 0);
  check cbool "multiple price quotes per book (Q10)" true
    (count "/prices/book/price" prices > count "/prices/book" prices);
  (* two books share an author but differ in title (Q12) *)
  check cbool "shared-author pair exists" true
    (List.exists
       (fun b1 ->
         List.exists
           (fun b2 ->
             b1.Xmp_data.title <> b2.Xmp_data.title
             && List.exists (fun a -> List.mem a b2.Xmp_data.authors) b1.Xmp_data.authors)
           Xmp_data.books)
       Xmp_data.books);
  check cint "bib DTD-valid" 0
    (List.length (Xl_schema.Validate.validate (Xmp_data.get_dtd ()) bib))

(* ---------- Figure 15 classification --------------------------------------------- *)

let test_usecases_match_paper () =
  let rows = Usecases.classify_all () in
  check cint "ten suites" 10 (List.length rows);
  List.iter
    (fun (r : Usecases.row) ->
      check cint (r.Usecases.name ^ " learnable count") r.Usecases.paper r.Usecases.learnable)
    rows;
  (* and the totals agree with the reference table *)
  List.iter2
    (fun (r : Usecases.row) (name, paper_learn, paper_total) ->
      check cbool ("suite name " ^ name) true (String.equal r.Usecases.name name);
      check cint (name ^ " total") paper_total r.Usecases.total;
      check cint (name ^ " paper") paper_learn r.Usecases.paper)
    rows Paper_reference.fig15

let test_blockers_are_real () =
  let rows = Usecases.classify_all () in
  let xmark = List.hd rows in
  check cbool "XMark blocker is Q6" true
    (match xmark.Usecases.blockers with [ ("Q6", _) ] -> true | _ -> false)

(* ---------- Paper reference internal consistency ----------------------------------- *)

let test_paper_reference_consistency () =
  List.iter
    (fun (r : Paper_reference.fig16_row) ->
      check cint
        (r.Paper_reference.id ^ " reduced identity")
        r.Paper_reference.reduced
        (r.Paper_reference.r1 + r.Paper_reference.r2 - r.Paper_reference.both))
    (Paper_reference.xmark @ Paper_reference.xmp)

let test_scenarios_enumerate () =
  check cint "19 XMark scenarios" 19 (List.length (Xmark_scenarios.all ()));
  check cint "11 XMP scenarios" 11 (List.length (Xmp_scenarios.all ()));
  (* ids line up with the paper's Figure 16 rows *)
  check cbool "XMark ids match" true
    (List.map fst (Xmark_scenarios.all ())
    = List.map (fun (r : Paper_reference.fig16_row) -> r.Paper_reference.id) Paper_reference.xmark);
  check cbool "XMP ids match" true
    (List.map fst (Xmp_scenarios.all ())
    = List.map (fun (r : Paper_reference.fig16_row) -> r.Paper_reference.id) Paper_reference.xmp)

(* The XMark suite builds its instance's store once: the helper values
   its scenarios look up in the instance read that store instead of
   indexing the document again. *)
let test_xmark_instance_indexed_once () =
  let module Obs = Xl_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  let builds =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        ignore (Xmark_scenarios.all ());
        List.length
          (List.filter
             (fun s -> String.equal s.Obs.sp_name "store.index_build")
             (Obs.spans ())))
  in
  check cint "one store.index_build span" 1 builds

(* ---------- XMark query texts on the engine ------------------------------- *)

let test_xmark_query_texts () =
  let d = doc () in
  let results = Xmark_queries.run_all d in
  check cint "all twenty parse and evaluate" 20 (List.length results);
  let n id = List.assoc id results in
  check cint "Q1: exactly one person0" 1 (n "Q1");
  check cint "Q2: one increase per auction" 20 (n "Q2");
  check cint "Q13: one result per australian item" 7 (n "Q13");
  check cint "Q19: every item, ordered" 42 (n "Q19");
  check cint "Q20: one summary element" 1 (n "Q20");
  (* Q6 counts all items across the continents *)
  (match Xmark_queries.find "Q6" with
  | Some query ->
    check cbool "Q6 counts 42 items" true
      (Xl_xquery.Value.string_value (Xmark_queries.run query d) = "42")
  | None -> Alcotest.fail "Q6 missing");
  (* the income brackets of Q20 partition the people *)
  (match Xmark_queries.find "Q20" with
  | Some query ->
    let out = Xl_xquery.Value.string_value (Xmark_queries.run query d) in
    let total =
      String.fold_left (fun acc _ -> acc) 0 out |> fun _ ->
      (* parse the four numbers back out of the concatenated text *)
      out
    in
    ignore total;
    check cbool "Q20 non-empty" true (String.length out > 0)
  | None -> ());
  List.iter
    (fun (id, k) ->
      check cbool (id ^ " evaluates (no exception, sane size)") true (k >= 0 && k < 100))
    results

let test_xmark_query_order_stable () =
  (* Q19 must produce names in ascending order *)
  let d = doc () in
  match Xmark_queries.find "Q19" with
  | None -> Alcotest.fail "Q19 missing"
  | Some query ->
    let names =
      List.filter_map
        (function
          | Xl_xquery.Value.Node n -> (
            match Xl_xml.Node.attribute n "name" with
            | Some a -> Some a.Xl_xml.Node.value
            | None -> None)
          | Xl_xquery.Value.Atom _ -> None)
        (Xmark_queries.run query d)
    in
    check cbool "sorted ascending" true (List.sort compare names = names);
    check cint "all 42 items" 42 (List.length names)

(* ---------- XMP query texts on the engine ---------------------------------- *)

let test_xmp_query_texts () =
  let store = Xmp_data.store () in
  let results = Xmp_queries.run_all store in
  check cint "all twelve parse and evaluate" 12 (List.length results);
  (* Q5's cross-document join yields review pairs *)
  (match Xmp_queries.find "Q5" with
  | Some query ->
    let out = Xl_xquery.Value.string_value (Xmp_queries.run query store) in
    check cbool "Q5 joins across documents" true
      (String.length out > 0
      && (let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
            go 0
          in
          contains out "TCP/IP Illustrated"))
  | None -> Alcotest.fail "Q5 missing");
  (* Q6 (outside the learnable set) still evaluates on the engine *)
  match Xmp_queries.find "Q6" with
  | Some query ->
    check cbool "Q6 evaluates" true (Xmp_queries.run query store <> [])
  | None -> Alcotest.fail "Q6 missing"

(* ---------- SGML learning sessions (our extra suite) ------------------------- *)

let test_sgml_sessions () =
  List.iter
    (fun (name, sc) ->
      let r = Xl_core.Learn.run sc in
      check cbool (name ^ " verified") true r.Xl_core.Learn.verified;
      check cbool (name ^ " interactive") true (r.Xl_core.Learn.stats.Xl_core.Stats.mq <= 5))
    (Sgml_scenarios.all ());
  check cint "five sessions" 5 (List.length (Sgml_scenarios.all ()))

let () =
  Alcotest.run "xl_workload"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
        ] );
      ( "xmark-gen",
        [
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "schema-valid" `Quick test_generator_valid;
          Alcotest.test_case "scenario guarantees" `Quick test_generator_guarantees;
          Alcotest.test_case "scaling" `Quick test_scale_controls_size;
        ] );
      ("xmp-data", [ Alcotest.test_case "documents" `Quick test_xmp_data ]);
      ( "figure15",
        [
          Alcotest.test_case "matches the paper" `Quick test_usecases_match_paper;
          Alcotest.test_case "blockers" `Quick test_blockers_are_real;
        ] );
      ( "reference",
        [
          Alcotest.test_case "reduced identity" `Quick test_paper_reference_consistency;
          Alcotest.test_case "scenario inventory" `Quick test_scenarios_enumerate;
          Alcotest.test_case "XMark instance indexed once" `Quick
            test_xmark_instance_indexed_once;
        ] );
      ( "xmark-queries",
        [
          Alcotest.test_case "all twenty evaluate" `Quick test_xmark_query_texts;
          Alcotest.test_case "Q19 ordering" `Quick test_xmark_query_order_stable;
        ] );
      ( "xmp-queries",
        [ Alcotest.test_case "all twelve evaluate" `Quick test_xmp_query_texts ] );
      ( "sgml",
        [ Alcotest.test_case "sessions verify" `Quick test_sgml_sessions ] );
    ]
