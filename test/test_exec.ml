(* The domain-pool executor (Xl_exec.Pool) and the domain-safety
   guarantees it relies on:

   - scheduling unit tests: order preservation, empty/single inputs, more
     workers than items, exception re-raise with no leaked domains,
     nested-map degradation to sequential;
   - node-id allocation: documents built concurrently on several domains
     draw disjoint ids (Doc.next_node_id is atomic) and each store's
     id index stays consistent;
   - determinism: the Figure-16 interaction counts are byte-identical
     whether the suite runs on 1 worker or 4 (XLEARNER_JOBS=1 vs =4). *)

module Pool = Xl_exec.Pool
module Xml = Xl_xml

(* ---------- scheduling ------------------------------------------------- *)

let test_map_order () =
  let pool = Pool.create ~domains:4 () in
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map preserves input order" (List.map (fun i -> i * i) xs)
    (Pool.map pool (fun i -> i * i) xs);
  Alcotest.(check (list int))
    "chunked map preserves input order"
    (List.map (fun i -> i + 1) xs)
    (Pool.map ~chunk:7 pool (fun i -> i + 1) xs)

let test_empty_and_single () =
  let pool = Pool.create ~domains:4 () in
  Alcotest.(check (list int)) "empty input" [] (Pool.map pool (fun i -> i) []);
  Alcotest.(check (list string))
    "single item" [ "x1" ]
    (Pool.map pool (fun i -> "x" ^ string_of_int i) [ 1 ])

let test_more_workers_than_items () =
  let pool = Pool.create ~domains:16 () in
  Alcotest.(check (list int))
    "3 items on a 16-worker pool" [ 2; 4; 6 ]
    (Pool.map pool (fun i -> 2 * i) [ 1; 2; 3 ])

exception Boom of int

let test_exception_propagation () =
  let pool = Pool.create ~domains:4 () in
  let raised =
    match Pool.map pool (fun i -> if i = 13 then raise (Boom i) else i) (List.init 50 Fun.id) with
    | _ -> None
    | exception Boom i -> Some i
  in
  Alcotest.(check (option int)) "the task's exception is re-raised" (Some 13) raised;
  (* all domains were joined before the re-raise: the pool is still
     usable, nothing is leaked or stuck *)
  Alcotest.(check (list int))
    "pool survives a raising map" [ 1; 2; 3 ]
    (Pool.map pool Fun.id [ 1; 2; 3 ])

let test_nested_map () =
  let pool = Pool.create ~domains:4 () in
  (* a task that calls Pool.map again: must degrade to sequential in the
     worker rather than spawn a second layer of domains *)
  let table =
    Pool.map pool
      (fun i -> Pool.map pool (fun j -> (i * 10) + j) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int)))
    "nested map computes the same table"
    [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
    table

let test_default_jobs_floor () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1);
  Alcotest.(check int) "explicit size is respected" 3
    (Pool.domains (Pool.create ~domains:3 ()))

(* ---------- concurrent node-id allocation ------------------------------ *)

let small_frag k =
  Xml.Frag.e "root"
    (List.init 20 (fun i ->
         Xml.Frag.e "item"
           ~attrs:[ ("id", Printf.sprintf "d%d-i%d" k i) ]
           [ Xml.Frag.elem "name" (Printf.sprintf "name %d.%d" k i) ]))

let test_concurrent_store_ids () =
  let pool = Pool.create ~domains:4 () in
  let stores =
    Pool.map pool
      (fun k ->
        let doc =
          Xml.Doc.of_frag ~uri:(Printf.sprintf "doc%d.xml" k) (small_frag k)
        in
        Xml.Store.of_docs [ doc ])
      (List.init 8 Fun.id)
  in
  (* ids must be unique across every concurrently built store *)
  let all_ids =
    List.concat_map
      (fun store ->
        List.concat_map
          (fun d ->
            d.Xml.Doc.doc_node.Xml.Node.id
            :: List.map (fun n -> n.Xml.Node.id) (Xml.Doc.all_nodes d))
          (Xml.Store.docs store))
      stores
  in
  let sorted = List.sort_uniq Int.compare all_ids in
  Alcotest.(check int)
    "no duplicate node ids across concurrently built stores"
    (List.length all_ids) (List.length sorted);
  (* and each store's id index resolves its own nodes, exactly *)
  List.iter
    (fun store ->
      List.iter
        (fun d ->
          List.iter
            (fun n ->
              match Xml.Store.find_node_by_id store n.Xml.Node.id with
              | Some m ->
                Alcotest.(check bool)
                  "find_node_by_id returns the node itself" true
                  (Xml.Node.equal m n)
              | None -> Alcotest.fail "find_node_by_id lost a node")
            (Xml.Doc.all_nodes d))
        (Xml.Store.docs store))
    stores

(* ---------- determinism of the Figure-16 suites ------------------------ *)

let stats_row (name : string) (r : Xl_core.Learn.result) : string =
  let s = r.Xl_core.Learn.stats in
  Printf.sprintf "%s dd=%d(%d) mq=%d eq=%d ce=%d cb=%d(%d) ob=%d r=(%d,%d,%d) verified=%b"
    name s.Xl_core.Stats.dd s.Xl_core.Stats.dd_terminals s.Xl_core.Stats.mq
    s.Xl_core.Stats.eq s.Xl_core.Stats.ce s.Xl_core.Stats.cb
    s.Xl_core.Stats.cb_terminals s.Xl_core.Stats.ob s.Xl_core.Stats.reduced_r1
    s.Xl_core.Stats.reduced_r2 s.Xl_core.Stats.reduced_both
    r.Xl_core.Learn.verified

let run_fig16 pool scenarios : string list =
  Pool.map pool
    (fun (suite, name, sc) ->
      let label = suite ^ "-" ^ name in
      match Xl_core.Learn.run sc with
      | r -> stats_row label r
      | exception e -> label ^ " FAILED " ^ Printexc.to_string e)
    scenarios

(* the check behind `XLEARNER_JOBS=1` vs `XLEARNER_JOBS=4`: the suite's
   interaction counts may not depend on the worker count.  Each suite's
   store goes to the workers straight from its constructor. *)
let test_fig16_determinism () =
  let scenarios =
    List.map (fun (n, sc) -> ("xmark", n, sc)) (Xl_workload.Xmark_scenarios.all ())
    @ List.map (fun (n, sc) -> ("xmp", n, sc)) (Xl_workload.Xmp_scenarios.all ())
  in
  let sequential = run_fig16 (Pool.create ~domains:1 ()) scenarios in
  let parallel = run_fig16 (Pool.create ~domains:4 ()) scenarios in
  Alcotest.(check int) "same row count" (List.length sequential)
    (List.length parallel);
  List.iter2
    (fun s p -> Alcotest.(check string) "jobs=1 vs jobs=4 row" s p)
    sequential parallel

(* telemetry must be observation-only: the same rows whether tracing is
   on or off, at any worker count (the check behind running the suites
   with and without XLEARNER_TRACE) *)
let test_fig16_tracing_identity () =
  let scenarios =
    List.map (fun (n, sc) -> ("xmp", n, sc)) (Xl_workload.Xmp_scenarios.all ())
    @ List.filter_map
        (fun (n, sc) ->
          if List.mem n [ "Q1"; "Q13" ] then Some ("xmark", n, sc) else None)
        (Xl_workload.Xmark_scenarios.all ())
  in
  let with_tracing enabled workers =
    Xl_obs.Obs.reset ();
    Xl_obs.Obs.set_enabled enabled;
    Fun.protect ~finally:(fun () ->
        Xl_obs.Obs.set_enabled false;
        Xl_obs.Obs.reset ())
      (fun () -> run_fig16 (Pool.create ~domains:workers ()) scenarios)
  in
  let baseline = with_tracing false 1 in
  List.iter
    (fun (enabled, workers, what) ->
      List.iter2
        (fun b r -> Alcotest.(check string) what b r)
        baseline
        (with_tracing enabled workers))
    [
      (true, 1, "tracing on, 1 worker");
      (false, 4, "tracing off, 4 workers");
      (true, 4, "tracing on, 4 workers");
    ]

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "empty and single inputs" `Quick
            test_empty_and_single;
          Alcotest.test_case "more workers than items" `Quick
            test_more_workers_than_items;
          Alcotest.test_case "exceptions re-raise, no leaks" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested map runs sequentially" `Quick
            test_nested_map;
          Alcotest.test_case "default jobs floor" `Quick test_default_jobs_floor;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "concurrent stores: unique node ids" `Quick
            test_concurrent_store_ids;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig16 counts, 1 vs 4 workers" `Slow
            test_fig16_determinism;
          Alcotest.test_case "fig16 counts, tracing on vs off" `Slow
            test_fig16_tracing_identity;
        ] );
    ]
