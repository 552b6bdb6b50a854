(* The resumable learner state machine (lib/core/machine.ml):

   - replay determinism: every (question, answer) pair of a fig16 run,
     re-driven through Machine.step from the transcript, reproduces the
     hypothesis query and the interaction counts byte-for-byte — on both
     Figure-16 suites, on two targets where rule R2 backtracks (their
     rows pinned) and on the 25-seed fuzz corpus, sequential and
     against a 4-domain pool;
   - suspend/resume: snapshotting at every k-th `Ask (k in {1,3,7}),
     restoring into a fresh machine and finishing yields the same final
     query and the same Stats (mq and auto_known included) as the
     uninterrupted run;
   - corruption: flipping any single byte of a snapshot (and truncating
     it) raises Machine.Corrupt — never a silently wrong answer; so does
     a well-formed snapshot of the retired version 1, and one whose
     counterexample node has a Dewey step of 0;
   - the version-2 bytes: three snapshots pinned by MD5, a committed
     step-5 fixture that restores and finishes with its Figure-16 row,
     and the Machine_codec entry records round-tripped on their own;
   - repair-sweep state: a machine suspended while phase = Repairing
     resumes inside the same sweep (the spare-join fixture, whose
     verification sweep must restore a minimized-away join);
   - stale forks: stepping an old machine value whose continuation was
     consumed by a newer step transparently rebuilds by replay — also
     for a run that reuses a prior run's answers (Section 11);
   - shape validation: a mis-shaped answer raises Invalid_argument and
     leaves the machine usable.

   On a replay mismatch the failing transcript is dumped to
   MACHINE_replay_failure.txt (uploaded as a CI artifact). *)

module M = Xl_core.Machine
module Learn = Xl_core.Learn
module Stats = Xl_core.Stats
module Scenario = Xl_core.Scenario
module Pool = Xl_exec.Pool
module Store = Xl_xml.Store
module Case = Xl_fuzz.Case

let seed = 20040301

(* ---------- drivers ----------------------------------------------------- *)

(* Drive a machine to completion with its own oracle teacher, returning
   the finished run's transcript.  Each machine must be driven by its own
   teacher: the oracle's condition-box queues are per-run state. *)
let record m =
  let r, m = M.drive ~teacher:(M.oracle_teacher m) m in
  (r, M.transcript m)

(* A question's kind, label and paths (or extent size).  It names every
   step, including the ones the dialog leaves silent: a declined
   condition box and an empty ordering. *)
let shape : M.question -> string =
  let p = String.concat "/" in
  function
  | M.Membership { label; rel_path; _ } -> Printf.sprintf "MQ  [%s] %s" label (p rel_path)
  | M.Membership_batch { label; rel_paths; _ } ->
    Printf.sprintf "MQB [%s] %s" label (String.concat " " (List.map p rel_paths))
  | M.Equivalence { label; extent; _ } ->
    Printf.sprintf "EQ  [%s] extent of %d" label (List.length extent)
  | M.Condition_box { label; _ } -> Printf.sprintf "CB  [%s]" label
  | M.Order_box { label } -> Printf.sprintf "OB  [%s]" label

let dump_transcript path transcript =
  let oc = open_out path in
  List.iteri
    (fun i (ex : M.exchange) ->
      Printf.fprintf oc "%4d  %s\n%s\n" i (shape ex.M.question)
        (Xl_core.Dialog.to_string [ ex ]))
    transcript;
  close_out oc

let cut s = if String.length s <= 200 then s else String.sub s 0 197 ^ "..."

(* Re-drive a fresh machine from a recorded transcript; on divergence,
   dump the transcript for the CI artifact and fail. *)
let replay_transcript ?config ~what scenario transcript =
  let fail_with fmt =
    Printf.ksprintf
      (fun msg ->
        dump_transcript "MACHINE_replay_failure.txt" transcript;
        Alcotest.failf "%s: %s (transcript in MACHINE_replay_failure.txt)" what
          msg)
      fmt
  in
  let rec go m = function
    | [] -> m
    | (ex : M.exchange) :: rest -> (
      match M.outcome m with
      | `Done _ -> fail_with "machine finished before the transcript ended"
      | `Ask q ->
        let asked = shape q and recorded = shape ex.M.question in
        if not (String.equal asked recorded) then
          fail_with "question diverged at step %d: asked %S, recorded %S"
            (M.steps m) (cut asked) (cut recorded);
        go (snd (M.step m ex.M.answer)) rest)
  in
  match M.outcome (go (M.start ?config scenario) transcript) with
  | `Done r -> r
  | `Ask _ -> fail_with "machine still asking after the full transcript"

let check_result ~what (reference : Learn.result) (r : Learn.result) =
  Alcotest.(check string)
    (what ^ ": interaction row")
    (Stats.to_row reference.Learn.stats)
    (Stats.to_row r.Learn.stats);
  Alcotest.(check string)
    (what ^ ": hypothesis query")
    reference.Learn.query_text r.Learn.query_text;
  Alcotest.(check int)
    (what ^ ": mq")
    reference.Learn.stats.Stats.mq r.Learn.stats.Stats.mq;
  Alcotest.(check int)
    (what ^ ": auto-answered mq")
    reference.Learn.stats.Stats.auto_known r.Learn.stats.Stats.auto_known

(* ---------- the scenario pool ------------------------------------------- *)

let fig16 =
  lazy
    (List.map (fun (n, sc) -> ("xmark-" ^ n, sc)) (Xl_workload.Xmark_scenarios.all ())
     @ List.map (fun (n, sc) -> ("xmp-" ^ n, sc)) (Xl_workload.Xmp_scenarios.all ()))

let fig16_scenario name = List.assoc name (Lazy.force fig16)

(* Two one-box targets on the default XMark instance whose positive
   counterexamples end in a tag other than the dropped example's, so
   rule R2 backtracks from Last_tag to Any_last: no Figure-16 scenario
   does (every row has restarts 0).  The wildcard one also revises an
   Any_last answer that L* has already seen. *)
let r2_backtracking =
  lazy
    (let env = Xl_workload.Xmark_scenarios.make_env () in
     let target name p =
       let open Xl_xqtree in
       Xl_workload.Xmark_scenarios.scenario env ~description:p name
         (Xqtree.make ~tag:"result" "N1"
            ~children:
              [
                Xqtree.make ~tag:"hit" ~var:"x"
                  ~source:(Xqtree.Abs (None, Xl_xquery.Parser.parse_path_string p))
                  "N1.1";
              ])
     in
     [
       ("r2-europe", target "r2-europe" "/site/regions/europe/item/(name|description)");
       ("r2-wildcard", target "r2-wildcard" "/site/regions/*/item/*");
     ])

(* their machine steps and Figure-16 rows, as [Stats.to_json]; the
   wildcard target fails with "Lstar.learn: too many rounds" unless
   every revised answer restarts L* *)
let r2_rows =
  [
    ( "r2-europe",
      4,
      {|{"dd":1,"dd_terminals":1,"mq":5,"eq":2,"ce":1,"cb":0,"cb_terminals":0,"ob":0,"reduced_r1":2885,"reduced_r2":582,"reduced_both":556,"reduced_total":2911,"auto_known":0,"restarts":1,"user_interactions":7}|}
    );
    ( "r2-wildcard",
      13,
      {|{"dd":1,"dd_terminals":1,"mq":83,"eq":4,"ce":3,"cb":0,"cb_terminals":0,"ob":0,"reduced_r1":17126,"reduced_r2":3864,"reduced_both":3788,"reduced_total":17202,"auto_known":0,"restarts":3,"user_interactions":87}|}
    );
  ]

(* ---------- replay determinism ----------------------------------------- *)

let test_replay_fig16 () =
  List.iter
    (fun (name, sc) ->
      let reference, transcript = record (M.start sc) in
      let r = replay_transcript ~what:name sc transcript in
      check_result ~what:name reference r)
    (Lazy.force fig16 @ Lazy.force r2_backtracking)

(* R2 backtracking, end to end: both targets learn a verified query
   through at least one restart, with their pinned rows *)
let test_r2_backtracking_rows () =
  List.iter
    (fun (name, sc) ->
      let r, transcript = record (M.start sc) in
      let _, steps, row = List.find (fun (n, _, _) -> String.equal n name) r2_rows in
      Alcotest.(check int) (name ^ ": steps") steps (List.length transcript);
      Alcotest.(check string) (name ^ ": row") row (Stats.to_json r.Learn.stats);
      Alcotest.(check bool) (name ^ ": verified") true r.Learn.verified;
      Alcotest.(check bool) (name ^ ": R2 backtracked") true
        (r.Learn.stats.Stats.restarts > 0))
    (Lazy.force r2_backtracking)

(* The 25-seed fuzz corpus, recorded sequentially and replayed against a
   4-domain pool: the pool parallelizes work inside a step, so the
   question stream and the final row must not depend on it. *)
let test_replay_fuzz_corpus () =
  let pool = Pool.create ~domains:4 () in
  let pooled = { Learn.default_config with Learn.pool = Some pool } in
  List.iter
    (fun index ->
      let what = Printf.sprintf "fuzz case %d" index in
      let scenario = Case.scenario (Case.generate ~seed ~index) in
      let reference, transcript = record (M.start scenario) in
      let r_seq = replay_transcript ~what scenario transcript in
      check_result ~what:(what ^ " (-j 1)") reference r_seq;
      let r_par = replay_transcript ~config:pooled ~what scenario transcript in
      check_result ~what:(what ^ " (-j 4)") reference r_par)
    (List.init 25 Fun.id)

(* ---------- suspend/resume --------------------------------------------- *)

(* Drive with the machine's own teacher, snapshotting at every k-th Ask;
   then restore each snapshot into a fresh machine, finish it with the
   restored machine's own teacher, and compare against the
   uninterrupted run. *)
let check_suspend_resume ~what k scenario =
  let m0 = M.start scenario in
  let teacher = M.oracle_teacher m0 in
  let rec go snaps m =
    match M.outcome m with
    | `Done r -> (r, List.rev snaps)
    | `Ask q ->
      let snaps =
        if M.steps m mod k = 0 then (M.steps m, M.snapshot m) :: snaps
        else snaps
      in
      go snaps (snd (M.step m (M.answer_with teacher q)))
  in
  let reference, snaps = go [] m0 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: at least one snapshot at k=%d" what k)
    true (snaps <> []);
  List.iter
    (fun (n, snap) ->
      let what = Printf.sprintf "%s: k=%d, resumed at step %d" what k n in
      let m = M.restore ~scenario snap in
      Alcotest.(check int) (what ^ ": restored step") n (M.steps m);
      let r, _ = M.drive ~teacher:(M.oracle_teacher m) m in
      check_result ~what reference r)
    snaps

let test_suspend_resume () =
  List.iter
    (fun k ->
      List.iter
        (fun name -> check_suspend_resume ~what:name k (fig16_scenario name))
        (* Q12 asks two Condition Boxes: snapshots at k=1 split the
           machine between them *)
        [ "xmp-Q1"; "xmark-Q3"; "xmark-Q12" ])
    [ 1; 3; 7 ];
  (* one deeper run: xmark Q7 asks 17 questions *)
  check_suspend_resume ~what:"xmark-Q7" 7 (fig16_scenario "xmark-Q7");
  (* snapshots across an R2 restart *)
  List.iter
    (fun (name, sc) -> check_suspend_resume ~what:name 3 sc)
    (Lazy.force r2_backtracking)

(* ---------- concurrent sessions on one worker service ------------------- *)

(* The session server's execution model, without the HTTP layer: N
   machines live at once on one [Pool.Service], each pinned to a worker
   by key, stepped in an interleaved round-robin until it reaches an
   Equivalence question, and snapshotted right there on its worker.
   Every snapshot is then restored against an INDEPENDENTLY REBUILT
   scenario (fresh stores — only the snapshot bytes and (uri, dewey)
   node identities cross, exactly what a fresh process would have) on a
   second service under a different key, and finished.  Rows, mq and
   auto_known must be byte-identical to the uninterrupted references. *)
let test_concurrent_snapshot_mid_eq () =
  let module Service = Pool.Service in
  let pick = [ "Q1"; "Q3"; "Q7"; "Q8"; "Q13" ] in
  let scenarios () =
    List.filter
      (fun (n, _) -> List.mem n pick)
      (Xl_workload.Xmark_scenarios.all ())
  in
  let batch = scenarios () in
  let refs =
    List.map (fun (name, sc) -> (name, fst (record (M.start sc)))) batch
  in
  let svc = Service.start ~workers:2 () in
  let snaps = Hashtbl.create 8 in
  (* start every machine on its pinned worker; its teacher must be
     created there too (both hold domain-confined state) *)
  let sessions =
    List.mapi
      (fun i (name, sc) ->
        let m, teacher =
          Service.run svc ~key:i (fun () ->
              let m = M.start sc in
              (m, M.oracle_teacher m))
        in
        (i, name, ref m, teacher))
      batch
  in
  let rec interleave pending =
    match pending with
    | [] -> ()
    | _ ->
      interleave
        (List.filter
           (fun (i, name, mref, teacher) ->
             Service.run svc ~key:i (fun () ->
                 match M.outcome !mref with
                 | `Done _ ->
                   Alcotest.failf
                     "%s finished before any equivalence question" name
                 | `Ask (M.Equivalence _) ->
                   Hashtbl.replace snaps name (M.snapshot !mref, M.steps !mref);
                   M.abort !mref;
                   false
                 | `Ask q ->
                   mref := snd (M.step !mref (M.answer_with teacher q));
                   true))
           pending)
  in
  interleave sessions;
  Service.stop svc;
  Alcotest.(check int)
    "every session snapshotted mid-EQ" (List.length batch) (Hashtbl.length snaps);
  (* restore leg: fresh stores, fresh service, shuffled keys *)
  let svc2 = Service.start ~workers:2 () in
  let fresh = scenarios () in
  List.iteri
    (fun i (name, _) ->
      let snap, steps_at = Hashtbl.find snaps name in
      let scenario = List.assoc name fresh in
      let r =
        Service.run svc2 ~key:(i + 1) (fun () ->
            let m = M.restore ~scenario snap in
            (match M.outcome m with
            | `Ask (M.Equivalence _) -> ()
            | _ -> Alcotest.failf "%s did not restore at its equivalence" name);
            Alcotest.(check int) (name ^ ": restored step") steps_at (M.steps m);
            fst (M.drive ~teacher:(M.oracle_teacher m) m))
      in
      check_result ~what:(name ^ " restored mid-EQ on the service")
        (List.assoc name refs) r)
    batch;
  Service.stop svc2

(* ---------- corruption -------------------------------------------------- *)

(* A snapshot with any single byte flipped must be rejected with
   Machine.Corrupt — restore must never produce a machine that would
   answer from corrupted state. *)
let test_corrupt_byte_flips () =
  let scenario = fig16_scenario "xmp-Q1" in
  let m0 = M.start scenario in
  let teacher = M.oracle_teacher m0 in
  let rec to_mid m =
    match M.outcome m with
    | `Done _ -> Alcotest.fail "xmp-Q1 finished before step 3"
    | `Ask _ when M.steps m = 3 -> m
    | `Ask q -> to_mid (snd (M.step m (M.answer_with teacher q)))
  in
  let snap = M.snapshot (to_mid m0) in
  for i = 0 to String.length snap - 1 do
    let corrupted = Bytes.of_string snap in
    Bytes.set corrupted i (Char.chr (Char.code snap.[i] lxor 0xff));
    match M.restore ~scenario (Bytes.to_string corrupted) with
    | _ -> Alcotest.failf "flip at byte %d of %d accepted" i (String.length snap)
    | exception M.Corrupt _ -> ()
  done;
  (* truncations, including an empty snapshot *)
  List.iter
    (fun len ->
      match M.restore ~scenario (String.sub snap 0 len) with
      | _ -> Alcotest.failf "truncation to %d bytes accepted" len
      | exception M.Corrupt _ -> ())
    [ 0; 4; String.length snap / 2; String.length snap - 1 ]

(* Version 1 snapshots carried two config bytes that no longer exist;
   one with a valid digest must still be refused, by its version. *)
let test_v1_snapshot_rejected () =
  let scenario = fig16_scenario "xmp-Q1" in
  let snap = M.snapshot (M.start scenario) in
  ignore (M.restore ~scenario snap);
  let body = Bytes.of_string (String.sub snap 0 (String.length snap - 16)) in
  Bytes.set_int32_le body 8 1l;
  let v1 = Bytes.to_string body ^ Digest.bytes body in
  match M.restore ~scenario v1 with
  | _ -> Alcotest.fail "version-1 snapshot accepted"
  | exception M.Corrupt msg ->
    Alcotest.(check bool)
      (Printf.sprintf "Corrupt names version 1: %s" msg)
      true
      (String.starts_with ~prefix:"unsupported machine snapshot version 1 " msg)

(* ---------- pinned snapshot bytes --------------------------------------- *)

(* The version-2 layout, pinned by the MD5 of whole snapshots: xmp Q1
   suspended after five answers, and two finished runs, one whose
   transcript holds a stated Condition Box and one holding a non-empty
   Order Box answer.  Any change to the writer shows here. *)
let pinned_snapshots =
  [
    ("xmp-Q1", Some 5, "ed8c0d850309c89251f7c721cdaf3a74");
    ("xmark-Q1", None, "ea71cbf2c0546fcf4f81577c29cc41f1");
    ("xmark-Q19", None, "2c201521954ce822b10c6c6beba6a52d");
  ]

(* drive with the machine's own teacher until [steps] answers are given,
   or to the end *)
let run_to ?steps scenario =
  let m0 = M.start scenario in
  let teacher = M.oracle_teacher m0 in
  let rec go m =
    match M.outcome m with
    | `Ask _ when Some (M.steps m) = steps -> m
    | `Done _ -> m
    | `Ask q -> go (snd (M.step m (M.answer_with teacher q)))
  in
  go m0

let test_pinned_snapshot_bytes () =
  let holds name p =
    let m = run_to (fig16_scenario name) in
    Alcotest.(check bool)
      (name ^ ": transcript holds the pinned answer kind")
      true
      (List.exists (fun (ex : M.exchange) -> p ex.M.answer) (M.transcript m))
  in
  holds "xmark-Q1" (function M.Cb (Some _) -> true | _ -> false);
  holds "xmark-Q19" (function M.Order (_ :: _) -> true | _ -> false);
  List.iter
    (fun (name, steps, md5) ->
      let snap = M.snapshot (run_to ?steps (fig16_scenario name)) in
      Alcotest.(check string)
        (Printf.sprintf "%s snapshot MD5 (%d bytes)" name (String.length snap))
        md5
        (Digest.to_hex (Digest.string snap)))
    pinned_snapshots

(* dune runtest runs in _build/default/test, dune exec in the root *)
let test_file name =
  match List.find_opt Sys.file_exists [ name; "test/" ^ name ] with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "%s not found (declared test dep)" name

(* The read side of the same layout: a committed step-5 snapshot of xmp
   Q1 restores and finishes with Q1's pinned Figure-16 row. *)
let test_snapshot_fixture () =
  let snap = test_file "machine_q1_step5.snapshot" in
  let _, _, md5 = List.hd pinned_snapshots in
  Alcotest.(check string) "fixture is the pinned snapshot" md5
    (Digest.to_hex (Digest.string snap));
  let scenario = fig16_scenario "xmp-Q1" in
  let m = M.restore ~scenario snap in
  Alcotest.(check int) "restored at step 5" 5 (M.steps m);
  let r, _ = M.drive ~teacher:(M.oracle_teacher m) m in
  let module Json = Xl_json.Json in
  let want =
    match Json.parse (test_file "fig16_stats.json") with
    | Ok (Json.Obj rows) -> List.assoc "xmp/Q1" rows
    | _ -> Alcotest.fail "fig16_stats.json: not a JSON object"
  in
  Alcotest.(check string) "xmp/Q1 row" (Json.to_string want)
    (match Json.parse (Stats.to_json r.Learn.stats) with
    | Ok j -> Json.to_string j
    | Error e -> Alcotest.failf "Stats.to_json unparseable: %s" e);
  Alcotest.(check bool) "verified" true r.Learn.verified

(* The record codec on its own: every entry of a finished xmp Q12 run
   (membership answers, a counterexample, a Condition Box, orderings),
   written with [add_entry] back to back and read again with
   [read_entry], re-encodes to the same bytes. *)
let test_entry_records () =
  let module Codec = Xl_core.Machine_codec in
  let scenario = fig16_scenario "xmp-Q12" in
  let store = scenario.Scenario.store in
  let _, _, entries = Codec.decode ~scenario (M.snapshot (run_to scenario)) in
  let write entries =
    let b = Buffer.create 256 in
    List.iter (Codec.add_entry b store) entries;
    Buffer.contents b
  in
  let bytes = write entries in
  let rec read pos acc =
    if pos = String.length bytes then List.rev acc
    else
      let e, pos = Codec.read_entry store bytes ~pos in
      read pos (e :: acc)
  in
  let again = read 0 [] in
  Alcotest.(check int) "entry count" (List.length entries) (List.length again);
  Alcotest.(check string) "re-encoded entries" bytes (write again)

(* A counterexample node whose Dewey code ends in 0, in a snapshot with
   a recomputed digest, is refused as corruption that names the step. *)
let test_dewey_step_zero () =
  let module Codec = Xl_core.Machine_codec in
  let scenario = fig16_scenario "xmark-Q1" in
  let config, phase, entries =
    Codec.decode ~scenario (M.snapshot (run_to scenario))
  in
  let zeroed = ref 0 in
  let entries =
    List.map
      (fun (qh, (a : M.answer)) ->
        match a with
        | M.Eq (Xl_core.Teacher.Counter { node; positive }) ->
          incr zeroed;
          let dewey = List.rev (0 :: List.tl (List.rev node.Xl_xml.Node.dewey)) in
          (qh, M.Eq (Xl_core.Teacher.Counter { node = { node with dewey }; positive }))
        | _ -> (qh, a))
      entries
  in
  Alcotest.(check bool) "a counterexample node was zeroed" true (!zeroed > 0);
  match M.restore ~scenario (Codec.encode config scenario phase entries) with
  | _ -> Alcotest.fail "dewey step 0 accepted"
  | exception M.Corrupt msg ->
    Alcotest.(check string) "Corrupt names the step"
      "snapshot node: dewey step 0 is not positive" msg

(* ---------- resuming mid-repair ----------------------------------------- *)

(* The spare-join fixture: greedy minimization discards a join the drop
   context cannot distinguish from redundant, so end-to-end verification
   fails and the repair sweep must restore it through further
   equivalence dialog.  Suspend at the first Ask inside the sweep and
   resume in a fresh machine: repair progress is machine state, so the
   resumed run finishes the same repair instead of restarting it. *)
let test_resume_mid_repair () =
  let f =
    List.find
      (fun (f : Xl_fuzz_fixtures.Fixtures.t) ->
        String.equal f.Xl_fuzz_fixtures.Fixtures.name "spare-join")
      Xl_fuzz_fixtures.Fixtures.all
  in
  let open Xl_fuzz_fixtures in
  let scenario_of () =
    let dtd = Xl_schema.Dtd_parser.parse ~root:f.Fixtures.root f.Fixtures.dtd in
    let doc =
      Xl_xml.Xml_parser.parse_doc ~uri:"fixture.xml" f.Fixtures.training
    in
    let store = Store.of_docs [ doc ] in
    Scenario.make ~description:f.Fixtures.bug ~source_dtd:dtd ~store
      ~target:f.Fixtures.target f.Fixtures.name
  in
  let scenario = scenario_of () in
  let m0 = M.start scenario in
  let teacher = M.oracle_teacher m0 in
  let rec to_repair m =
    match M.outcome m with
    | `Done _ ->
      Alcotest.fail "spare-join never suspended inside the repair sweep"
    | `Ask _ when (match M.phase m with M.Repairing _ -> true | _ -> false) ->
      m
    | `Ask q -> to_repair (snd (M.step m (M.answer_with teacher q)))
  in
  let m_repair = to_repair m0 in
  let snap = M.snapshot m_repair in
  (* the uninterrupted run, for reference *)
  let reference, _ = record (M.start (scenario_of ())) in
  Alcotest.(check bool) "reference verified" true reference.Learn.verified;
  (* restore against a freshly built store: only (uri, dewey) node
     identities and the transcript cross the snapshot boundary *)
  let scenario' = scenario_of () in
  let m = M.restore ~scenario:scenario' snap in
  (match M.phase m with
  | M.Repairing _ -> ()
  | _ -> Alcotest.fail "restored machine is not mid-repair");
  let r, _ = M.drive ~teacher:(M.oracle_teacher m) m in
  Alcotest.(check bool) "resumed run verified" true r.Learn.verified;
  check_result ~what:"spare-join resumed mid-repair" reference r

(* ---------- stale forks ------------------------------------------------- *)

(* Machine values are persistent: after a newer step consumed the live
   continuation, stepping the old value rebuilds the engine by replay
   and the fork finishes identically. *)
let test_stale_fork () =
  let scenario = fig16_scenario "xmp-Q1" in
  let reference, transcript = record (M.start scenario) in
  let m0 = M.start scenario in
  let answer i = (List.nth transcript i).M.answer in
  let _, m1 = M.step m0 (answer 0) in
  (* consume m1's continuation on one lineage... *)
  let _, _m2 = M.step m1 (answer 1) in
  (* ...then fork: step the stale m1 again with the same answer *)
  let _, m1' = M.step m1 (answer 1) in
  let r, _ = M.drive ~teacher:(M.oracle_teacher m1') m1' in
  check_result ~what:"stale fork" reference r

(* A run started with [~prior] is as persistent as any other: its reused
   answers are a view over the prior's transcript, not a table later
   answers mutate.  Step the second run through all k of its answers,
   then step its k/2 value again, and separately snapshot the k/2 value
   and restore it with the same prior: fed the straight run's remaining
   answers, both finish with its row and query. *)
let test_prior_persistence () =
  List.iter
    (fun name ->
      let scenario = fig16_scenario name in
      let first = M.start scenario in
      let _, first = M.drive ~teacher:(M.oracle_teacher first) first in
      let straight, transcript = record (M.start ~prior:first scenario) in
      let k = List.length transcript in
      Alcotest.(check bool) (name ^ ": second run asks at least twice") true (k >= 2);
      let head, tail = List.partition (fun (i, _) -> i < k / 2) (List.mapi (fun i ex -> (i, ex)) transcript) in
      let feed m exs = List.fold_left (fun m (_, ex) -> snd (M.step m ex.M.answer)) m exs in
      let finish m =
        match M.outcome (feed m tail) with
        | `Done r -> r
        | `Ask _ -> Alcotest.failf "%s: still asking after the transcript" name
      in
      let half = feed (M.start ~prior:first scenario) head in
      ignore (finish half) (* all k answers: consumes [half]'s continuation *);
      check_result ~what:(name ^ ": k/2 value stepped again") straight (finish half);
      check_result ~what:(name ^ ": k/2 snapshot restored with the prior") straight
        (finish (M.restore ~prior:first ~scenario (M.snapshot half))))
    [ "xmark-Q7"; "xmark-Q9"; "xmark-Q13"; "xmark-Q14"; "xmark-Q19" ]

(* ---------- answer-shape validation ------------------------------------- *)

let test_shape_validation () =
  let scenario = fig16_scenario "xmp-Q1" in
  let m0 = M.start scenario in
  (match M.outcome m0 with
  | `Done _ -> Alcotest.fail "xmp-Q1 needs no questions?"
  | `Ask q ->
    let bad : M.answer =
      match q with M.Order_box _ -> M.Bool true | _ -> M.Order []
    in
    (match M.step m0 bad with
    | _ -> Alcotest.fail "mis-shaped answer accepted"
    | exception Invalid_argument _ -> ()));
  (* the rejected answer did not corrupt the machine *)
  let r, _ = M.drive ~teacher:(M.oracle_teacher m0) m0 in
  Alcotest.(check bool) "machine usable after rejection" true r.Learn.verified

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "machine"
    [
      ( "replay",
        [
          Alcotest.test_case "fig16 transcripts re-drive byte-identically"
            `Slow test_replay_fig16;
          Alcotest.test_case "25-seed fuzz corpus, -j 1 and -j 4" `Slow
            test_replay_fuzz_corpus;
          Alcotest.test_case "R2 backtracking targets, pinned rows" `Slow
            test_r2_backtracking_rows;
        ] );
      ( "suspend-resume",
        [
          Alcotest.test_case "snapshot at every k-th Ask, k in {1,3,7}" `Slow
            test_suspend_resume;
          Alcotest.test_case
            "N interleaved sessions snapshotted mid-EQ on one service" `Slow
            test_concurrent_snapshot_mid_eq;
          Alcotest.test_case "single-byte flips and truncations raise Corrupt"
            `Quick test_corrupt_byte_flips;
          Alcotest.test_case "a version-1 snapshot raises Corrupt" `Quick
            test_v1_snapshot_rejected;
          Alcotest.test_case "snapshot bytes pinned by MD5" `Quick
            test_pinned_snapshot_bytes;
          Alcotest.test_case "committed step-5 snapshot finishes with its row"
            `Quick test_snapshot_fixture;
          Alcotest.test_case "entry records round-trip" `Quick
            test_entry_records;
          Alcotest.test_case "a Dewey step of 0 raises Corrupt" `Quick
            test_dewey_step_zero;
          Alcotest.test_case "resuming mid-repair finishes the same sweep"
            `Quick test_resume_mid_repair;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "stale fork rebuilds by replay" `Quick
            test_stale_fork;
          Alcotest.test_case "a run with a prior replays like any other" `Quick
            test_prior_persistence;
          Alcotest.test_case "mis-shaped answers rejected without corruption"
            `Quick test_shape_validation;
        ] );
    ]
