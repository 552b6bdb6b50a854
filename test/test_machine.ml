(* The resumable learner state machine (lib/core/machine.ml):

   - replay determinism: every (question, answer) pair of a fig16 run,
     re-driven through Machine.step from the transcript, reproduces the
     hypothesis query and the interaction counts byte-for-byte — on both
     Figure-16 suites and on the 25-seed fuzz corpus, sequential and
     against a 4-domain pool;
   - suspend/resume: snapshotting at every k-th `Ask (k in {1,3,7}),
     restoring into a fresh machine and finishing yields the same final
     query and the same Stats (mq and auto_known included) as the
     uninterrupted run;
   - corruption: flipping any single byte of a snapshot (and truncating
     it) raises Machine.Corrupt — never a silently wrong answer; so does
     a well-formed snapshot of the retired version 1;
   - repair-sweep state: a machine suspended while phase = Repairing
     resumes inside the same sweep (the spare-join fixture, whose
     verification sweep must restore a minimized-away join);
   - stale forks: stepping an old machine value whose continuation was
     consumed by a newer step transparently rebuilds by replay;
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

(* Drive a machine to completion with its own oracle teacher, recording
   the transcript.  Each machine must be driven by its own teacher: the
   oracle's condition-box queues are per-run state. *)
let record m =
  let teacher = M.oracle_teacher m in
  let rec go acc m =
    match M.outcome m with
    | `Done r -> (r, List.rev acc)
    | `Ask q ->
      let a = M.answer_with teacher q in
      go ((q, a) :: acc) (snd (M.step m a))
  in
  go [] m

let dump_transcript path transcript =
  let oc = open_out path in
  List.iteri
    (fun i (q, a) ->
      Printf.fprintf oc "%4d  %s\n      -> %s\n" i (M.question_to_string q)
        (M.answer_to_string a))
    transcript;
  close_out oc

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
    | (q_rec, a) :: rest -> (
      match M.outcome m with
      | `Done _ -> fail_with "machine finished before the transcript ended"
      | `Ask q ->
        if not (String.equal (M.question_to_string q) (M.question_to_string q_rec))
        then
          fail_with "question diverged at step %d: asked %S, recorded %S"
            (M.steps m) (M.question_to_string q) (M.question_to_string q_rec);
        go (snd (M.step m a)) rest)
  in
  match M.outcome (go (M.start ?config scenario) transcript) with
  | `Done r -> r
  | `Ask q ->
    fail_with "machine still asking %S after the full transcript"
      (M.question_to_string q)

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

(* A suite's scenarios share one store; freeze its lazy indexes up front
   (same discipline as the bench drivers). *)
let prepare scenarios =
  List.iter
    (fun (_, sc) ->
      Store.prepare sc.Scenario.store;
      Store.set_strict sc.Scenario.store true)
    scenarios;
  scenarios

let fig16 =
  lazy
    (prepare
       (List.map (fun (n, sc) -> ("xmark-" ^ n, sc)) (Xl_workload.Xmark_scenarios.all ())
       @ List.map (fun (n, sc) -> ("xmp-" ^ n, sc)) (Xl_workload.Xmp_scenarios.all ())))

let fig16_scenario name = List.assoc name (Lazy.force fig16)

(* ---------- replay determinism ----------------------------------------- *)

let test_replay_fig16 () =
  List.iter
    (fun (name, sc) ->
      let reference, transcript = record (M.start sc) in
      let r = replay_transcript ~what:name sc transcript in
      check_result ~what:name reference r)
    (Lazy.force fig16)

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
      let r = M.drive ~teacher:(M.oracle_teacher m) m in
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
  check_suspend_resume ~what:"xmark-Q7" 7 (fig16_scenario "xmark-Q7")

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
    prepare
      (List.filter
         (fun (n, _) -> List.mem n pick)
         (Xl_workload.Xmark_scenarios.all ()))
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
            M.drive ~teacher:(M.oracle_teacher m) m)
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
    Store.prepare store;
    Store.set_strict store true;
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
  let r = M.drive ~teacher:(M.oracle_teacher m) m in
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
  let _, m1 = M.step m0 (snd (List.nth transcript 0)) in
  (* consume m1's continuation on one lineage... *)
  let _, _m2 = M.step m1 (snd (List.nth transcript 1)) in
  (* ...then fork: step the stale m1 again with the same answer *)
  let _, m1' = M.step m1 (snd (List.nth transcript 1)) in
  let r = M.drive ~teacher:(M.oracle_teacher m1') m1' in
  check_result ~what:"stale fork" reference r

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
  let r = M.drive ~teacher:(M.oracle_teacher m0) m0 in
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
          Alcotest.test_case "resuming mid-repair finishes the same sweep"
            `Quick test_resume_mid_repair;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "stale fork rebuilds by replay" `Quick
            test_stale_fork;
          Alcotest.test_case "mis-shaped answers rejected without corruption"
            `Quick test_shape_validation;
        ] );
    ]
