(* lib/server end-to-end over a real Unix socket: one in-process server
   instance shared by every case, exercised through Xl_server.Client
   (actual HTTP/1.1 + JSON on the wire):

   - health/scenarios: the catalog is served; [GET /sessions] lists
     the live ids of every worker and [/health] counts them;
   - auto parity: sessions driven by [{"auto":n}] report the same
     interaction row, stats JSON and verified flag as a synchronous
     Learn.run on an independently built scenario;
   - explicit answers: a local mirror machine computes every answer
     with its own oracle teacher, the test encodes it into the wire
     shapes ({"bool"}, {"bools"}, {"eq"}, {"cb" with a structural
     "cond"}, {"order"}) and posts it — the server-side machine must
     ask the same question stream and finish with the same row;
   - condition codec: every explicit condition of every catalog
     scenario survives cond_json/cond_of_json structurally intact
     (the codec that replaced Marshal on the wire);
   - suspend/resume: a session survives the spool round trip and still
     verifies; uploaded-corpus sessions refuse to suspend (409); a
     spooled snapshot of the retired machine version 1 resumes as 400;
     a freshly created session never takes the id of a spooled one;
   - races: an answer racing a suspend is either in the resumed
     session or answered 404, never acknowledged and lost; two racing
     answers step twice; two racing resumes give one 200 and one 409;
   - uploads: a serialized copy of a catalog document uploaded as a
     fresh corpus learns its target and verifies; a document on which
     the target has no drag-and-drop example answers 422;
   - fault injection: garbage request lines, oversized framing and
     malformed JSON bodies answer 400 with a structured
     {"error","offset"} object and never kill the accept loop —
     the next request on a fresh connection succeeds. *)

module Server = Xl_server.Server
module Client = Xl_server.Client
module Json = Xl_json.Json
module M = Xl_core.Machine
module Learn = Xl_core.Learn
module Stats = Xl_core.Stats
module Scenario = Xl_core.Scenario
module Teacher = Xl_core.Teacher
module Store = Xl_xml.Store

let socket =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xlearner-test-%d.sock" (Unix.getpid ()))

let spool = socket ^ ".spool"

(* one server for the whole binary; torn down by the last case (and by
   process exit — the at_exit below sweeps the socket and spool) *)
let server =
  lazy
    (let t = Server.create ~workers:2 ~spool ~socket () in
     let th = Thread.create Server.serve t in
     (t, th))

let () =
  at_exit (fun () ->
      (try Sys.remove socket with Sys_error _ -> ());
      (try
         Array.iter
           (fun f -> Sys.remove (Filename.concat spool f))
           (Sys.readdir spool)
       with Sys_error _ -> ());
      try Unix.rmdir spool with Unix.Unix_error _ -> ())

let connect () =
  ignore (Lazy.force server);
  Client.connect socket

(* request that must succeed; Alcotest-fails with the error body *)
let req c meth path ?body () =
  let status, j = Client.request c ~meth ~path ?body () in
  if status >= 400 then
    Alcotest.failf "%s %s -> %d: %s" meth path status (Json.to_string j);
  j

let get_str name j =
  match Json.mem_str name j with
  | Some s -> s
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string j)

let auto n = Json.Obj [ ("auto", Json.int n) ]

let drive c id first =
  let rec go j =
    match Json.member "done" j with
    | Some d -> d
    | None ->
      go (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 10_000) ())
  in
  go first

(* fresh local scenarios, independent of the server's catalog builds *)
let local_scenario name =
  let prefixed tag scenarios =
    List.map (fun (n, sc) -> (tag ^ "/" ^ n, sc)) scenarios
  in
  let all =
    prefixed "xmark" (Xl_workload.Xmark_scenarios.all ())
    @ prefixed "xmp" (Xl_workload.Xmp_scenarios.all ())
  in
  let sc = List.assoc name all in
  Store.prepare sc.Scenario.store;
  Store.set_strict sc.Scenario.store true;
  sc

(* ---------- health + catalog -------------------------------------------- *)

let test_health () =
  let c = connect () in
  let h = req c "GET" "/health" () in
  Alcotest.(check (option bool)) "ok" (Some true) (Json.mem_bool "ok" h);
  let scenarios = req c "GET" "/scenarios" () in
  let names =
    match Json.mem_list "scenarios" scenarios with
    | Some l -> List.filter_map Json.to_string_opt l
    | None -> []
  in
  Alcotest.(check bool) "catalog has xmark/Q1" true (List.mem "xmark/Q1" names);
  Alcotest.(check bool) "catalog has xmp/Q1" true (List.mem "xmp/Q1" names);
  (* the list gathers the ids of every worker, and the health count
     agrees with it *)
  let ids =
    List.init 4 (fun _ ->
        get_str "id"
          (req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmp/Q1") ]) ()))
  in
  let listed =
    match Json.mem_list "sessions" (req c "GET" "/sessions" ()) with
    | Some l -> List.filter_map Json.to_string_opt l
    | None -> []
  in
  Alcotest.(check (list string)) "every live session listed"
    (List.sort compare ids) (List.sort compare listed);
  Alcotest.(check (option int)) "health counts the live sessions" (Some 4)
    (Json.mem_int "sessions" (req c "GET" "/health" ()));
  List.iter (fun id -> ignore (req c "DELETE" ("/sessions/" ^ id) ())) ids;
  Alcotest.(check (option int)) "deleted sessions uncounted" (Some 0)
    (Json.mem_int "sessions" (req c "GET" "/health" ()));
  Client.close c

(* ---------- auto-driven parity ------------------------------------------- *)

let test_auto_parity () =
  let c = connect () in
  List.iter
    (fun name ->
      let local = Learn.run (local_scenario name) in
      let j =
        req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str name) ]) ()
      in
      let id = get_str "id" j in
      let d = drive c id j in
      Alcotest.(check string)
        (name ^ ": interaction row")
        (Stats.to_row local.Learn.stats)
        (get_str "row" d);
      let local_stats =
        match Json.parse (Stats.to_json local.Learn.stats) with
        | Ok j -> Json.to_string j
        | Error e -> Alcotest.failf "local stats unparseable: %s" e
      in
      let server_stats =
        match Json.member "stats" d with
        | Some s -> Json.to_string s
        | None -> "missing"
      in
      Alcotest.(check string) (name ^ ": stats JSON") local_stats server_stats;
      Alcotest.(check (option bool))
        (name ^ ": verified")
        (Some local.Learn.verified)
        (Json.mem_bool "verified" d);
      ignore (req c "DELETE" ("/sessions/" ^ id) ()))
    [ "xmp/Q1"; "xmark/Q3" ];
  Client.close c

(* ---------- explicit answers through the wire codec ---------------------- *)

let answer_json store (a : M.answer) : string * Json.t =
  match a with
  | M.Bool b -> ("bool", Json.Obj [ ("bool", Json.Bool b) ])
  | M.Bools bs ->
    ("bools", Json.Obj [ ("bools", Json.list (fun b -> Json.Bool b) bs) ])
  | M.Eq Teacher.Equal -> ("eq", Json.Obj [ ("eq", Json.Str "equal") ])
  | M.Eq (Teacher.Counter { node; positive }) ->
    let uri, dewey = Xl_core.Machine_codec.node_ref store node in
    ( "eq",
      Json.Obj
        [
          ( "eq",
            Json.Obj
              [
                ( "node",
                  Json.Obj
                    [
                      ("uri", Json.str uri); ("dewey", Json.list Json.int dewey);
                    ] );
                ("positive", Json.Bool positive);
              ] );
        ] )
  | M.Cb None -> ("cb", Json.Obj [ ("cb", Json.Null) ])
  | M.Cb (Some { Teacher.cond; terminals; negative }) ->
    ( "cb",
      Json.Obj
        [
          ( "cb",
            Json.Obj
              [
                ("cond", Server.cond_json cond);
                ("terminals", Json.int terminals);
                ("negative", Json.Bool negative);
              ] );
        ] )
  | M.Order keys ->
    ( "order",
      Json.Obj
        [
          ( "order",
            Json.list
              (fun (sp, asc) ->
                Json.Obj
                  [
                    ("path", Json.str (Xl_xquery.Simple_path.to_string sp));
                    ("asc", Json.Bool asc);
                  ])
              keys );
        ] )

let question_kind (q : M.question) =
  match q with
  | M.Membership _ -> "membership"
  | M.Membership_batch _ -> "membership_batch"
  | M.Equivalence _ -> "equivalence"
  | M.Condition_box _ -> "condition_box"
  | M.Order_box _ -> "order_box"

(* Drive a server session with answers a local mirror machine computes:
   the mirror's oracle teacher answers each question, the answer goes
   over the wire, and the mirror steps with the same answer — so the
   two machines must ask the same question stream and land on the same
   row.  Returns the set of answer shapes that crossed the wire. *)
let mirror_session c name shapes =
  let sc = local_scenario name in
  let reference = Learn.run (local_scenario name) in
  let m0 = M.start sc in
  let teacher = M.oracle_teacher m0 in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str name) ]) ()
  in
  let id = get_str "id" j in
  let rec go m j =
    match (M.outcome m, Json.member "done" j) with
    | `Done r, Some d ->
      Alcotest.(check string)
        (name ^ ": mirrored row")
        (Stats.to_row r.Learn.stats) (get_str "row" d);
      Alcotest.(check string)
        (name ^ ": row matches uninterrupted run")
        (Stats.to_row reference.Learn.stats)
        (get_str "row" d);
      Alcotest.(check (option bool))
        (name ^ ": verified")
        (Some true)
        (Json.mem_bool "verified" d)
    | `Done _, None ->
      Alcotest.failf "%s: mirror finished but the server still asks" name
    | `Ask _, Some _ ->
      Alcotest.failf "%s: server finished but the mirror still asks" name
    | `Ask q, None ->
      let server_kind =
        match Json.member "question" j with
        | Some qj -> Option.value ~default:"?" (Json.mem_str "kind" qj)
        | None -> "missing"
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: question kind at step %d" name (M.steps m))
        (question_kind q) server_kind;
      let a = M.answer_with teacher q in
      let shape, body = answer_json sc.Scenario.store a in
      Hashtbl.replace shapes shape ();
      let j' = req c "POST" ("/sessions/" ^ id ^ "/answer") ~body () in
      go (snd (M.step m a)) j'
  in
  go m0 j;
  ignore (req c "DELETE" ("/sessions/" ^ id) ())

let test_explicit_answers () =
  let c = connect () in
  let shapes = Hashtbl.create 8 in
  (* xmark/Q12 asks condition and order boxes, xmark/Q7 a counterexample
     equivalence, xmp/Q1 plain membership *)
  List.iter
    (fun name -> mirror_session c name shapes)
    [ "xmp/Q1"; "xmark/Q7"; "xmark/Q12" ];
  List.iter
    (fun shape ->
      Alcotest.(check bool)
        (Printf.sprintf "answer shape %S crossed the wire" shape)
        true (Hashtbl.mem shapes shape))
    [ "eq"; "cb"; "order" ];
  Alcotest.(check bool) "a membership answer crossed the wire" true
    (Hashtbl.mem shapes "bool" || Hashtbl.mem shapes "bools");
  Client.close c

(* ---------- condition wire codec ------------------------------------------ *)

(* every explicit condition in the whole catalog, through the actual
   wire text: encode, serialize, reparse, decode, compare structurally *)
let test_cond_codec () =
  let scenarios =
    Xl_workload.Xmark_scenarios.all ()
    @ Xl_workload.Xmp_scenarios.all ()
    @ Xl_workload.Sgml_scenarios.all ()
  in
  let count = ref 0 in
  List.iter
    (fun (name, sc) ->
      let conds =
        Xl_xqtree.Xqtree.fold
          (fun acc n -> n.Xl_xqtree.Xqtree.conds @ acc)
          [] sc.Scenario.target
        @ List.map snd sc.Scenario.extra_explicit
      in
      List.iter
        (fun cond ->
          incr count;
          let text = Json.to_string (Server.cond_json cond) in
          let j =
            match Json.parse text with
            | Ok j -> j
            | Error e -> Alcotest.failf "%s: cond JSON reparse: %s" name e
          in
          match Server.cond_of_json j with
          | Error e -> Alcotest.failf "%s: cond decode: %s in %s" name e text
          | Ok cond' ->
            (* free-form [Expr] predicates travel as XQuery text, so the
               reparse is print-identical (what the learned query emits)
               but not necessarily the same AST; every shaped
               constructor must survive structurally *)
            let rec has_expr (c : Xl_xqtree.Cond.t) =
              match c with
              | Xl_xqtree.Cond.Expr _ -> true
              | Xl_xqtree.Cond.Neg c -> has_expr c
              | _ -> false
            in
            Alcotest.(check string)
              (Printf.sprintf "%s: %s prints identically" name text)
              (Xl_xqtree.Cond.to_string cond)
              (Xl_xqtree.Cond.to_string cond');
            if not (has_expr cond) then
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s round-trips structurally" name text)
                true
                (Xl_xqtree.Cond.equal cond cond'))
        conds)
    scenarios;
  Alcotest.(check bool) "catalog conditions were exercised" true (!count > 20);
  (* malformed conditions are a structured Error, never an exception *)
  let deep =
    let rec nest n j =
      if n = 0 then j else nest (n - 1) (Json.Obj [ ("neg", j) ])
    in
    nest 100 (Json.Obj [ ("expr", Json.Str "1 = 1") ])
  in
  List.iter
    (fun bad ->
      match Server.cond_of_json bad with
      | Ok _ -> Alcotest.failf "bad cond accepted: %s" (Json.to_string bad)
      | Error _ -> ())
    [
      Json.Null;
      Json.Obj [];
      Json.Obj [ ("cond_hex", Json.Str "deadbeef") ];
      Json.Obj [ ("expr", Json.Str "for $x in (") ];
      Json.Obj [ ("join", Json.Arr [] ) ];
      Json.Obj
        [
          ( "value",
            Json.Obj
              [
                ( "ep",
                  Json.Obj
                    [ ("var", Json.Str "v"); ("path", Json.Str "a[zz]") ] );
                ("op", Json.Str "==");
                ("const", Json.Null);
              ] );
        ];
      deep;
    ]

(* ---------- suspend / resume --------------------------------------------- *)

let test_suspend_resume () =
  let c = connect () in
  let name = "xmark/Q8" in
  let local = Learn.run (local_scenario name) in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str name) ]) ()
  in
  let id = get_str "id" j in
  ignore (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 2) ());
  let s = req c "POST" ("/sessions/" ^ id ^ "/suspend") () in
  Alcotest.(check (option bool)) "suspended" (Some true)
    (Json.mem_bool "suspended" s);
  (* suspended sessions are gone from the live table *)
  let status, _ = Client.request c ~meth:"GET" ~path:("/sessions/" ^ id) () in
  Alcotest.(check int) "suspended session is 404" 404 status;
  let r =
    req c "POST" "/sessions/resume" ~body:(Json.Obj [ ("id", Json.Str id) ]) ()
  in
  Alcotest.(check (option string)) "resume keeps the id" (Some id)
    (Json.mem_str "id" r);
  let d = drive c id (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ()) in
  Alcotest.(check string) "row after the spool round trip"
    (Stats.to_row local.Learn.stats)
    (get_str "row" d);
  Alcotest.(check (option bool)) "verified after resume" (Some true)
    (Json.mem_bool "verified" d);
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c

(* A spool file whose embedded machine snapshot is version 1 (digests
   recomputed, so only the version is wrong) is a client-visible 400,
   not a server error. *)
let test_resume_v1_snapshot () =
  let c = connect () in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmp/Q1") ]) ()
  in
  let id = get_str "id" j in
  ignore (req c "POST" ("/sessions/" ^ id ^ "/suspend") ());
  let path = Filename.concat spool (id ^ ".sess") in
  let data = In_channel.with_open_bin path In_channel.input_all in
  (* spool framing: magic, u32 version, then id / scenario / snapshot
     blobs (u32 length + bytes), then the MD5 of everything before *)
  let blob_at pos = (pos + 4, Int32.to_int (String.get_int32_le data pos)) in
  let id_at, id_len = blob_at 12 in
  let sc_at, sc_len = blob_at (id_at + id_len) in
  let snap_at, snap_len = blob_at (sc_at + sc_len) in
  let snap = Bytes.of_string (String.sub data snap_at (snap_len - 16)) in
  Bytes.set_int32_le snap 8 1l;
  let snap = Bytes.to_string snap ^ Digest.bytes snap in
  let body = String.sub data 0 snap_at ^ snap in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (body ^ Digest.string body));
  let status, r =
    Client.request c ~meth:"POST" ~path:"/sessions/resume"
      ~body:(Json.Obj [ ("id", Json.Str id) ]) ()
  in
  Alcotest.(check int) "version-1 snapshot resumes as 400" 400 status;
  Alcotest.(check bool)
    (Printf.sprintf "error names the version: %s" (Json.to_string r))
    true
    (match Json.mem_str "error" r with
    | Some e ->
      String.starts_with
        ~prefix:"corrupt snapshot: unsupported machine snapshot version 1 " e
    | None -> false);
  Client.close c

(* Session ids are "<prefix>-<hex counter>", the counter restarting with
   the process: a restarted server can draw the id of a session an
   earlier process suspended.  A spool file crafted for the server's next
   id (a real xmp/Q1 spool file re-encoded under that id, digest
   recomputed) must survive a create + suspend byte-unchanged and still
   resume as its own scenario. *)
let test_fresh_id_skips_spooled () =
  let c = connect () in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmp/Q1") ]) ()
  in
  let donor = get_str "id" j in
  ignore (req c "POST" ("/sessions/" ^ donor ^ "/suspend") ());
  let data =
    In_channel.with_open_bin (Filename.concat spool (donor ^ ".sess"))
      In_channel.input_all
  in
  let dash = String.rindex donor '-' in
  let next =
    Printf.sprintf "%s-%x" (String.sub donor 0 dash)
      (int_of_string ("0x" ^ String.sub donor (dash + 1) (String.length donor - dash - 1))
      + 1)
  in
  (* spool framing: magic, u32 version, then id / scenario / snapshot
     blobs (u32 length + bytes), then the MD5 of everything before *)
  let id_len = Int32.to_int (String.get_int32_le data 12) in
  let rest_at = 16 + id_len in
  let len32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  let body =
    String.sub data 0 12 ^ len32 (String.length next) ^ next
    ^ String.sub data rest_at (String.length data - 16 - rest_at)
  in
  let crafted = body ^ Digest.string body in
  let crafted_path = Filename.concat spool (next ^ ".sess") in
  Out_channel.with_open_bin crafted_path (fun oc -> output_string oc crafted);
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmark/Q1") ]) ()
  in
  let fresh = get_str "id" j in
  ignore (req c "POST" ("/sessions/" ^ fresh ^ "/suspend") ());
  Alcotest.(check string) "crafted spool file unchanged" crafted
    (In_channel.with_open_bin crafted_path In_channel.input_all);
  let r =
    req c "POST" "/sessions/resume" ~body:(Json.Obj [ ("id", Json.Str next) ]) ()
  in
  Alcotest.(check (option string)) "spooled session resumes as itself"
    (Some "xmp/Q1") (Json.mem_str "scenario" r);
  ignore (req c "DELETE" ("/sessions/" ^ next) ());
  Client.close c

(* ---------- races on one session ------------------------------------------ *)

(* Send the requests at once, each on its own connection, and return the
   (status, body) replies in request order. *)
let at_once reqs =
  let go = Atomic.make false in
  let replies = Array.make (List.length reqs) (0, Json.Null) in
  let threads =
    List.mapi
      (fun i (meth, path, body) ->
        let c = connect () in
        Thread.create
          (fun () ->
            while not (Atomic.get go) do
              Thread.yield ()
            done;
            replies.(i) <- Client.request c ~meth ~path ?body ();
            Client.close c)
          ())
      reqs
  in
  Atomic.set go true;
  List.iter Thread.join threads;
  Array.to_list replies

let steps_of j = Option.value ~default:(-1) (Json.mem_int "steps" j)

(* An answer acknowledged with 200 is in the session's state: an answer
   racing a suspend either lands before the snapshot (and the resumed
   session has its step) or finds the session gone (404).  Two answers
   racing each other both step, one after the other. *)
let test_answer_races_suspend () =
  let c = connect () in
  let trials = 30 in
  let lost = ref 0 in
  for _ = 1 to trials do
    let j =
      req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmark/Q8") ]) ()
    in
    let id = get_str "id" j in
    let answer, suspend =
      match
        at_once
          [
            ("POST", "/sessions/" ^ id ^ "/answer", Some (auto 1));
            ("POST", "/sessions/" ^ id ^ "/suspend", None);
          ]
      with
      | [ a; s ] -> (a, s)
      | _ -> assert false
    in
    Alcotest.(check int) "suspend answers 200" 200 (fst suspend);
    Alcotest.(check bool)
      (Printf.sprintf "answer is 200 or 404, got %d" (fst answer))
      true
      (List.mem (fst answer) [ 200; 404 ]);
    let r =
      req c "POST" "/sessions/resume" ~body:(Json.Obj [ ("id", Json.Str id) ]) ()
    in
    if fst answer = 200 && steps_of r < steps_of (snd answer) then incr lost;
    ignore (req c "DELETE" ("/sessions/" ^ id) ())
  done;
  Alcotest.(check int)
    (Printf.sprintf "trials (of %d) that lost an acknowledged answer" trials)
    0 !lost;
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmark/Q8") ]) ()
  in
  let id = get_str "id" j in
  let answer = ("POST", "/sessions/" ^ id ^ "/answer", Some (auto 1)) in
  List.iter
    (fun (status, _) -> Alcotest.(check int) "racing answer" 200 status)
    (at_once [ answer; answer ]);
  Alcotest.(check int) "two racing answers step twice" (steps_of j + 2)
    (steps_of (req c "GET" ("/sessions/" ^ id) ()));
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c

(* Two resumes of one spooled session: one restores it, the other finds
   it live.  The spool file is consumed and nothing was replayed twice. *)
let test_resume_races_resume () =
  let c = connect () in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmark/Q8") ]) ()
  in
  let id = get_str "id" j in
  let before = req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 2) () in
  ignore (req c "POST" ("/sessions/" ^ id ^ "/suspend") ());
  let resume =
    ("POST", "/sessions/resume", Some (Json.Obj [ ("id", Json.Str id) ]))
  in
  let statuses = List.sort compare (List.map fst (at_once [ resume; resume ])) in
  Alcotest.(check (list int)) "one resume wins, one finds it live" [ 200; 409 ]
    statuses;
  Alcotest.(check bool) "spool file consumed" false
    (Sys.file_exists (Filename.concat spool (id ^ ".sess")));
  Alcotest.(check int) "live steps equal the snapshot's" (steps_of before)
    (steps_of (req c "GET" ("/sessions/" ^ id) ()));
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c

(* ---------- uploaded corpus ----------------------------------------------- *)

let test_upload () =
  let c = connect () in
  let target = "xmp/Q1" in
  let sc = local_scenario target in
  let doc = List.hd (Store.docs sc.Scenario.store) in
  let xml = Xl_xml.Serialize.node_to_string (Xl_xml.Doc.root doc) in
  let j =
    req c "POST" "/sessions"
      ~body:
        (Json.Obj
           [
             ( "document",
               Json.Obj
                 [ ("uri", Json.str "uploaded.xml"); ("xml", Json.str xml) ] );
             ("target", Json.str target);
           ])
      ()
  in
  let id = get_str "id" j in
  let sref = get_str "scenario" j in
  Alcotest.(check bool) "upload ref is tagged" true
    (String.length sref > 7 && String.equal (String.sub sref 0 7) "upload:");
  (* no stable scenario reference — suspend must refuse *)
  let status, _ =
    Client.request c ~meth:"POST" ~path:("/sessions/" ^ id ^ "/suspend") ()
  in
  Alcotest.(check int) "uploads refuse to suspend" 409 status;
  let d = drive c id j in
  Alcotest.(check (option bool)) "uploaded corpus verifies" (Some true)
    (Json.mem_bool "verified" d);
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c

(* An upload whose data cannot be learned is the client's problem: Q4's
   target needs an auction the catalog's bidder bid in, and this
   document has none, so no drag-and-drop example exists.  The server
   answers 422 with a structured error, not 500. *)
let test_upload_unlearnable () =
  let c = connect () in
  let xml =
    "<site><open_auctions><open_auction><reserve>10</reserve>\
     </open_auction></open_auctions></site>"
  in
  let status, j =
    Client.request c ~meth:"POST" ~path:"/sessions"
      ~body:
        (Json.Obj
           [
             ( "document",
               Json.Obj [ ("uri", Json.str "empty.xml"); ("xml", Json.str xml) ] );
             ("target", Json.str "xmark/Q4");
           ])
      ()
  in
  Alcotest.(check int) "unlearnable upload answers 422" 422 status;
  let e = get_str "error" j in
  Alcotest.(check bool) "error names the learning failure" true
    (String.length e > 15 && String.equal (String.sub e 0 15) "learning failed");
  Client.close c

(* ---------- fault injection ----------------------------------------------- *)

let status_of_raw raw =
  match String.split_on_char ' ' raw with
  | _ :: code :: _ -> int_of_string_opt code
  | _ -> None

let check_alive () =
  let c = connect () in
  let h = req c "GET" "/health" () in
  Alcotest.(check (option bool)) "server alive after fault" (Some true)
    (Json.mem_bool "ok" h);
  Client.close c

let test_fault_injection () =
  (* a garbage request line *)
  let c = connect () in
  let raw = Client.request_raw c "GARBAGE\r\n\r\n" in
  Alcotest.(check (option int)) "garbage line -> 400" (Some 400)
    (status_of_raw raw);
  Client.close c;
  check_alive ();
  (* an oversized request line (the 8 KiB framing limit) *)
  let c = connect () in
  let raw =
    Client.request_raw c ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check (option int)) "oversized line -> 400" (Some 400)
    (status_of_raw raw);
  Client.close c;
  check_alive ();
  (* well-framed request, malformed JSON body: the 400 carries the
     parser's byte offset *)
  let c = connect () in
  let body = "{\"scenario\" " in
  let raw =
    Client.request_raw c
      (Printf.sprintf
         "POST /sessions HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
         (String.length body) body)
  in
  Alcotest.(check (option int)) "malformed JSON -> 400" (Some 400)
    (status_of_raw raw);
  (match String.index_opt raw '{' with
  | None -> Alcotest.fail "400 body is not JSON"
  | Some i -> (
    match Json.parse (String.sub raw i (String.length raw - i)) with
    | Error e -> Alcotest.failf "400 body is not JSON: %s" e
    | Ok j ->
      Alcotest.(check bool) "error body has a message" true
        (Json.mem_str "error" j <> None);
      Alcotest.(check bool) "error body has an offset" true
        (Json.mem_int "offset" j <> None)));
  Client.close c;
  check_alive ();
  (* structured client mistakes on healthy connections *)
  let c = connect () in
  let status, _ =
    Client.request c ~meth:"POST" ~path:"/sessions"
      ~body:(Json.Obj [ ("scenario", Json.Str "no/such") ])
      ()
  in
  Alcotest.(check int) "unknown scenario -> 400" 400 status;
  let status, _ =
    Client.request c ~meth:"POST" ~path:"/sessions/nope/answer"
      ~body:(Json.Obj [ ("bool", Json.Bool true) ])
      ()
  in
  Alcotest.(check int) "unknown session -> 404" 404 status;
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmp/Q1") ]) ()
  in
  let id = get_str "id" j in
  let status, _ =
    Client.request c ~meth:"POST" ~path:("/sessions/" ^ id ^ "/answer")
      ~body:(Json.Obj [ ("bool", Json.Num 42.) ])
      ()
  in
  Alcotest.(check int) "mis-shaped answer -> 400" 400 status;
  (* the rejected answer left the session usable *)
  let d = drive c id (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ()) in
  Alcotest.(check (option bool)) "session survives a rejected answer"
    (Some true)
    (Json.mem_bool "verified" d);
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c

(* A counterexample naming Dewey step 0 is a client mistake like any
   other: a 400 whose message names the step, and the session goes on. *)
let test_dewey_step_zero () =
  let c = connect () in
  let rec to_eq j =
    match Json.member "question" j with
    | Some q when Json.mem_str "kind" q = Some "equivalence" -> ()
    | Some _ -> to_eq (req c "POST" ("/sessions/" ^ get_str "id" j ^ "/answer") ~body:(auto 1) ())
    | None -> Alcotest.fail "xmp/Q1 finished before an equivalence question"
  in
  let j =
    req c "POST" "/sessions" ~body:(Json.Obj [ ("scenario", Json.Str "xmp/Q1") ]) ()
  in
  let id = get_str "id" j in
  to_eq j;
  let uri = (Store.default (local_scenario "xmp/Q1").Scenario.store).Xl_xml.Doc.uri in
  let node = Json.Obj [ ("uri", Json.str uri); ("dewey", Json.list Json.int [ 0 ]) ] in
  let status, body =
    Client.request c ~meth:"POST" ~path:("/sessions/" ^ id ^ "/answer")
      ~body:
        (Json.Obj
           [ ("eq", Json.Obj [ ("node", node); ("positive", Json.Bool true) ]) ])
      ()
  in
  Alcotest.(check int) "dewey [0] -> 400" 400 status;
  let msg = Option.value ~default:"" (Json.mem_str "error" body) in
  Alcotest.(check bool)
    (Printf.sprintf "the error names the Dewey step: %s" msg)
    true
    (let sub = "dewey step 0" in
     let n = String.length sub in
     let rec has i = i + n <= String.length msg && (String.sub msg i n = sub || has (i + 1)) in
     has 0);
  let d = drive c id (req c "POST" ("/sessions/" ^ id ^ "/answer") ~body:(auto 1) ()) in
  Alcotest.(check (option bool)) "session survives" (Some true)
    (Json.mem_bool "verified" d);
  ignore (req c "DELETE" ("/sessions/" ^ id) ());
  Client.close c

(* ---------- teardown ------------------------------------------------------ *)

let test_shutdown () =
  let t, th = Lazy.force server in
  let c = Client.connect socket in
  let j = req c "POST" "/shutdown" () in
  Alcotest.(check (option bool)) "stopping" (Some true)
    (Json.mem_bool "stopping" j);
  Client.close c;
  Thread.join th;
  ignore t;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* ------------------------------------------------------------------------- *)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "health and catalog" `Quick test_health;
          Alcotest.test_case "auto-driven sessions match Learn.run" `Slow
            test_auto_parity;
          Alcotest.test_case "explicit answers via the JSON codec" `Slow
            test_explicit_answers;
          Alcotest.test_case "condition codec round-trips the catalog" `Quick
            test_cond_codec;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "suspend/resume through the spool" `Quick
            test_suspend_resume;
          Alcotest.test_case "version-1 spooled snapshot answers 400" `Quick
            test_resume_v1_snapshot;
          Alcotest.test_case "fresh ids skip spooled sessions" `Quick
            test_fresh_id_skips_spooled;
          Alcotest.test_case "uploaded corpus learns its target" `Quick
            test_upload;
          Alcotest.test_case "unlearnable upload answers 422" `Quick
            test_upload_unlearnable;
        ] );
      ( "races",
        [
          Alcotest.test_case "answer racing suspend is never lost" `Quick
            test_answer_races_suspend;
          Alcotest.test_case "racing resumes: one 200, one 409" `Quick
            test_resume_races_resume;
        ] );
      ( "faults",
        [
          Alcotest.test_case "malformed requests answer 400, server survives"
            `Quick test_fault_injection;
          Alcotest.test_case "dewey step 0 answers 400 naming the step" `Quick
            test_dewey_step_zero;
        ] );
      ( "teardown",
        [ Alcotest.test_case "shutdown exits the accept loop" `Quick test_shutdown ] );
    ]
