(* The serving workload (serve-churn): the shipped server in its own
   process, driven over its Unix socket through [Xl_server.Client] in a
   closed loop on one keep-alive connection.  Every finished session's row, stats and
   verified flag are compared with an in-process run on identical
   inputs. *)

module Obs = Xl_obs.Obs
module Json = Xl_json.Json
module Client = Xl_server.Client
module Scenario = Xl_core.Scenario
module Store = Xl_xml.Store

(* ---- the in-process reference ------------------------------------------- *)

(* what a finished session must report *)
type expected = {
  row : string;
  stats : string;  (** compact JSON of [Stats.to_json] *)
  verified : bool;
  answer_ms : float;  (** in-process answer_with + step time of the dialogue *)
}

let stats_string st =
  match Json.parse (Xl_core.Stats.to_json st) with
  | Ok j -> Json.to_string j
  | Error e -> "unparseable: " ^ e

(* the server's catalog, built here exactly as the server builds it *)
let local_catalog () =
  Inputs.tag "xmark" (Xl_workload.Xmark_scenarios.all ())
  @ Inputs.tag "xmp" (Xl_workload.Xmp_scenarios.all ())
  @ Inputs.tag "sgml" (Xl_workload.Sgml_scenarios.all ())

type reference = {
  catalog : (string * Scenario.t) list;
  cache : (string, (expected, string) result) Hashtbl.t;
  tm : Learn_wl.timing;
  mutable last_upload : (int * Store.t) option;
      (** the prepared store of the last uploaded document judged: the
          server shares one store across an upload's targets too *)
}

let reference catalog = { catalog; cache = Hashtbl.create 64; tm = Learn_wl.timing (); last_upload = None }

(* upload [doc] ([xml]) for [target], built here exactly as the server's
   upload path builds it *)
let upload_scenario rf ~doc ~xml ~target =
  let base = List.assoc target rf.catalog in
  let store =
    match rf.last_upload with
    | Some (d, store) when d = doc -> store
    | _ ->
      let store = Store.of_docs [ Xl_xml.Xml_parser.parse_doc ~uri:"auction.xml" xml ] in
      Store.prepare store;
      rf.last_upload <- Some (doc, store);
      store
  in
  let digest = Digest.to_hex (Digest.string xml) in
  Scenario.make ~description:("uploaded corpus for " ^ target) ?source_dtd:base.Scenario.source_dtd
    ~picks:base.Scenario.picks ~cb_terminals:base.Scenario.cb_terminals
    ~extra_explicit:base.Scenario.extra_explicit ~store ~target:base.Scenario.target
    (Printf.sprintf "%s@%s" base.Scenario.name (String.sub digest 0 8))

(* the reference outcome for [key], computed once: [Error] carries the
   in-process learning failure *)
let expect rf key make_scenario =
  match Hashtbl.find_opt rf.cache key with
  | Some e -> e
  | None ->
    let answering () = rf.tm.answer_busy_ms +. rf.tm.step_busy_ms in
    let before = answering () in
    let e =
      match Learn_wl.learn rf.tm (make_scenario ()) with
      | Error e -> Error e
      | Ok r ->
        Ok
          {
            row = Xl_core.Stats.to_row r.stats;
            stats = stats_string r.stats;
            verified = r.verified;
            answer_ms = answering () -. before;
          }
    in
    Hashtbl.replace rf.cache key e;
    e

(* ---- requests ------------------------------------------------------------ *)

type req = {
  kind : string;  (** create, answer, suspend, resume, delete *)
  upload : bool;  (** of an upload session, else of a catalog session *)
  sent : int;  (** ns, monotonic *)
  fin : int;
}

type shared = {
  mutable reqs : req list;  (** 2xx responses *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  mutable notes : string list;
  mutable done_ms : (int * float) list;
      (** catalog session [k]: create sent to a finished result *)
  mutable done_at : int list;  (** when each session finished *)
  mutable served_answer_ms : float;  (** send-to-response time of answers of checked sessions *)
  mutable inproc_answer_ms : float;  (** the same dialogues in process *)
  mutable exchanges : (Json.t * Json.t) list;  (** answer bodies, traced run *)
  mutable keep_exchanges : int;
  mutable finished : finished list;  (** judged after the timed phase *)
}

(* a session as the client saw it, waiting to be judged *)
and finished = {
  f_name : string;
  f_key : string;  (** reference cache key *)
  f_make : unit -> Scenario.t;  (** the identical inputs, in process *)
  f_failure : (int * string) option;  (** first non-2xx response *)
  f_result : Json.t option;  (** the "done" object *)
  f_served_ms : float;  (** send-to-response time of its answer requests *)
}

let shared () =
  {
    reqs = [];
    attempted = 0;
    failed = 0;
    mismatched = 0;
    notes = [];
    done_ms = [];
    done_at = [];
    served_answer_ms = 0.;
    inproc_answer_ms = 0.;
    exchanges = [];
    keep_exchanges = 0;
    finished = [];
  }

let note sh s = if List.length sh.notes < 20 then sh.notes <- s :: sh.notes

(* one request; a transport error or a non-JSON body reads as status 0 *)
let call sh conn ~upload ~kind ~meth ~path ?body () =
  let sent = Obs.now_ns () in
  let status, j =
    match Client.request conn ~meth ~path ?body () with
    | v -> v
    | exception (Client.Transport e | Failure e) -> (0, Json.Obj [ ("error", Json.str e) ])
  in
  let fin = Obs.now_ns () in
  if status >= 200 && status < 300 then sh.reqs <- { kind; upload; sent; fin } :: sh.reqs;
  if kind = "answer" && sh.keep_exchanges > 0 then begin
    sh.keep_exchanges <- sh.keep_exchanges - 1;
    sh.exchanges <- (Option.value ~default:Json.Null body, j) :: sh.exchanges
  end;
  (status, j, sent, fin)

let error_of j = Option.value ~default:(Json.to_string j) (Json.mem_str "error" j)

(* Judge one session against the in-process reference: true when it
   learned the reference's verified result.  A failure the reference
   shares (the in-process learner fails the same way) is a failed
   operation only; any disagreement is also a mismatch, which makes the
   run incorrect. *)
let judge sh rf f =
  let expected = expect rf f.f_key f.f_make in
  let mismatch msg =
    sh.mismatched <- sh.mismatched + 1;
    note sh (f.f_name ^ ": " ^ msg);
    false
  in
  let fail msg =
    note sh (f.f_name ^ ": " ^ msg);
    false
  in
  match (f.f_failure, f.f_result, expected) with
  | Some (status, msg), _, Error ref_err ->
    fail (Printf.sprintf "HTTP %d %s (in process too: %s)" status msg ref_err)
  | Some (status, msg), _, Ok _ -> mismatch (Printf.sprintf "HTTP %d %s, but learns in process" status msg)
  | None, None, _ -> mismatch "no result"
  | None, Some _, Error e -> mismatch ("served a result; in process: " ^ e)
  | None, Some d, Ok e ->
    let row = Option.value ~default:"?" (Json.mem_str "row" d) in
    let stats = match Json.member "stats" d with Some s -> Json.to_string s | None -> "?" in
    let verified = Json.mem_bool "verified" d = Some true in
    if not (String.equal row e.row && String.equal stats e.stats && verified = e.verified) then
      mismatch
        (Printf.sprintf "served row %S verified %b, in process %S verified %b" row verified e.row
           e.verified)
    else if not verified then fail "learned query not verified"
    else begin
      sh.served_answer_ms <- sh.served_answer_ms +. f.f_served_ms;
      sh.inproc_answer_ms <- sh.inproc_answer_ms +. e.answer_ms;
      true
    end

(* Judge every finished session.  The operations counted are the
   distinct session inputs (a catalog scenario, or an uploaded document
   with its target), each failed when any of its sessions did: how often
   a catalog scenario comes round depends on the server's speed, the
   inputs of a run do not, so [attempted] and [failed] are the same for
   every run on the same inputs.  Every session is still judged, and
   each disagreement counts as a mismatch.  Judged in key order, so the
   sessions of one uploaded document are judged one after the other on
   one prepared store. *)
let judge_all sh rf =
  let keys = Hashtbl.create 64 and failed = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace keys f.f_key ();
      if not (judge sh rf f) then Hashtbl.replace failed f.f_key ())
    (List.stable_sort (fun a b -> compare a.f_key b.f_key) (List.rev sh.finished));
  sh.attempted <- Hashtbl.length keys;
  sh.failed <- Hashtbl.length failed

let create_body = function
  | `Catalog name -> Json.Obj [ ("scenario", Json.str name) ]
  | `Upload (xml, target) ->
    Json.Obj
      [
        ("document", Json.Obj [ ("uri", Json.str "auction.xml"); ("xml", Json.str xml) ]);
        ("target", Json.str target);
      ]

(* ---- the closed loop ------------------------------------------------------ *)

(* One connection runs sessions back to back until the deadline:
   create, answer [chunk] questions per request, suspend and resume a
   catalog session after its [suspend_after]th answer, delete.  The next
   session is the next upload once it is due ({!Inputs.upload_rate} from
   [t0]), else the next catalog session.  Every upload due before the
   deadline is taken, after the deadline if a long session delayed it,
   so a run makes exactly [Inputs.uploads] of them.

   One connection, not two: against [--workers 1] a second connection
   gave no more sessions a second (alternating runs on three seeds on a
   2-vCPU VM: 40.8, 36.5, 42.0 with two, 42.0, 37.4, 37.5 with one) but
   doubled the latencies by queueing one session behind the other, and
   spread the runs wider (README.md, Workloads).  The chunk size is a
   choice, not a measurement: a few questions per request, as a client
   that batches the automatic answers would send. *)
let chunk = 3

let closed_loop sh ~socket ~rf ~seed ~docs ~seconds ~t0 =
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let n_uploads = Inputs.uploads ~seconds in
  let catalog = List.map fst rf.catalog in
  let targets = Inputs.upload_targets catalog in
  let upload_gap_ns = int_of_float (1e9 /. Inputs.upload_rate) in
  let suspend_resume = Sample.create () in
  let conn = Client.connect socket in
  let session ~name ~create ~key ~make ~suspend_after ~catalog_index =
    let upload = catalog_index = None in
    let failure = ref None in
    let result = ref None in
    let served = ref 0. in
    let fail status body = if !failure = None then failure := Some (status, error_of body) in
    let status, body, created, fin =
      call sh conn ~upload ~kind:"create" ~meth:"POST" ~path:"/sessions" ~body:(create_body create) ()
    in
    if status <> 201 then fail status body
    else begin
      let id = Option.value ~default:"" (Json.mem_str "id" body) in
      let path = "/sessions/" ^ id in
      let rec drive body fin answered =
        match Json.member "done" body with
        | Some d ->
          result := Some d;
          sh.done_at <- fin :: sh.done_at;
          Option.iter (fun k -> sh.done_ms <- (k, Sample.ms_of_ns (fin - created)) :: sh.done_ms) catalog_index
        | None ->
          if answered = suspend_after then begin
            let s1, b1, t_s, _ = call sh conn ~upload ~kind:"suspend" ~meth:"POST" ~path:(path ^ "/suspend") () in
            if s1 <> 200 then fail s1 b1
            else begin
              let s2, b2, _, t_e =
                call sh conn ~upload ~kind:"resume" ~meth:"POST" ~path:"/sessions/resume"
                  ~body:(Json.Obj [ ("id", Json.str id) ]) ()
              in
              if s2 <> 200 then fail s2 b2 else Sample.add suspend_resume (Sample.ms_of_ns (t_e - t_s))
            end
          end;
          if !failure = None then begin
            let st, b, sent, fin =
              call sh conn ~upload ~kind:"answer" ~meth:"POST" ~path:(path ^ "/answer")
                ~body:(Json.Obj [ ("auto", Json.int chunk) ]) ()
            in
            served := !served +. Sample.ms_of_ns (fin - sent);
            if st = 200 then drive b fin (answered + 1) else fail st b
          end
      in
      drive body fin 0;
      let sd, bd, _, _ = call sh conn ~upload ~kind:"delete" ~meth:"DELETE" ~path () in
      if sd <> 200 then fail sd bd
    end;
    sh.finished <-
      { f_name = name; f_key = key; f_make = make; f_failure = !failure; f_result = !result; f_served_ms = !served }
      :: sh.finished
  in
  let rec loop uploads catalog_k =
    let now = Obs.now_ns () in
    if uploads < n_uploads && now >= t0 + (uploads * upload_gap_ns) then begin
      let ({ doc; target } : Inputs.upload) = Inputs.upload ~seed ~targets uploads in
      let xml = docs.(doc) in
      session
        ~name:(Printf.sprintf "upload %d/%s" doc target)
        ~create:(`Upload (xml, target))
        ~key:(Printf.sprintf "upload:%d:%s" doc target)
        ~make:(fun () -> upload_scenario rf ~doc ~xml ~target)
        ~suspend_after:(-1) ~catalog_index:None;
      loop (uploads + 1) catalog_k
    end
    else if now >= deadline then catalog_k
    else begin
      let c = Inputs.catalog_session ~seed ~catalog catalog_k in
      session ~name:c.scenario ~create:(`Catalog c.scenario) ~key:c.scenario
        ~make:(fun () -> List.assoc c.scenario rf.catalog)
        ~suspend_after:c.suspend_after ~catalog_index:(Some catalog_k);
      loop uploads (catalog_k + 1)
    end
  in
  let catalog_sessions = Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> loop 0 0) in
  (suspend_resume, catalog_sessions)

(* ---- server-side telemetry ------------------------------------------------ *)

module TA = Xl_obs.Trace_analysis

(* [server.request] spans of answers minus the [machine.step] spans they
   contain (same worker domain, inside the request's interval): the
   queue wait on the pinned worker, the oracle and the rendering; mean ms
   per answer request *)
let request_self_ms (trace : TA.trace) =
  let by_t0 l = List.sort (fun (a : TA.span) b -> compare a.t0_ns b.t0_ns) l in
  let reqs =
    by_t0 (List.filter (fun (s : TA.span) -> s.name = "server.request" && s.detail = Some "answer") trace.spans)
  in
  let steps = Array.of_list (by_t0 (List.filter (fun (s : TA.span) -> s.name = "machine.step") trace.spans)) in
  let covered (r : TA.span) =
    let stop = r.t0_ns + r.dur_ns in
    Array.fold_left
      (fun acc (s : TA.span) ->
        if s.domain = r.domain && s.t0_ns >= r.t0_ns && s.t0_ns + s.dur_ns <= stop then acc + s.dur_ns
        else acc)
      0 steps
  in
  match reqs with
  | [] -> 0.
  | _ ->
    let total = List.fold_left (fun acc (r : TA.span) -> acc + max 0 (r.dur_ns - covered r)) 0 reqs in
    Sample.ms_of_ns total /. float_of_int (List.length reqs)

(* Json.to_string and Json.parse of both bodies of each answer exchange,
   median of five timings, in us per exchange; and the body bytes *)
let codec exchanges =
  match exchanges with
  | [] -> (0., 0.)
  | _ ->
    let n = float_of_int (List.length exchanges) in
    let once () =
      let t0 = Obs.now_ns () in
      List.iter
        (fun (req, resp) ->
          ignore (Json.parse (Json.to_string req));
          ignore (Json.parse (Json.to_string resp)))
        exchanges;
      float_of_int (Obs.now_ns () - t0) /. 1000. /. n
    in
    let us = Sample.median_of (List.init 5 (fun _ -> once ())) in
    let bytes =
      List.fold_left
        (fun acc (req, resp) -> acc + String.length (Json.to_string req) + String.length (Json.to_string resp))
        0 exchanges
    in
    (us, float_of_int bytes /. n)

(* Ingest (parsing an uploaded document, building its store's index):
   its share of all server request time, and its total in ms.  Only
   ingest spans inside a create request count, which leaves out the
   catalog the server builds at start-up. *)
let ingest (trace : TA.trace) =
  let spans name = List.filter (fun (s : TA.span) -> s.name = name) trace.spans in
  let total l = List.fold_left (fun acc (s : TA.span) -> acc + s.dur_ns) 0 l in
  let requests = spans "server.request" in
  let creates = List.filter (fun (s : TA.span) -> s.detail = Some "create") requests in
  let inside (s : TA.span) =
    List.exists
      (fun (c : TA.span) -> s.t0_ns >= c.t0_ns && s.t0_ns + s.dur_ns <= c.t0_ns + c.dur_ns)
      creates
  in
  let ingest = total (List.filter inside (spans "xml.parse" @ spans "store.index_build")) in
  ( (match total requests with 0 -> 0. | d -> float_of_int ingest /. float_of_int d),
    Sample.ms_of_ns ingest )

(* ---- one timed phase ------------------------------------------------------- *)

type phase = {
  sh : shared;
  t0 : int;
  wall_ms : float;
  suspend_resume : Sample.t;
  catalog_sessions : int;  (** catalog sessions taken *)
}

(* requests of [kind]; with [upload], of upload sessions only or of
   catalog sessions only *)
let of_kind ?upload sh kind =
  List.filter (fun (r : req) -> r.kind = kind && Option.fold ~none:true ~some:(( = ) r.upload) upload) sh.reqs

let latency reqs =
  let s = Sample.create () in
  List.iter (fun (r : req) -> Sample.add s (Sample.ms_of_ns (r.fin - r.sent))) reqs;
  s

let run_phase ~socket ~rf ~seed ~seconds ~docs ~keep_exchanges =
  let sh = shared () in
  sh.keep_exchanges <- keep_exchanges;
  let t0 = Obs.now_ns () in
  let suspend_resume, catalog_sessions =
    closed_loop sh ~socket ~rf ~seed ~docs ~seconds ~t0
  in
  { sh; t0; wall_ms = Sample.since_ms t0; suspend_resume; catalog_sessions }

let completed p = List.length p.sh.done_at

(* Uploads come at a fixed rate and catalog sessions fill the rest of the
   server's capacity, so the uploads' share of the sessions grows as the
   server slows.  A latency pooled over both kinds would move with that
   share; the gated ones each keep to one kind, whose mix is fixed:
   answer times to catalog sessions, scenario times to whole cycles of
   the catalog, the mean create time to uploads (every other one a new
   document), which is the create path that ingests XML. *)
let catalog_answers p = latency (of_kind ~upload:false p.sh "answer")

(* the time to a finished result of the catalog sessions in whole cycles
   of the catalog, so every run pools the same multiset of scenarios *)
let scenario_p50 p ~catalog_size =
  let whole = p.catalog_sessions / catalog_size * catalog_size in
  let within = List.filter (fun (k, _) -> k < whole || whole = 0) p.sh.done_ms in
  Sample.median_of (List.map snd within)

(* Throughput and the mean answer and create times as medians over five
   equal segments of the phase, which keeps a burst of lost CPU time in
   one segment out of the figure. *)
let segments = 5

let segment_medians p =
  let seg = max 1 (int_of_float (p.wall_ms *. 1e6) / segments) in
  let in_seg i t = (t - p.t0) / seg = i in
  let mean_in ~upload kind i =
    Sample.mean (latency (List.filter (fun (r : req) -> in_seg i r.fin) (of_kind ~upload p.sh kind)))
  in
  let per_seg f = Sample.median_of (List.init segments f) in
  ( per_seg (fun i -> float_of_int (List.length (List.filter (in_seg i) p.sh.done_at)) /. (float_of_int seg /. 1e9)),
    per_seg (mean_in ~upload:false "answer"),
    per_seg (mean_in ~upload:true "create") )

(* ---- the workload ---------------------------------------------------------- *)

(* Set-up time is the median of [setup_reps] server starts, from process
   start until /health answers.  The host's speed changes within seconds,
   so the untraced run makes half of them before its timed phase (the
   last of those is the server the phase drives) and the other half
   after it. *)
let setup_reps = 11

let throwaway_starts ~exe ~dir ~name n =
  List.init n (fun i ->
      let s, secs = Server_proc.start ~exe ~dir ~name:(Printf.sprintf "%s-setup%d" name i) ~trace:false in
      Server_proc.stop s;
      secs)

(* Run [f server setup_s] against a started server; untraced, [setup_s]
   is the median of [setup_reps] starts. *)
let with_server ~exe ~dir ~trace ~name f =
  let before = if trace then [] else throwaway_starts ~exe ~dir ~name:(name ^ "-a") (setup_reps / 2) in
  let s, secs = Server_proc.start ~exe ~dir ~name ~trace in
  let v = Fun.protect ~finally:(fun () -> Server_proc.stop s) (fun () -> f s) in
  let after =
    if trace then [] else throwaway_starts ~exe ~dir ~name:(name ^ "-b") (setup_reps - 1 - (setup_reps / 2))
  in
  (v, Sample.median_of ((secs :: before) @ after))

let run ~workload ~server_exe ~seed ~seconds ~trace : Report.t =
  let exe = if server_exe = "" then "_build/default/bin/xlearner_cli.exe" else server_exe in
  let dir = Filename.concat ".perfbench" (string_of_int (Unix.getpid ())) in
  Fun.protect ~finally:(fun () ->
      Server_proc.rm_rf dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* inputs: the new documents the run can upload, generated from the
     seed, and the catalog the in-process reference learns *)
  let (docs, catalog), gen_ms =
    Sample.timed (fun () ->
        (Array.init (Inputs.new_docs ~seconds) (Inputs.upload_xml ~seed), local_catalog ()))
  in
  let (), prepare_ms =
    Sample.timed (fun () -> List.iter (fun (_, sc) -> Store.prepare sc.Scenario.store) catalog)
  in
  let rf = reference catalog in
  (* one in-process pass over the catalog: warms this process's caches
     for the reference runs, and gives the exact engine counts *)
  let warm_q = Layers.questions () in
  let warm_tm = Learn_wl.timing () in
  if trace then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  List.iter
    (fun (_, sc) ->
      match Learn_wl.learn ~on_question:(Layers.count_question warm_q) warm_tm sc with
      | Ok r -> Layers.count_result warm_q r.stats
      | Error _ -> ())
    catalog;
  let counters =
    if trace then Layers.engine_counter_metrics ~batch_p50:(Layers.local_histogram_p50 "lstar_batch_size")
    else []
  in
  if trace then begin
    Layers.stop_tracing ();
    Obs.reset ()
  end;
  let phase ~seconds ~keep_exchanges s =
    run_phase ~socket:s.Server_proc.socket ~rf ~seed ~seconds ~docs ~keep_exchanges
  in
  let client_p50 p kind = Sample.p50 (latency (of_kind p.sh kind)) in
  let finish p =
    judge_all p.sh rf;
    p
  in
  let report ~metrics ~extra (ps : phase list) =
    let sum f = List.fold_left (fun acc p -> acc + f p.sh) 0 ps in
    {
      Report.workload;
      seed;
      correct = sum (fun sh -> sh.mismatched) = 0;
      attempted = max 1 (sum (fun sh -> sh.attempted));
      failed = sum (fun sh -> sh.failed);
      metrics;
      extra;
      notes = List.concat_map (fun p -> List.rev p.sh.notes) ps;
    }
  in
  if not trace then begin
    let (p, rss), setup_s =
      with_server ~exe ~dir ~trace:false ~name:"server" (fun s ->
          let p = phase ~seconds ~keep_exchanges:0 s in
          (p, Server_proc.peak_rss_mb s))
    in
    let p = finish p in
    let answers = catalog_answers p in
    let rate, answer_mean, create_mean = segment_medians p in
    let gated, printed = Sample.answer_figures ~mean:answer_mean answers in
    let e2e =
      [
        ("setup_s", setup_s);
        ("sessions_per_sec", rate);
        ("scenario_p50_ms", scenario_p50 p ~catalog_size:(List.length catalog));
        ("create_mean_ms", create_mean);
        ("peak_rss_mb", rss);
      ]
      @ gated
    in
    let extra =
      List.map (fun (n, v) -> Report.m n (if n = "answer_samples" then "count" else "ms") v) printed
      @ [
          Report.m "create_p50_ms" "ms" (client_p50 p "create");
          Report.m "suspend_resume_p50_ms" "ms" (Sample.p50 p.suspend_resume);
          Report.m "sessions_completed" "count" (float_of_int (completed p));
        ]
    in
    report ~metrics:(Spec.fill Spec.end_to_end e2e) ~extra [ p ]
  end
  else begin
    (* half the time against an untraced server (client-timed layers),
       half against a traced one (spans, /metrics); their difference is
       the tracing overhead *)
    let half = seconds /. 2. in
    let up, _ =
      with_server ~exe ~dir ~trace:false ~name:"server" (fun s -> phase ~seconds:half ~keep_exchanges:0 s)
    in
    let (tp, metrics_json, trace_file), _ =
      with_server ~exe ~dir ~trace:true ~name:"traced" (fun s ->
          let p = phase ~seconds:half ~keep_exchanges:1000 s in
          let _, m = Server_proc.get_json s "/metrics" in
          (p, m, s.Server_proc.trace_file))
    in
    let up = finish up in
    let tp = finish tp in
    let strace =
      match trace_file with
      | Some f -> (
        match TA.load f with
        | Ok t -> t
        | Error e -> failwith ("perfbench: the server trace does not parse: " ^ e))
      | None -> failwith "perfbench: no server trace"
    in
    let spans = Layers.of_trace strace in
    let ep name = Layers.histogram_p50 metrics_json ("server_us_" ^ name) in
    let codec_us, bytes = codec tp.sh.exchanges in
    let busy kinds =
      List.fold_left
        (fun acc (r : req) -> if List.mem r.kind kinds then acc +. Sample.ms_of_ns (r.fin - r.sent) else acc)
        0. up.sh.reqs
    in
    let all_kinds = [ "create"; "answer"; "suspend"; "resume"; "delete" ] in
    let ingest_frac, ingest_ms = ingest strace in
    let upload_creates = Sample.sum (latency (of_kind ~upload:true tp.sh "create")) in
    let untraced_answer = client_p50 up "answer" in
    let traced_answer = client_p50 tp "answer" in
    let measured =
      [
        ("workload.generate_s", gen_ms /. 1000.);
        ("xml.store_prepare_s", prepare_ms /. 1000.);
        ("xml.parse.self_ms", Layers.self_ms_per_call spans "xml.parse");
        ("xml.store.index_build.self_ms", Layers.self_ms_per_call spans "store.index_build");
        ("core.machine.start_p50_ms", Sample.p50 rf.tm.starts);
        ("core.machine.step_busy_s", rf.tm.step_busy_ms /. 1000.);
        ("core.machine.step_p99_ms", Sample.quantile rf.tm.steps 0.99);
        ("core.oracle.answer_busy_s", rf.tm.answer_busy_ms /. 1000.);
        (* whole span time: the engine spans a restore's replay opens
           stay open until the session ends, so restore's self time
           would always read 0 *)
        ("core.machine.snapshot_ms", Layers.total_ms_per_call spans "machine.snapshot");
        ("core.machine.restore_ms", Layers.total_ms_per_call spans "machine.restore");
        ("server.client.answer_p50_ms", untraced_answer);
        ("server.client.create_p50_ms", client_p50 up "create");
        ("server.client.suspend_p50_ms", client_p50 up "suspend");
        ("server.client.resume_p50_ms", client_p50 up "resume");
        ("server.client.delete_p50_ms", client_p50 up "delete");
        ("server.endpoint.answer_p50_us", ep "answer");
        ("server.endpoint.create_p50_us", ep "create");
        ("server.endpoint.suspend_p50_us", ep "suspend");
        ("server.endpoint.resume_p50_us", ep "resume");
        ("server.endpoint.delete_p50_us", ep "delete");
        ("server.transport.answer_p50_ms", traced_answer -. (ep "answer" /. 1000.));
        ("server.request.self_ms", request_self_ms strace);
        ( "server.overhead_frac",
          if up.sh.served_answer_ms > 0. then 1. -. (up.sh.inproc_answer_ms /. up.sh.served_answer_ms) else 0. );
        ("server.ingest_frac", ingest_frac);
        ("server.ingest_upload_frac", if upload_creates > 0. then ingest_ms /. upload_creates else 0.);
        ("server.suspend_resume_frac", busy [ "suspend"; "resume" ] /. busy all_kinds);
        ("json.codec_us_per_request", codec_us);
        ("server.bytes_per_answer", bytes);
        ("obs.trace_overhead_frac", if untraced_answer > 0. then (traced_answer /. untraced_answer) -. 1. else 0.);
        ("bench.attributed_frac", busy all_kinds /. up.wall_ms);
      ]
      @ Layers.engine_span_metrics spans ~scenarios:(completed tp)
      @ counters
      @ Layers.question_metrics warm_q
    in
    report ~metrics:(Spec.fill Spec.per_layer measured)
      ~extra:
        [
          Report.m "untraced_sessions_completed" "count" (float_of_int (completed up));
          Report.m "traced_sessions_completed" "count" (float_of_int (completed tp));
        ]
      [ up; tp ]
  end
