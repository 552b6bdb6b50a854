(* The shipped server as a separate process: [xlearner_cli serve
   --workers 1] on a Unix socket inside the run directory, so the load
   generator's threads never share a domain with the server's accept and
   connection threads. *)

module Client = Xl_server.Client
module Json = Xl_json.Json
module Obs = Xl_obs.Obs

type t = {
  pid : int;
  socket : string;
  trace_file : string option;
  log_fd : Unix.file_descr;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* the environment minus XLEARNER_TRACE, which would turn telemetry on in
   an untraced server *)
let server_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"XLEARNER_TRACE=" kv))
       (Array.to_list (Unix.environment ())))

let alive t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Start the server and wait until GET /health answers 200; returns the
   server and the seconds that took.  [name] keeps the files of several
   starts in one run directory apart. *)
let start ~exe ~dir ~name ~trace =
  mkdir_p dir;
  let socket = Filename.concat dir (name ^ ".sock") in
  let spool = Filename.concat dir (name ^ ".spool") in
  let trace_file = if trace then Some (Filename.concat dir (name ^ ".jsonl")) else None in
  let log_fd =
    Unix.openfile (Filename.concat dir (name ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [ exe; "serve"; "--socket"; socket; "--workers"; "1"; "--spool"; spool ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let t0 = Obs.now_ns () in
  let pid =
    Unix.create_process_env exe (Array.of_list args) (server_env ()) Unix.stdin log_fd log_fd
  in
  let t = { pid; socket; trace_file; log_fd } in
  let deadline = t0 + 60_000_000_000 in
  let rec wait () =
    if not (alive t) then failwith ("perfbench: the server exited during start-up (see " ^ dir ^ ")");
    if Obs.now_ns () > deadline then failwith "perfbench: the server did not answer /health";
    match
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Client.request c ~meth:"GET" ~path:"/health" ())
    with
    | 200, _ -> ()
    | _ | (exception (Client.Transport _ | Failure _)) ->
      (* a finer step slows the start it measures: on a 2-vCPU VM,
         polling every 0.2 ms took the median start from 41 to 47 ms and
         polling without a sleep to 57 ms, as the poller competed with
         the starting server for the CPUs; a 2 ms step adds at most 2 ms *)
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  (t, Sample.ms_of_ns (Obs.now_ns () - t0) /. 1000.)

let peak_rss_mb t = Proc.vmhwm_mb (string_of_int t.pid)

let get_json t path =
  let c = Client.connect t.socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c ~meth:"GET" ~path ())

(* POST /shutdown and reap the process (SIGKILL after 30 s), so no
   process outlives the run; the traced server writes its trace on the
   way out *)
let stop t =
  (try
     let c = Client.connect t.socket in
     Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
         ignore (Client.request c ~meth:"POST" ~path:"/shutdown" ()))
   with _ -> ( try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = Obs.now_ns () + 30_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Obs.now_ns () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  try Unix.close t.log_fd with Unix.Unix_error _ -> ()

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()
