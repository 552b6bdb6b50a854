(** Fixed-size domain pool: chunked work-stealing over an atomic cursor.

    See the interface for the scheduling model and the
    domain-confinement contract tasks must respect. *)

module Obs = Xl_obs.Obs

type worker_stat = { tasks : int; busy_ns : int }

type t = { size : int }

(* scheduling metrics: how evenly a map spread its work (observed once
   per worker at join, so the pool itself adds no hot-path telemetry) *)
let h_tasks_per_worker = Obs.Histogram.make "pool_tasks_per_worker"
let h_idle_us = Obs.Histogram.make "pool_worker_idle_us"
let c_tasks = Obs.Counter.make "pool_tasks"

let clamp lo hi v = max lo (min hi v)

let default_jobs () =
  match Sys.getenv_opt "XLEARNER_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> clamp 1 64 n
    | _ -> clamp 1 64 (Domain.recommended_domain_count () - 1))
  | None -> clamp 1 64 (Domain.recommended_domain_count () - 1)

let create ?domains () =
  let size = match domains with Some n -> max 1 n | None -> default_jobs () in
  { size }

let domains t = t.size

(* set while a domain is executing pool tasks: a nested [map] from inside
   a task must not spawn another layer of domains *)
let inside_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let sequential_map f arr = Array.map f arr

let record_stats (stats : worker_stat array) ~wall_ns =
  Array.iter
    (fun s ->
      Obs.Counter.add c_tasks s.tasks;
      Obs.Histogram.observe h_tasks_per_worker s.tasks;
      Obs.Histogram.observe h_idle_us (max 0 (wall_ns - s.busy_ns) / 1000))
    stats

let parallel_map ~workers ~chunk ~(record : worker_stat array -> unit) f
    (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let failure = Atomic.make None in
  (* per-worker accounting: each worker writes only its own slot, read
     after the join, so the arrays need no synchronization *)
  let tasks = Array.make workers 0 in
  let busy = Array.make workers 0 in
  let worker wi =
    Domain.DLS.set inside_worker true;
    let rec loop () =
      if Atomic.get failure = None then begin
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          let t0 = Obs.now_ns () in
          (try
             for i = lo to hi - 1 do
               results.(i) <- Some (f arr.(i))
             done
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          busy.(wi) <- busy.(wi) + (Obs.now_ns () - t0);
          tasks.(wi) <- tasks.(wi) + (hi - lo);
          loop ()
        end
      end
    in
    loop ();
    Domain.DLS.set inside_worker false;
    (* merge-at-join: this worker's span buffer moves into the global
       list before the domain dies (one lock acquisition per worker) *)
    Obs.flush_domain ()
  in
  let spawned = Array.init (workers - 1) (fun wi -> Domain.spawn (fun () -> worker wi)) in
  (* the calling domain is the last worker, so a 1-worker pool never
     spawns and [workers] domains never means [workers + 1] threads *)
  worker (workers - 1);
  Array.iter Domain.join spawned;
  (* every worker flushed before dying; a non-empty buffer here would be
     spans about to be lost with the domain *)
  Array.iter
    (fun d -> assert (Obs.domain_buffer_empty (Domain.get_id d :> int)))
    spawned;
  record (Array.init workers (fun i -> { tasks = tasks.(i); busy_ns = busy.(i) }));
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.map
      (function Some v -> v | None -> assert false (* all claimed or raised *))
      results

(* ---------- persistent service executor ---------------------------------- *)

(* [map]/[iter] spawn-and-join per call, which is right for batch suites
   and wrong for a server: a request must not pay a domain spawn, and a
   session's effect continuations plus its ambient telemetry tag live in
   domain-local state, so every step of one session must run on the same
   domain.  [Service] keeps a fixed set of worker domains alive, each
   with its own queue, and routes by [key mod workers] — same key, same
   domain, for the lifetime of the service. *)
module Service = struct
  let c_service_tasks = Obs.Counter.make "service_tasks"

  type worker = {
    w_mutex : Mutex.t;
    w_cond : Condition.t;
    w_queue : (unit -> unit) Queue.t;
    mutable w_stop : bool;
  }

  type t = { ws : worker array; doms : unit Domain.t array }

  let worker_loop (w : worker) =
    Domain.DLS.set inside_worker true;
    let rec loop () =
      let task =
        Mutex.protect w.w_mutex (fun () ->
            while Queue.is_empty w.w_queue && not w.w_stop do
              Condition.wait w.w_cond w.w_mutex
            done;
            if Queue.is_empty w.w_queue then None
            else Some (Queue.pop w.w_queue))
      in
      match task with
      | None -> ()
      | Some f ->
        (* a raising task must never kill the worker: [run] ferries the
           exception back to its caller; a bare [submit]'s is dropped *)
        (try f () with _ -> ());
        Obs.Counter.incr c_service_tasks;
        (* merge-per-task: the main domain reads merged spans (metrics
           endpoint, trace export) while workers stay alive, so waiting
           for domain death to flush would hide all service activity *)
        Obs.flush_domain ();
        loop ()
    in
    loop ();
    Domain.DLS.set inside_worker false;
    Obs.flush_domain ()

  let start ?workers () =
    let n = match workers with Some n -> max 1 n | None -> default_jobs () in
    let ws =
      Array.init n (fun _ ->
          {
            w_mutex = Mutex.create ();
            w_cond = Condition.create ();
            w_queue = Queue.create ();
            w_stop = false;
          })
    in
    let doms = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) ws in
    { ws; doms }

  let workers t = Array.length t.ws

  let submit t ~key f =
    let w = t.ws.((key land max_int) mod Array.length t.ws) in
    Mutex.protect w.w_mutex (fun () ->
        if w.w_stop then invalid_arg "Pool.Service.submit: stopped";
        Queue.push f w.w_queue;
        Condition.signal w.w_cond)

  let run t ~key f =
    let mu = Mutex.create () in
    let cv = Condition.create () in
    let cell = ref None in
    submit t ~key (fun () ->
        let r =
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.protect mu (fun () ->
            cell := Some r;
            Condition.signal cv));
    let r =
      Mutex.protect mu (fun () ->
          while !cell = None do
            Condition.wait cv mu
          done;
          Option.get !cell)
    in
    match r with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt

  let stop t =
    Array.iter
      (fun w ->
        Mutex.protect w.w_mutex (fun () ->
            w.w_stop <- true;
            Condition.signal w.w_cond))
      t.ws;
    Array.iter Domain.join t.doms;
    Array.iter
      (fun d -> assert (Obs.domain_buffer_empty (Domain.get_id d :> int)))
      t.doms
end

let map ?(chunk = 1) t f xs =
  if chunk < 1 then invalid_arg "Pool.map: chunk must be >= 1";
  let arr = Array.of_list xs in
  let workers = min t.size (Array.length arr) in
  let out =
    if workers <= 1 || Domain.DLS.get inside_worker then begin
      let t0 = Obs.now_ns () in
      let out = sequential_map f arr in
      let wall = Obs.now_ns () - t0 in
      (* a nested map runs inside an outer parallel call's task: only
         the outermost map records scheduling metrics *)
      if not (Domain.DLS.get inside_worker) then
        record_stats
          [| { tasks = Array.length arr; busy_ns = wall } |]
          ~wall_ns:wall;
      out
    end
    else begin
      let t0 = Obs.now_ns () in
      parallel_map ~workers ~chunk
        ~record:(fun stats -> record_stats stats ~wall_ns:(Obs.now_ns () - t0))
        f arr
    end
  in
  Array.to_list out

let iter ?chunk t f xs = ignore (map ?chunk t (fun x -> f x) xs)
