(* The learner as a resumable state machine (see machine.mli).

   {!Engine.run} still calls an ordinary {!Teacher.t}, but the teacher
   it is handed here performs an [Ask] effect per question: an
   [Effect.Deep] handler around the engine captures the continuation at
   each question and hands it to the driver as a suspended machine
   value.  [step] feeds one answer by resuming the continuation.

   The captured continuation is one-shot, so by itself it cannot give
   machine values persistent semantics.  The transcript can: the engine
   is deterministic given (config, scenario store, answers), so a value
   whose continuation has been consumed — an old fork, or a snapshot
   decoded in a fresh process — is rebuilt by running a fresh engine
   and re-feeding its recorded answers, checking at every step that the
   engine asks the question the transcript recorded (by digest).  Any
   mismatch raises [Corrupt]: replay either reproduces the exact
   suspension point or fails loudly, never silently diverges.  The bytes
   of a snapshot are {!Machine_codec}'s.

   Effects never cross domains here: every teacher call happens on the
   domain driving the engine.  The pool is used only for pure
   sub-computations (schema compilation, the C-Learner scan, oracle
   batch chunks inside the driver's answer), which perform no effect. *)

open Xl_xml

type question =
  | Membership of {
      label : string;
      context : Teacher.context;
      rel_path : string list;
    }
  | Membership_batch of {
      label : string;
      context : Teacher.context;
      rel_paths : string list list;
    }
  | Equivalence of {
      label : string;
      context : Teacher.context;
      extent : Node.t list;
    }
  | Condition_box of {
      label : string;
      context : Teacher.context;
      negative_example : Node.t option;
    }
  | Order_box of { label : string }

type answer = Machine_codec.answer =
  | Bool of bool
  | Bools of bool list
  | Eq of Teacher.eq_answer
  | Cb of Teacher.cb_answer option
  | Order of (Xl_xquery.Simple_path.t * bool) list

type phase = Engine.phase =
  | Dropping
  | Learning of string
  | Verifying
  | Repairing of int
  | Finished

type outcome = [ `Ask of question | `Done of Learn_types.result ]

exception Corrupt = Machine_codec.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let c_steps = Xl_obs.Obs.Counter.make "machine_steps"
let c_replays = Xl_obs.Obs.Counter.make "machine_replays"

(* ---------------------------------------------------------------------- *)
(* The inversion: effect, handler, machine values                          *)
(* ---------------------------------------------------------------------- *)

type _ Effect.t += Ask : question -> answer Effect.t

let shape_error q =
  let kind =
    match q with
    | Membership _ -> "Membership expects Bool"
    | Membership_batch _ -> "Membership_batch expects Bools, one per path"
    | Equivalence _ -> "Equivalence expects Eq"
    | Condition_box _ -> "Condition_box expects Cb"
    | Order_box _ -> "Order_box expects Order"
  in
  invalid_arg ("Machine.step: answer shape mismatch — " ^ kind)

let check_shape (q : question) (a : answer) : unit =
  match q, a with
  | Membership _, Bool _ -> ()
  | Membership_batch { rel_paths; _ }, Bools bs ->
    if List.length bs <> List.length rel_paths then
      invalid_arg "Machine.step: Bools answer length differs from the batch"
  | Equivalence _, Eq _ -> ()
  | Condition_box _, Cb _ -> ()
  | Order_box _, Order _ -> ()
  | _ -> shape_error q

(* the teacher handed to the engine: every call is one performed effect,
   checked against the question shape on both sides of the suspension *)
let effect_teacher : Teacher.t =
  {
    Teacher.path_membership =
      (fun ~label ~context ~rel_path ->
        match Effect.perform (Ask (Membership { label; context; rel_path })) with
        | Bool b -> b
        | _ -> assert false (* step validates the shape before resuming *));
    path_membership_batch =
      (fun ~label ~context ~rel_paths ->
        match Effect.perform (Ask (Membership_batch { label; context; rel_paths })) with
        | Bools bs -> bs
        | _ -> assert false);
    equivalence =
      (fun ~label ~context ~extent ->
        match Effect.perform (Ask (Equivalence { label; context; extent })) with
        | Eq e -> e
        | _ -> assert false);
    condition_box =
      (fun ~label ~context ~negative_example ->
        match Effect.perform (Ask (Condition_box { label; context; negative_example })) with
        | Cb c -> c
        | _ -> assert false);
    order_box =
      (fun ~label ->
        match Effect.perform (Ask (Order_box { label })) with
        | Order o -> o
        | _ -> assert false);
  }

(* mutable cells shared between the engine (running under the handler)
   and the machine values outside it: where the engine currently is, and
   the oracle it derives its ground truth from.  Written only by the
   domain driving the engine. *)
type runtime = {
  mutable oracle : Teacher.t option;
  mutable cur_phase : phase;
  mutable pending : (answer, reply) Effect.Deep.continuation option;
  mutable live_gen : int;
      (* transcript length the pending continuation continues from; -1
         when no continuation is live *)
}

and reply =
  | I_ask of question * (answer, reply) Effect.Deep.continuation
  | I_done of Learn_types.result

let handle (f : unit -> Learn_types.result) : reply =
  Effect.Deep.match_with f ()
    {
      retc = (fun r -> I_done r);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Ask q ->
            Some (fun (k : (a, reply) Effect.Deep.continuation) -> I_ask (q, k))
          | _ -> None);
    }

type on_auto_cb = label:string -> rule:[ `R1 | `R2 ] -> path:string list -> answer:bool -> unit

type exchange = { question : question; answer : answer; seq : int; ts_ns : int }

type t = {
  t_scenario : Scenario.t;
  t_config : Learn_types.config;
  t_known : (string * (string list * bool)) list;
      (* Section 11 reuse: the genuine membership answers of the prior
         runs, (task label, (relative path, answer)), oldest first *)
  t_on_auto : on_auto_cb option;
  t_past : (int * exchange) list;  (* (question digest, exchange), newest first *)
  t_steps : int;
  t_phase : phase;
  t_outcome : outcome;
  t_rt : runtime;
}

let scenario m = m.t_scenario
let config m = m.t_config
let outcome m = m.t_outcome
let phase m = m.t_phase
let steps m = m.t_steps
let transcript m = List.rev_map snd m.t_past

let oracle_teacher m =
  match m.t_rt.oracle with
  | Some teacher -> teacher
  | None ->
    (* unreachable: the engine installs its oracle before the first
       question can be asked, and [start] runs at least that far *)
    invalid_arg "Machine.oracle_teacher: engine not initialized"

(* -------- stable question digests -------------------------------------- *)

(* Deterministic across processes (Hashtbl.hash is a pure function of
   the value); nodes contribute their document URI and Dewey code, the
   only process-stable identity they have.  31-bit so the digest
   serializes as a u32 on any platform. *)

let hmix h x = (((h * 131) + x) land 0x3FFFFFFF : int)
let hstr h s = hmix h (Hashtbl.hash (s : string))
let hpath h p = List.fold_left hstr (hmix h (List.length p)) p

let hnode store h (n : Node.t) =
  let uri, dewey = Machine_codec.node_ref store n in
  List.fold_left hmix (hstr h uri) dewey

let hctx store h (context : Teacher.context) =
  List.fold_left (fun h (v, n) -> hnode store (hstr h v) n) (hmix h (List.length context)) context

let hopt f h = function None -> hmix h 0 | Some x -> f (hmix h 1) x

let question_hash (store : Store.t) (q : question) : int =
  match q with
  | Membership { label; context; rel_path } ->
    let h = hstr (hmix 1 1) label in
    let h = hctx store h context in
    (* the trailing 0 keeps version-2 digests as they were: membership
       questions once carried an optional node, always absent *)
    hmix (hpath h rel_path) 0
  | Membership_batch { label; context; rel_paths } ->
    let h = hstr (hmix 1 2) label in
    let h = hctx store h context in
    List.fold_left hpath (hmix h (List.length rel_paths)) rel_paths
  | Equivalence { label; context; extent } ->
    let h = hstr (hmix 1 3) label in
    let h = hctx store h context in
    List.fold_left (hnode store) (hmix h (List.length extent)) extent
  | Condition_box { label; context; negative_example } ->
    let h = hstr (hmix 1 4) label in
    let h = hctx store h context in
    hopt (hnode store) h negative_example
  | Order_box { label } -> hstr (hmix 1 5) label

(* -------- launching and replaying the engine ---------------------------- *)

(* the exchange of one answer, stamped for the dialog view: a batched
   question reserves one sequence number per word, so its dialog lines
   interleave with spans like single questions do *)
let exchange ~ts_ns (q : question) (a : answer) : exchange =
  let lines =
    match q with Membership_batch { rel_paths; _ } -> List.length rel_paths | _ -> 1
  in
  { question = q; answer = a; seq = Xl_obs.Obs.next_seqs (max 1 lines); ts_ns }

(* re-feed recorded answers to a freshly launched engine, checking each
   question against its recorded digest; returns the engine's frontier
   and the transcript rebuilt with live question values *)
let replay ~(store : Store.t) (reply : reply) (pairs : Machine_codec.entry list) :
    reply * (int * exchange) list =
  let step_no = ref 0 in
  let rec feed reply past = function
    | [] -> (reply, past)
    | (qh, a) :: rest -> (
      incr step_no;
      match reply with
      | I_done _ ->
        corrupt "replay: transcript has %d answers past the end of the run"
          (List.length rest + 1)
      | I_ask (q, k) ->
        if question_hash store q <> qh then
          corrupt "replay diverged at step %d: the engine asked %s" !step_no
            (match q with
            | Membership _ -> "a membership query"
            | Membership_batch _ -> "a batched membership query"
            | Equivalence _ -> "an equivalence query"
            | Condition_box _ -> "a condition box"
            | Order_box _ -> "an order box");
        check_shape q a;
        let ex = exchange ~ts_ns:(Xl_obs.Obs.now_ns ()) q a in
        feed (Effect.Deep.continue k a) ((qh, ex) :: past) rest)
  in
  try feed reply [] pairs
  with Learn_types.Learning_failed msg ->
    corrupt "replay: learning failed mid-transcript (%s)" msg

let make_t ~scenario ~config ~known ~on_auto ~(rt : runtime) ~past ~steps
    (reply : reply) : t =
  let phase, outcome =
    match reply with
    | I_done r ->
      rt.pending <- None;
      rt.live_gen <- -1;
      rt.cur_phase <- Finished;
      (Finished, `Done r)
    | I_ask (q, k) ->
      rt.pending <- Some k;
      rt.live_gen <- steps;
      (rt.cur_phase, `Ask q)
  in
  {
    t_scenario = scenario;
    t_config = config;
    t_known = known;
    t_on_auto = on_auto;
    t_past = past;
    t_steps = steps;
    t_phase = phase;
    t_outcome = outcome;
    t_rt = rt;
  }

(* a fresh engine, run to its first question and fed [pairs]: [start]
   with none, [restore] with a snapshot's, a stale fork with its own *)
let launch ~config ~known ~on_auto (scenario : Scenario.t) pairs : t =
  let rt = { oracle = None; cur_phase = Dropping; pending = None; live_gen = -1 } in
  let reply =
    handle (fun () ->
        Engine.run ~config ~teacher:effect_teacher ~known ~on_auto
          ~on_phase:(fun p -> rt.cur_phase <- p)
          ~on_oracle:(fun o -> rt.oracle <- Some o)
          scenario)
  in
  let reply, past = replay ~store:scenario.Scenario.store reply pairs in
  make_t ~scenario ~config ~known ~on_auto ~rt ~past ~steps:(List.length pairs) reply

(* Section 11 reuse: every genuine membership answer [prior]'s lineage
   was given, in ask order — a view over the transcripts, so replaying a
   machine that reuses them is as deterministic as any other replay *)
let known_of ~(scenario : Scenario.t) = function
  | None -> []
  | Some prior ->
    if not (String.equal prior.t_scenario.Scenario.name scenario.Scenario.name) then
      invalid_arg "Machine: the prior run is of another scenario";
    prior.t_known
    @ List.concat_map
        (fun ex ->
          match ex.question, ex.answer with
          | Membership { label; rel_path; _ }, Bool b -> [ (label, (rel_path, b)) ]
          | Membership_batch { label; rel_paths; _ }, Bools bs ->
            List.map2 (fun p b -> (label, (p, b))) rel_paths bs
          | _ -> [])
        (transcript prior)

let start ?(config = Learn_types.default_config) ?prior ?on_auto scenario =
  launch ~config ~known:(known_of ~scenario prior) ~on_auto scenario []

let entries m = List.rev_map (fun (qh, ex) -> (qh, ex.answer)) m.t_past

let label_of = function
  | Membership { label; _ }
  | Membership_batch { label; _ }
  | Equivalence { label; _ }
  | Condition_box { label; _ }
  | Order_box { label } -> label

let step (m : t) (a : answer) : outcome * t =
  match m.t_outcome with
  | `Done _ -> invalid_arg "Machine.step: the learner has already finished"
  | `Ask q ->
    check_shape q a;
    let t0 = Xl_obs.Obs.now_ns () in
    Xl_obs.Obs.Counter.incr c_steps;
    let store = m.t_scenario.Scenario.store in
    let qh = question_hash store q in
    let rt =
      if m.t_rt.live_gen = m.t_steps then
        (* the hot path: this value holds the live continuation *)
        m.t_rt
      else begin
        (* consumed by another step of this lineage: rebuild by replay *)
        Xl_obs.Obs.Counter.incr c_replays;
        let m' =
          launch ~config:m.t_config ~known:m.t_known ~on_auto:m.t_on_auto
            m.t_scenario (entries m)
        in
        (match m'.t_outcome with
        | `Done _ -> corrupt "replay: the engine finished before the suspension point"
        | `Ask q' ->
          if question_hash store q' <> qh then
            corrupt "replay diverged at the suspension point (step %d)" m.t_steps);
        m'.t_rt
      end
    in
    let k = Option.get rt.pending in
    rt.pending <- None;
    rt.live_gen <- -1;
    let ex = exchange ~ts_ns:t0 q a in
    let reply = Effect.Deep.continue k a in
    let m' =
      make_t ~scenario:m.t_scenario ~config:m.t_config ~known:m.t_known
        ~on_auto:m.t_on_auto ~rt ~past:((qh, ex) :: m.t_past)
        ~steps:(m.t_steps + 1) reply
    in
    Xl_obs.Obs.record_completed ~name:"machine.step" ~detail:(label_of q)
      ~t0_ns:t0 ();
    (m'.t_outcome, m')

exception Aborted

let abort (m : t) : unit =
  match m.t_rt.pending with
  | Some k when m.t_rt.live_gen = m.t_steps ->
    m.t_rt.pending <- None;
    m.t_rt.live_gen <- -1;
    (* unwind the engine stack so every span opened inside it records *)
    (try ignore (Effect.Deep.discontinue k Aborted : reply) with Aborted -> ())
  | _ -> ()

(* -------- driving -------------------------------------------------------- *)

let answer_with (teacher : Teacher.t) (q : question) : answer =
  match q with
  | Membership { label; context; rel_path } ->
    Bool (teacher.Teacher.path_membership ~label ~context ~rel_path)
  | Membership_batch { label; context; rel_paths } ->
    Bools (teacher.Teacher.path_membership_batch ~label ~context ~rel_paths)
  | Equivalence { label; context; extent } ->
    Eq (teacher.Teacher.equivalence ~label ~context ~extent)
  | Condition_box { label; context; negative_example } ->
    Cb (teacher.Teacher.condition_box ~label ~context ~negative_example)
  | Order_box { label } -> Order (teacher.Teacher.order_box ~label)

let drive ~teacher (m : t) : Learn_types.result * t =
  let rec go m =
    match m.t_outcome with
    | `Done r -> (r, m)
    | `Ask q ->
      let _, m' = step m (answer_with teacher q) in
      go m'
  in
  go m

(* -------- snapshots ------------------------------------------------------ *)

let snapshot (m : t) : string =
  Xl_obs.Obs.span ~name:"machine.snapshot" (fun () ->
      Machine_codec.encode m.t_config m.t_scenario m.t_phase (entries m))

let restore ?pool ?prior ?on_auto ~(scenario : Scenario.t) (data : string) : t =
  let known = known_of ~scenario prior in
  Xl_obs.Obs.span ~name:"machine.restore" ~detail:scenario.Scenario.name
    (fun () ->
      let config, stored, pairs = Machine_codec.decode ?pool ~scenario data in
      let m = launch ~config ~known ~on_auto scenario pairs in
      if m.t_phase <> stored then
        corrupt "replay reached phase %s, snapshot recorded %s"
          (Machine_codec.phase_name m.t_phase) (Machine_codec.phase_name stored);
      m)
