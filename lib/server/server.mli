(** Learning-as-a-service: concurrent interactive sessions over a Unix
    socket.

    The paper's workflow is one user answering one question at a time
    while the learner holds state; this server hosts many of those
    dialogues at once.  Protocol: HTTP/1.1 + JSON ({!Http},
    {!Xl_json.Json}).  Endpoints:

    - [GET /health], [GET /metrics], [GET /scenarios]
    - [POST /sessions] — create from a catalog scenario
      [{"scenario":"xmark/Q1"}] or an uploaded corpus
      [{"document":{"uri":u,"xml":x},"dtd":{"root":r,"text":t},
        "target":"xmark/Q1"}]
    - [GET /sessions/ID] / [GET /sessions/ID/question] — status /
      pending question
    - [POST /sessions/ID/answer] — one of the five machine answer
      shapes ([{"bool":b}], [{"bools":[…]}], [{"eq":…}], [{"cb":…}],
      [{"order":[…]}]) or [{"auto":n}] to let the server's simulated
      oracle answer the next [n] questions
    - [GET /sessions/ID/query] — the hypothesis: the learned query once
      finished, the pending equivalence extent while learning
    - [POST /sessions/ID/suspend] / [POST /sessions/resume] — persist a
      [Machine.snapshot] under ["XLSESSON"] framing in the spool
      directory and bring it back, across server restarts
    - [DELETE /sessions/ID], [POST /shutdown]

    Concurrency: the accept loop hands each connection to a sys-thread;
    a session belongs to the [Xl_exec.Pool.Service] worker its id's
    hash keys to, which keeps it in a domain-local table, so its effect
    continuations and telemetry tag stay on one domain while different
    sessions run in parallel.  Every request that reads or changes a
    session runs as one task on that worker — lookup, finished-guard,
    step and response fields together — so racing answers cannot
    double-step, status reads are consistent, and a suspend (snapshot,
    spool write, removal) cannot drop an answer it has acknowledged.
    [GET /health] counts live sessions from one atomic and never waits
    on a worker.  Catalog stores are built once and shared read-only
    by every session of the same corpus, and uploaded documents are
    deduplicated by content digest.
    Malformed requests (HTTP framing or JSON bodies) answer 400 with
    [{"error":…,"offset":…}] and never kill the accept loop or a
    worker; a learning failure on the session's data (no consistent
    drag-and-drop example, say) answers 422 with [{"error":…}];
    requests racing shutdown answer 503. *)

type t

val create : ?workers:int -> ?spool:string -> socket:string -> unit -> t
(** Build the scenario catalog (XMark, XMP and SGML Figure-16 suites),
    start the worker service, bind and listen on
    [socket] (an existing socket file is replaced).  [spool] is the
    suspend/resume directory, default [socket ^ ".spool"].  [workers]
    defaults to [Pool.default_jobs ()]. *)

val serve : t -> unit
(** Run the accept loop in the calling thread until {!shutdown} (or
    [POST /shutdown]).  In-process embedders run it in a [Thread]. *)

val shutdown : t -> unit
(** Stop accepting, wake the loop, drain the worker service.  Live
    sessions are dropped (suspend first to keep them). *)

val socket_path : t -> string

val cond_json : Xl_xqtree.Cond.t -> Xl_json.Json.t
val cond_of_json : Xl_json.Json.t -> (Xl_xqtree.Cond.t, string) result
(** The structural wire codec condition-box predicates travel in
    ([{"cb":{"cond":…}}]): one tag key per [Cond.t] constructor
    ([join]/[value]/[func_cmp]/[expr]/[neg]/[relay]), paths and
    comparison operators textual, free-form predicates as XQuery text.
    Exported so clients build answers with the same encoding the server
    decodes.  Untrusted bytes never reach [Marshal]. *)
