(** Fixed-size domain pool for embarrassingly parallel suites.

    The Figure-16 experiments are independent learn-and-verify runs, one
    per scenario; {!map} schedules them across OCaml 5 domains.  Work is
    distributed by chunked work-stealing over a single atomic cursor:
    each worker repeatedly claims the next [chunk] indices, so uneven
    scenario costs (Q7 dominates the XMark suite) balance automatically.

    Results are collected positionally — [map pool f xs] returns exactly
    [List.map f xs], in input order, whatever the execution interleaving.
    Domains are spawned per call and joined before the call returns, so a
    raising task can never leak a running domain.

    Domain-confinement contract for tasks: a task may freely use mutable
    state it creates (evaluation contexts, alphabets, oracles, data
    graphs), but shared inputs must be read-only for the duration of the
    call.  Stores qualify as built: {!Xl_xml.Store.t} is complete and
    immutable when its constructor returns. *)

type t

val default_jobs : unit -> int
(** Worker count used by {!create} when [~domains] is not given: the
    [XLEARNER_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count () - 1], with a floor of 1
    (so a sequential fallback always exists) and a cap of 64. *)

val create : ?domains:int -> unit -> t
(** A pool of [domains] workers ([default_jobs ()] when omitted, floor
    1).  Creation is cheap; domains are only spawned inside {!map} /
    {!iter} calls that have more than one item and more than one
    worker. *)

val domains : t -> int
(** The pool's worker count. *)


val map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs] computed on the pool's domains.
    [chunk] (default 1) is the number of consecutive indices a worker
    claims per steal — raise it for many tiny tasks.

    If any task raises, the first exception (by completion order) is
    re-raised with its backtrace after all domains have been joined;
    remaining unclaimed work is abandoned.

    Calls from inside a pool task (nested [map]) run sequentially in the
    calling domain instead of spawning domains, so accidental nesting
    degrades to [List.map] rather than oversubscribing or deadlocking. *)

val iter : ?chunk:int -> t -> ('a -> unit) -> 'a list -> unit
(** [iter pool f xs] is [map pool f xs] with the results dropped. *)

(** Persistent keyed executor for long-lived services.

    {!map} spawns and joins domains per call — right for batch suites,
    wrong for a server, where a request must not pay a domain spawn and
    where a session's state is domain-confined: the resumable learner's
    effect continuations and the ambient telemetry session tag
    ([Obs.set_session]) live in domain-local state, so every step of one
    session must execute on the domain that started it.  [Service] keeps
    a fixed set of worker domains alive, each draining its own queue,
    and routes work by [key mod workers]: submissions with the same key
    always land on the same domain, in submission order.  The session
    server keys by the hash of the session id. *)
module Service : sig
  type t

  val start : ?workers:int -> unit -> t
  (** Spawn [workers] persistent worker domains ([default_jobs ()] when
      omitted, floor 1).  Workers mark themselves with the pool's
      inside-worker flag, so a nested {!map} from a service task runs
      sequentially instead of oversubscribing. *)

  val workers : t -> int

  val submit : t -> key:int -> (unit -> unit) -> unit
  (** Enqueue fire-and-forget work on the key's worker.  A raising task
      is caught and dropped — it never kills the worker.  Raises
      [Invalid_argument] after {!stop}. *)

  val run : t -> key:int -> (unit -> 'a) -> 'a
  (** Execute [f] on the key's worker and block the calling thread until
      it finishes; [f]'s exception (with backtrace) re-raises here.
      Callers are sys-threads (the server's connection threads), so
      blocking parks the thread without occupying a domain.
      [run ~key:i] for [0 <= i < workers t] reaches worker [i]. *)

  val stop : t -> unit
  (** Drain: workers finish queued tasks, then join.  Every worker
      flushes its telemetry buffer per task and at exit, so no spans are
      lost with the domains. *)
end
