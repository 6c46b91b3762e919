(** The serve daemon's job scheduler: bounded admission, fair
    round-robin across clients, a persistent Domain pool.

    Admitted jobs wait in per-client FIFO queues; workers take the
    next job from the next client in rotation, so one chatty client
    cannot starve the rest however deep its backlog.  Total queued
    work is capped at [queue_cap] — admission beyond it is {!Refused},
    the protocol's explicit backpressure.

    A job's repeats run sequentially on one worker via
    {!Scenario.Runner.run_repeat}, whose output depends only on the
    prepared spec and the seed — report bytes are independent of pool
    size, queue order, and worker identity, and therefore
    byte-identical to [dynspread scenario run] on the same spec.

    The [notify] callback fires on {e worker domains} (job started,
    trace event, report line, job finished) and must be thread-safe;
    everything else is guarded internally. *)

type outcome = Completed | Cancelled | Failed of string

val outcome_name : outcome -> string
(** ["completed"] | ["cancelled"] | ["failed"] — the wire tags. *)

type notification =
  | Started of { job : int }
  | Event of { job : int; line : string }
      (** A dynspread-trace/v1 event of a job submitted with
          [events = true], pre-serialized. *)
  | Report of { job : int; index : int; line : string }
      (** Repeat [index]'s report line, pre-serialized with
          [Obs.Json.to_string] — forward verbatim. *)
  | Finished of { job : int; outcome : outcome; reports : int }

type t

type stats = {
  workers : int;
  queue_depth : int;
  running_jobs : int;
  submitted : int;
  completed : int;
  cancelled : int;
  failed : int;
  rejected : int;
  busy_seconds : float array;  (** Per-worker, accumulated. *)
}

type admission =
  | Admitted of { job : int; queue_depth : int }
  | Refused of { reason : string; queue_depth : int }
      (** Backpressure: queue at cap, or the scheduler is stopping. *)

val create :
  ?workers:int -> ?queue_cap:int -> notify:(notification -> unit) -> unit -> t
(** Spawn the pool ([workers] domains, default 2; [queue_cap] default
    128).  Workers park on a condition variable between jobs.
    @raise Invalid_argument when either is [< 1]. *)

val submit :
  t ->
  client:int ->
  name:string ->
  prepared:Scenario.Runner.prepared ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  events:bool ->
  unit ->
  admission
(** Admit a prepared spec for [client] (an opaque fairness key — the
    server uses the session id).  O(1); never blocks on workers. *)

val cancel : t -> int -> string option
(** Request cancellation: [Some was] is the state the job was found
    in ([None]: unknown job).  A queued job finishes [Cancelled] with
    zero reports when a worker reaches it; a running job stops at the
    next round boundary with [Cancelled] partial reports; a finished
    job is left untouched (cancel-after-completion is a no-op). *)

val job_state : t -> int -> (string * int) option
(** [(state name, reports streamed)] for one job id. *)

val job_views : t -> ?job:int -> unit -> Rpc.job_view list * int * int
(** Status snapshot: the views (one job, or all jobs sorted by id),
    the queue depth, and the running count. *)

val stats : t -> stats
(** Counter snapshot for the /metrics endpoint. *)

val idle : t -> bool
(** No job queued or running right now. *)

val shutdown : ?mode:[ `Drain | `Cancel ] -> t -> unit
(** Stop admission and join the pool.  [`Drain] (default, the rpc
    [shutdown] path) runs the backlog out first; [`Cancel] (the
    signal path) also flags every queued and running job cancelled so
    the pool winds down at the next round boundaries.  Idempotent
    admission-wise; must be called exactly once to join the pool. *)
