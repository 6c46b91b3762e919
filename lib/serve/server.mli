(** The serve daemon: listeners, sessions, and the select event loop.

    A server is one {!Scheduler} (a persistent Domain pool with a
    bounded, client-fair admission queue) fronted by a single-threaded
    [Unix.select] loop speaking {!Rpc} over NDJSON.  It listens on a
    unix-domain socket and/or a TCP endpoint for rpc sessions, and
    optionally on a second TCP endpoint answering HTTP/1.0
    [GET /metrics] with the Prometheus exposition of the scheduler's
    live stats (namespace [dynspread_serve]: queue depth, running
    jobs, per-domain busy seconds, submitted/completed/cancelled/
    failed/rejected counters).

    Shutdown has two shapes.  An rpc [shutdown] frame starts a
    {e drain}: new submissions are rejected, the backlog runs out,
    streams complete, and [run] returns [`Completed].  A signal
    (the handler bumps [config.stop]) starts a {e cancel}: every
    queued and running job's cancel flag is set, the engines stop at
    the next round boundary, terminal [done] frames are flushed, and
    [run] returns [`Signalled].  Either way the unix socket path is
    unlinked and every descriptor closed before returning. *)

exception Startup_error of string
(** Raised by {!run} before the loop starts — bind failures, an
    already-listening daemon on the socket path, unresolvable hosts.
    The message is a one-line diagnostic fit for exit code 2. *)

type config = {
  socket : string option;  (** unix-domain rpc listener path *)
  listen : (string * int) option;  (** tcp rpc listener *)
  metrics : (string * int) option;  (** http/1.0 [GET /metrics] *)
  workers : int;  (** scheduler pool size *)
  queue_cap : int;  (** bounded admission queue *)
  stop : int Atomic.t;  (** signal handlers bump this to request cancel *)
}

val run : config -> [ `Completed | `Signalled ]
(** Bind the listeners and serve until shutdown.  At least one of
    [socket]/[listen] must be set.  Blocks the calling thread; worker
    domains are spawned and joined internally.  [`Completed] after an
    rpc-driven drain, [`Signalled] after a [stop]-driven cancel —
    callers map these to exit codes 0 and 130. *)

(**/**)

(* Exposed for the test suite: a stale unix socket path is reclaimed,
   a live one refused. *)
val bind_unix : string -> Unix.file_descr
