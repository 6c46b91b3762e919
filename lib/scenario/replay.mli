(** Loading a trace back into a committed schedule.

    The inverse of {!Record}: a {!Trace_io.t} becomes an
    {!Adversary.Schedule.t} whose round-[r] graph is reconstructed by
    applying the recorded edge deltas.  The result is a pre-committed
    sequence (the strictest adversary class of Definition 1.2), so it
    plugs into every engine and runner exactly like the built-in
    oblivious families — and a recorded run replays bit-for-bit:
    identical graphs, identical [TC], identical run report.

    Graphs are built lazily in round order and only the current one is
    kept (the trace's deltas are the only data resident throughout), so
    replaying pays only for the rounds actually executed and its memory
    does not grow with them. *)

type past_end =
  | Hold  (** Rounds past the trace repeat its last graph. *)
  | Loop
      (** The graph sequence repeats from round 1 ([g(R + i) = g(i)]):
          the natural reading of periodic contact data.  The wrap-around
          is an ordinary topology change, charged to [TC] as usual.
          Each wrap re-steps the recorded deltas from the empty graph;
          no copy of the cycle is kept. *)
  | Fail
      (** Asking past the trace raises
          {!Engine.Engine_error.Schedule_exhausted} (carrying the
          requested round and the recorded length) — for callers that
          require exact reproduction and want extrapolation to be an
          error, not a guess.  The CLI maps it to exit 2. *)

val schedule : ?past_end:past_end -> Trace_io.t -> Adversary.Schedule.t
(** [past_end] (default {!Hold}) picks the semantics for rounds beyond
    the recorded length — every engine needs {e some} graph each round,
    and a trace is finite.  For exact reproduction of a recorded run,
    record at least as many rounds as the run executed; the [Hold] and
    [Loop] tails are honest extrapolations, not recordings.
    @raise Invalid_argument if the trace has zero rounds. *)
