(** The run context: the cross-cutting settings of one engine run, and
    the run-control policy the production round loops share.

    Every engine [run] ({!Engine_sig}, {!Runner_broadcast},
    {!Runner_unicast}, {!Soa}, {!Reference}) takes one optional
    [?ctx] (default {!default}: no tracing, no profiling, no faults, no
    recorder, no stall window, no cancellation) in place of six
    threaded arguments.  Per-run inputs — the protocol, states,
    adversary, caps, [?init_prev] and [?target_progress] — stay
    arguments of [run].

    {2 The settings}

    - [obs] (default {!Obs.Sink.null}: zero overhead, nothing emitted)
      receives the {!Obs.Trace} event stream: an initial round-0
      [Progress], then per executed round [Round_start],
      [Graph_change], one [Send] per charged message ([dst = None] for
      a local broadcast, [Some dst] for a unicast), any [Fault]
      events, and [Progress]; finally [Run_end] and a sink flush.
      Summing [Send] events gives [Ledger.total]; summing
      [Graph_change.added] gives [Ledger.tc].
    - [faults] (default {!Faults.Plan.none}: the clean model, with the
      round loops bit-identical to a build without the fault layer)
      injects message loss / duplication / bounded delay and node
      crash-restart.  Faulty rounds run as: node fates advance (a
      restarting node re-enters with its {e initial} state); crashed
      nodes neither send nor broadcast; each sent message is charged
      to the ledger, then dropped, duplicated, or delayed by the plan
      (a local broadcast is charged once, but its per-edge deliveries
      fail independently); messages due this round are delivered
      except to nodes crashed at delivery time, whose inboxes are
      discarded.  Every fault is emitted as an {!Obs.Trace.Fault}
      event and tallied in the result's [fault_counts].  A delayed
      message is delivered even if its edge has since vanished.  If
      every node is crashed and the plan can never restart one, the
      run stops with [Aborted].
    - [prof] (default {!Obs.Span.null}: one hoisted boolean test per
      site) records hierarchical profiling spans: one [round] span per
      executed round with nested phase children — [faults] (when a
      plan is active), [intent] (broadcast), [adversary], [graph]
      (validation, recorder hook, change accounting), [send],
      [deliver], [receive], and [check] (when invariants are on) —
      each carrying wall-clock and allocation; see {!Obs.Span}.
    - [on_graph] (default: nothing) is the recorder hook: called
      exactly once per executed round with the validated round graph
      the adversary committed to, {e before} any message is sent, so a
      scenario recorder can capture the realized schedule of an
      {e adaptive} adversary and replay it later as an oblivious one.
    - [stall_after] (default: off) arms the livelock detector: if the
      global progress sum does not increase for [stall_after]
      consecutive executed rounds the run stops with
      {!Run_result.Stalled} instead of spinning to the round cap.  Pass
      a window covering a full schedule period and protocol phase
      cycle; leave it off against adaptive adversaries, which starve
      progress legitimately.
    - [cancel] (default: off) is the cooperative cancellation poll:
      consulted once per round boundary — including before round 1,
      so a pre-cancelled run executes zero rounds — and a [true]
      latches (the poll never fires again), ending the run with a
      {!Run_result.Cancelled} outcome carrying the progress achieved.
      Completion observed at the same boundary wins (cancelling a
      finished run is a no-op); the default costs one option test per
      round.

    {2 Run control}

    {!start} … {!finish} is the round-boundary policy of the three
    production loops, written once: {!Runner_broadcast}, the unicast
    loop {!Runner_unicast.run_sharded} (which {!Default} runs over one
    span and {!Soa} over its shards), and {!Soa}'s plane kernel.  {!Reference} deliberately
    keeps its own copy: it is the differential fuzzer's oracle, and a
    control bug shared with it would be invisible. *)

type t = private {
  obs : Obs.Sink.t;
  faults : Faults.Plan.t;
  prof : Obs.Span.t;
  on_graph : (round:int -> Dynet.Graph.t -> unit) option;
  stall_after : int option;
  cancel : (unit -> bool) option;
}

val default : t
(** Every setting at its default. *)

val make :
  ?obs:Obs.Sink.t ->
  ?faults:Faults.Plan.t ->
  ?prof:Obs.Span.t ->
  ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  unit ->
  t
(** A context; each omitted setting takes its default. *)

type run
(** The control state of one execution. *)

val start :
  t ->
  ledger:Ledger.t ->
  max_rounds:int ->
  target:int option ->
  progress:(unit -> int) ->
  stop:(unit -> bool) ->
  run
(** Begin a run.  [progress] measures the global progress sum and
    [stop] evaluates the stop predicate, each on the engine's current
    states; both are sampled here (notes the initial progress in
    [ledger], emits the round-0 [Progress] event, then checks [stop]
    for already-solved instances) and at every {!round_done}.
    [target] is the declared progress target reported by [Partial] /
    [Cancelled]. *)

val next : run -> bool
(** The round boundary.  Closes the round in progress (its open phase
    and round spans), then decides whether another round runs: not if
    the run completed, stalled or aborted, then the cancel latch is
    polled, then the round cap.  On [true] it opens round
    {!round}[ + 1]: emits [Round_start] and enters the round's span. *)

val round : run -> int
(** The current round (0 before the first {!next}). *)

val phase : run -> string -> unit
(** Switch the profiler to the named phase of the current round: leave
    the open phase span, if any, and enter [name]'s.  A no-op unless
    profiling.  The round's last phase span closes at {!round_done} (or
    at {!next} for an aborted round). *)

val commit_graph : run -> prev:Dynet.Graph.t -> Dynet.Graph.t -> unit
(** Commit the validated round graph: the [on_graph] hook, topological
    change accounting against [prev], the [Graph_change] event, and
    the ledger's round count. *)

val round_done : run -> unit
(** Close an executed round: leaves the open phase span, notes the
    measured progress, emits [Progress], advances the stall window,
    samples the timeline, and evaluates [stop]. *)

val abort : run -> string -> unit
(** Stop the run for good with an [Aborted] outcome. *)

val aborted : run -> bool

val finish : run -> fault_counts:Faults.Counts.t option -> Run_result.t
(** Emit [Run_end], flush the sink, and build the result.  Outcome
    precedence: [Aborted] > [Completed] > [Stalled] > [Cancelled] >
    [Partial]; the last two carry the last progress noted. *)
