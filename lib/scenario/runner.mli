(** Executing a validated {!Spec} — the scenario subsystem's engine room.

    [run] turns one spec into one {!Obs.Report.t} per repeat:

    - the environment is materialized once ([trace] envs load their
      {!Trace_io.t} up front, relative paths resolving against
      [base_dir]);
    - repeat [i] derives every random stream from [spec.seed + i]
      alone and builds its own fresh {!Adversary.Schedule.t}, so the
      repeats are independent points and run through
      {!Analysis.Sweep.map} ([?jobs]) with bit-identical output
      whatever the parallelism;
    - each repeat is one {!execute} — instance construction,
      fault-plan wiring, and per-algorithm round caps live there
      alone.  [dynspread run] is a one-repeat spec through [execute],
      so a scenario file is a faithful replacement for a CLI
      invocation;
    - each report is named [<name>/<algorithm>/seed=<seed+i>] — the
      label depends only on the spec's name, algorithm, and seed,
      never on how the environment is represented, so a run against a
      built-in oblivious family and a run against its {!Record}ed
      trace produce byte-identical JSON.

    Trace environments replay with {!Replay.Loop} semantics: real
    contact data is finite and bursty, and looping it is the standard
    periodic-workload reading.  A recording that covers the full run
    never reaches the loop, which is what the record→replay
    reproducibility guarantee relies on.

    Because a looped trace is periodic, trace runs also arm the
    engines' livelock detector with {!stall_window}: a deterministic
    protocol limit-cycling against the period (the E17 [s >= 6]
    min-source corner) ends with a [Stalled] outcome after the window
    instead of spinning to its round cap. *)

val stall_window : period:int -> n:int -> k:int -> int
(** [max 64 (max (2 * period) (2 * n * k))] — the [stall_after]
    window used for looped-trace runs: at least two full schedule
    periods and two full flooding phase cycles, so no live protocol
    can trip it, while staying far below the unicast round cap. *)

val instance_of :
  Spec.algorithm -> n:int -> k:int -> s:int -> seed:int -> Gossip.Instance.t
(** The token placement of every run the tool makes ([dynspread run],
    scenario repeats, fuzz cases): source 0 for [Single_source] and for
    [s <= 1], otherwise [min s (min n k)] sources assigned at random
    from [seed + 1]. *)

val fault_plan : Spec.faults option -> seed:int -> Faults.Plan.t
(** The fault plan of a spec's [faults] ({!Faults.Plan.none} for
    [None]); the fault seed defaults to [seed]. *)

val builtin_schedule :
  env:Spec.env -> sigma:int -> n:int -> seed:int ->
  Adversary.Schedule.t option
(** The committed schedule for a built-in oblivious env, with the same
    family parameters and defaults as the CLI ([extra] defaults to
    [n], [p_up] to [2/n]; [sigma > 1] wraps the family in
    {!Adversary.Schedule.stabilized}).  [None] for the two
    non-committed envs ([trace] — use {!Replay.schedule} — and the
    adaptive [request-cutter] and [lower-bound]). *)

type outcome =
  | Engine_run of {
      result : Engine.Run_result.t;
      retransmits : int option;  (** Set by a [~reliable] run. *)
      lower_bound : Adversary.Broadcast_lb.t option;
          (** The adversary of a [lower-bound] run, with its history. *)
    }
  | Rw_run of Gossip.Oblivious_rw.result  (** Algorithm 2. *)
(** One run's raw result, before any report is built. *)

val execute :
  ?reliable:bool ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?obs:Obs.Sink.t ->
  ?cancel:(unit -> bool) ->
  ?prof:Obs.Span.t ->
  trace:Trace_io.t option ->
  n:int ->
  seed:int ->
  Spec.t ->
  outcome
(** Run a {!Spec.validate}d spec once at [seed] on [n] nodes: the
    [trace] looped (with the {!stall_window} armed), else
    {!builtin_schedule}, else the env's adaptive adversary, against
    the algorithm's {!Gossip.Runners} entry; Algorithm 2 takes
    [~const_f:0.05 ~force_rw:true].  [~reliable] (default [false])
    wraps the unicast algorithms in the ack/retransmit wrapper, which
    takes no [cancel] and arms no stall window.
    @raise Invalid_argument for [~reliable] on a broadcast algorithm
    or an adaptive env that {!Spec.validate} refuses. *)

type prepared = {
  spec : Spec.t;
  trace : Trace_io.t option;
  n : int;  (** Resolved node count (from the spec or its trace). *)
  seeds : int array;  (** [spec.seed + i] for repeat [i], in order. *)
}
(** A spec with its environment materialized — the resumable,
    cancellable unit the serve scheduler works in.  Preparing is the
    only fallible step; every repeat after that is a pure function of
    [(prepared, seed)]. *)

val prepare : ?base_dir:string -> Spec.t -> (prepared, string) result
(** Materialize the environment: load and check the trace (if the env
    is one; relative paths resolve against [base_dir], default ["."]),
    resolve [n], and lay out the per-repeat seeds.  [Error] covers
    exactly the materialization failures [run] reports. *)

val engine_of_name :
  string -> shards:int -> ((module Engine.Engine_sig.ENGINE), string) result
(** The engine a front door names: ["soa"] at [shards] domains,
    ["fastpath"] (a name for {!Engine.Soa.default_engine}) or
    ["reference"].  [Error] names the fault: [shards < 1], [shards > 1]
    on an engine other than soa, or an unknown name.  The CLI's
    [--engine]/[--shards] and the daemon's submit fields both resolve
    here. *)

val run_repeat :
  ?prof:Obs.Span.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?obs:Obs.Sink.t ->
  ?cancel:(unit -> bool) ->
  prepared ->
  seed:int ->
  Obs.Report.t
(** One repeat of a prepared spec: {!execute}, then the report
    named [<name>/<algorithm>/seed=<seed>] with the instance shape and
    seed as extra fields.  The report depends only on
    [(prepared, seed)], never on which domain ran it or what ran
    before, which is what makes the daemon's reports byte-identical to
    [dynspread scenario run]'s.  [?obs] (default {!Obs.Sink.null})
    receives the repeat's trace events (the serve daemon's [subscribe]
    stream).  [?cancel] is the engines' round-boundary
    cooperative-cancellation poll: a repeat cancelled before its first
    round reports [Cancelled] with zero rounds. *)

val run_prepared :
  ?jobs:int ->
  ?prof:Obs.Span.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  prepared ->
  Obs.Report.t array
(** Every repeat of a prepared spec through one
    {!Analysis.Sweep.map_span} sweep named [scenario/<name>], in
    repeat order — the second half of [run].  It takes no cancel poll:
    the serve daemon cancels repeat by repeat through {!run_repeat}. *)

val run :
  ?jobs:int ->
  ?base_dir:string ->
  ?prof:Obs.Span.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  Spec.t ->
  (Obs.Report.t array, string) result
(** [prepare] then [run_prepared]: execute every repeat and return the
    run reports in repeat order.
    [?engine] (default {!Engine.Soa.default_engine}) selects the
    execution engine; reports are engine-independent, so
    passing a sharded {!Engine.Soa.engine} or {!Engine.Reference.engine}
    changes only the wall-clock.
    [?prof] (default {!Obs.Span.null}) profiles the whole run as one
    {!Analysis.Sweep.map_span} sweep named [scenario/<name>]: each
    repeat is a [point] span, and the engine round/phase spans of the
    repeat nest beneath it in the lane of the domain that executed it.
    [Error] covers environment problems surfaced at materialization
    time (unreadable or invalid trace, node-count mismatch); protocol
    or adversary violations during a run propagate as the engines'
    usual exceptions. *)
