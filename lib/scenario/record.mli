(** Recording schedules — committed or realized — into traces.

    Two entry points:

    - {!of_schedule} snapshots a prefix of any pre-committed
      {!Adversary.Schedule.t} (every built-in {!Adversary.Oblivious}
      family, plus [stabilized]/[overlay] compositions) into a
      {!Trace_io.t}, making the workload reproducible bit-for-bit
      across machines and CI;
    - a {!t} recorder accumulates round graphs one at a time as a run
      executes.  Feed it through the run context's [on_graph] hook (see
      {!Engine.Ctx}) to capture the {e realized} schedule of an
      adaptive adversary — the sequence it actually played against this
      execution, which is then replayable as an oblivious workload.

    Deltas are computed incrementally against the previously observed
    graph, so a recorder never retains more than one graph. *)

type t

val create : n:int -> ?seed:int -> ?provenance:string -> unit -> t
(** A fresh recorder for an [n]-node run ([provenance] defaults to
    ["recorded"]). *)

val observe : t -> round:int -> Dynet.Graph.t -> unit
(** Record round [round]'s graph.  Rounds must arrive in order
    [1, 2, ...] with no gaps.  Shaped for the [on_graph] setting of
    {!Engine.Ctx} and the runners: [~on_graph:(Record.observe recorder)].
    @raise Invalid_argument on out-of-order rounds or a node-count
    mismatch. *)

val recorded_rounds : t -> int

val to_trace : t -> Trace_io.t
(** The trace of everything observed so far (the recorder stays
    usable; later observations extend later snapshots). *)

val of_schedule :
  ?seed:int -> ?provenance:string -> rounds:int ->
  Adversary.Schedule.t -> Trace_io.t
(** The first [rounds] rounds of a committed schedule as a trace.
    @raise Invalid_argument if [rounds < 1]. *)
