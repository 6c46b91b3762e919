(** Failures raised by the simulation engines.

    Both exceptions indicate a bug in the component named, never in the
    engine itself; the test-suite asserts they are raised on
    deliberately ill-behaved protocols/adversaries. *)

exception Protocol_violation of string
(** A protocol broke the communication model: sent to a non-neighbor,
    or sent more than one token over a directed edge in one round
    (Section 1.3's bandwidth constraint). *)

exception Adversary_violation of string
(** An adversary produced an invalid round graph: wrong node count or a
    disconnected graph (the model requires every [G_r], r ≥ 1, to be
    connected). *)

exception Schedule_exhausted of { round : int; available : int }
(** A finite committed schedule was asked for a round beyond its
    recorded length and its past-end policy forbids extrapolation
    ({!Scenario.Replay} with [past_end = Fail]): the run needs round
    [round] but only [available] rounds exist.  Unlike the two
    violations above this is an {e invocation} problem — the workload
    is too short for the requested run — so the CLI maps it to its
    usage exit code (2), not the model-violation code (3). *)

val describe : exn -> string
(** The one-line text of a failed run: [protocol violation: ...],
    [adversary violation: ...], [invariant check failed: ...] (for
    {!Check.Check_failed}) or [trace exhausted: ...]; any other
    exception falls back to [Printexc.to_string].  The CLI prefixes it
    with [dynspread: ]; a daemon job's [Failed] outcome carries it
    as is. *)

val check_graph : round:int -> n:int -> Dynet.Graph.t -> unit
(** Validates a round graph, raising {!Adversary_violation}. *)
