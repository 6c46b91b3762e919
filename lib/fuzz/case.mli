(** One differential-fuzz test case: the full input of a run, engine
    left out.

    A case is everything both engines are fed identically — algorithm,
    instance shape [(n, k, s)], seed, optional round cap and fault
    plan, and the concrete per-round graph sequence (round 1 first,
    replayed with {!Scenario.Replay.Loop} past the end).  Instance
    construction, fault-plan wiring and the stall window are
    {!Scenario.Runner}'s own, so a saved counterexample reproduces
    through [dynspread scenario run] exactly as it did inside the
    fuzzer. *)

type algo = Flooding | Single_source | Multi_source

type t = {
  id : int;  (** Position in the campaign; names corpus files. *)
  algo : algo;
  n : int;
  k : int;
  s : int;  (** Source count; meaningful for [Multi_source] only. *)
  seed : int;  (** Seeds the instance assignment and the fault RNG. *)
  max_rounds : int option;  (** [None]: the runners' default caps. *)
  faults : Scenario.Spec.faults option;
  rounds : Dynet.Graph.t list;  (** Round graphs, round 1 first. *)
}

val algo_name : algo -> string
(** The {!Scenario.Spec} algorithm name ("flooding", …). *)

val period : t -> int
(** Number of round graphs (the looped schedule's period). *)

val without_edge : Dynet.Graph.t -> int -> Dynet.Graph.t
(** The graph minus its [i]-th edge in key order (the churn and
    edge-shrinking step). *)

val label : t -> string
(** Report name for both engines' runs — engine-independent by
    construction, so matching runs produce byte-identical reports. *)

val to_trace : t -> Scenario.Trace_io.t
(** The case's schedule as a [dynspread-trace/v1] document
    (provenance ["fuzz"], the case seed as trace seed). *)

val instance : t -> Gossip.Instance.t
(** {!Scenario.Runner.instance_of} on the case's algorithm, shape and
    seed. *)

val fault_plan : t -> Faults.Plan.t
(** {!Scenario.Runner.fault_plan} of the case's faults and seed. *)

val stall_after : t -> int
(** {!Scenario.Runner.stall_window} for the case's period — the
    livelock window both engines run under. *)

val to_spec : t -> trace_path:string -> Scenario.Spec.t
(** The [dynspread-scenario/v1] spec that replays this case against
    the trace saved at [trace_path] (as recorded in the spec's env). *)

val of_spec :
  Scenario.Spec.t -> trace:Scenario.Trace_io.t -> (t, string) result
(** Rebuild a case from a saved spec + trace pair (the corpus format).
    [Error] on [Oblivious_rw] specs (not a differential algorithm) and
    empty traces. *)

val connected : t -> bool
(** Whether every round graph is connected — the generator's
    invariant, checked by tests and the corpus loader. *)
