(** Outcome of one simulated execution. *)

(** Graceful-degradation verdict.  [Completed] — the stop predicate
    fired.  [Partial] — the round cap was hit; [achieved] is the final
    global progress (sum over nodes of tokens known) and [target] the
    progress a fully successful run would have reached (when the
    caller declared one), so [achieved/target] is the run's coverage.
    [Stalled] — the engine's opt-in non-progress detector fired: global
    progress did not increase for [rounds_without_progress] consecutive
    rounds (at least the caller's [stall_after] window, typically a
    full schedule period), so the run was cut short instead of spinning
    to the round cap — the outcome a protocol livelocking against a
    periodic schedule reports.  [Cancelled] — the run context's cooperative
    [cancel] poll ({!Ctx}) fired at a round boundary and the run stopped there;
    like [Partial] it carries the progress achieved so far and the
    declared target, so a cancelled run still reports its coverage.  A
    run whose stop predicate fired before the cancel poll was observed
    reports [Completed] — cancellation after completion is a no-op.
    [Aborted] — the engine detected the run could never make further
    progress (e.g. every node crashed under a fault plan with no
    restarts) and stopped early. *)
type outcome =
  | Completed
  | Partial of { achieved : int; target : int option }
  | Stalled of { rounds_without_progress : int }
  | Cancelled of { achieved : int; target : int option }
  | Aborted of string

type t = {
  rounds : int;  (** Rounds actually executed. *)
  completed : bool;
      (** Whether the stop predicate fired before the round cap
          (i.e. [outcome = Completed]). *)
  outcome : outcome;  (** The graceful-degradation verdict. *)
  ledger : Ledger.t;  (** Full communication-cost accounting. *)
  fault_counts : Faults.Counts.t option;
      (** Per-class fault tallies — [None] when the run used
          {!Faults.Plan.none} (the clean model). *)
  timeline : (int * int * int) list;
      (** Per-round samples [(round, cumulative messages, cumulative
          progress)] in round order; used for learning-curve plots and
          the potential-growth experiments. *)
}

val coverage : outcome -> float option
(** Fraction of the declared target achieved: [Some 1.] for
    [Completed], [Some (achieved/target)] (clamped to 1) for a
    [Partial] or [Cancelled] with a known positive target, [None]
    otherwise. *)

val make :
  ?outcome:outcome ->
  ?fault_counts:Faults.Counts.t ->
  rounds:int ->
  completed:bool ->
  ledger:Ledger.t ->
  timeline:(int * int * int) list ->
  unit ->
  t
(** [outcome] defaults to [Completed] when [completed], else to a
    [Partial] with the ledger's learnings and no target (legacy
    callers that predate degradation reporting). *)

val messages : t -> int
(** Shorthand for [Ledger.total t.ledger]. *)

val to_report :
  ?name:string -> ?extra:(string * Obs.Json.t) list -> t -> Obs.Report.t
(** The machine-readable counterpart of {!pp}: everything the ledger
    accounted for — totals, per-class counts, [TC], removals,
    learnings, the competitive cost at [alpha = 1],
    per-node load statistics, and the timeline — as an {!Obs.Report.t}
    ready for JSON output.  [name] (default ["run"]) labels the run;
    [extra] fields are appended to the JSON object verbatim.  The
    degradation outcome is always included (an ["outcome"] field, plus
    ["achieved"]/["target"]/["coverage"] for partial and cancelled runs
    and ["abort_reason"] for aborted ones); when a fault plan was
    active a ["faults"] object carries the per-class fault counts. *)

val pp : Format.formatter -> t -> unit
