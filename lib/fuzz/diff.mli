(** Running one case through two engines and comparing the outputs.

    The differential property is {e bit identity}: for the same
    {!Case.t}, both engines must produce byte-identical run-report
    JSON (outcome, ledger totals and per-class counts, per-node loads,
    timeline) and byte-identical realized schedules (the run context's
    [on_graph] round-graph sequence, serialized through {!Scenario.Record}).
    Engine failures are part of the contract too: a typed engine error
    ({!Engine.Engine_error.Protocol_violation},
    [Adversary_violation], {!Check.Check_failed}) must be raised by
    both engines with the same message, or the case is a mismatch.
    Any other exception propagates — it is a harness bug, not a
    divergence. *)

(** What the harness needs from a flooding implementation.  The
    unicast protocols run through the engine-parametric
    {!Gossip.Runners}; flooding is abstracted one step further so
    {!Mutant}'s deliberately broken copies can stand in for the real
    protocol on one side of the comparison. *)
module type FLOODING = sig
  type state

  val protocol :
    (module Engine.Runner_broadcast.PROTOCOL
       with type state = state
        and type msg = Gossip.Payload.t)

  val init : instance:Gossip.Instance.t -> state array
  val all_complete : k:int -> state array -> bool
end

val real_flooding : (module FLOODING)
(** {!Gossip.Flooding} behind the seam (default [phase_len]). *)

type exec = {
  engine : string;  (** The engine's [name]. *)
  report : string;  (** Run-report JSON; [""] when [error] is set. *)
  realized : string;
      (** The realized schedule as [dynspread-trace/v1] text (rounds
          recorded up to the failure point, when [error] is set). *)
  error : string option;
      (** A typed engine failure, tagged and carrying the message. *)
}

val execute :
  engine:(module Engine.Engine_sig.ENGINE) ->
  ?flooding:(module FLOODING) ->
  ?prof:Obs.Span.t ->
  Case.t ->
  exec
(** One run.  Wiring mirrors {!Scenario.Runner} (instance, fault plan,
    {!Scenario.Replay.Loop} schedule, stall window, [n*k] progress
    target); flooding cases call the engine directly through
    [?flooding] (default {!real_flooding}) so a mutant shares every
    line of wiring with the real protocol. *)

val divergence : exec -> exec -> string option
(** [None] iff the two executions agree bit-for-bit: same
    report, same realized schedule, same error (or none).  The
    returned string names which side of the contract broke. *)

val check :
  ?flooding_b:(module FLOODING) ->
  ?prof:Obs.Span.t ->
  engine_a:(module Engine.Engine_sig.ENGINE) ->
  engine_b:(module Engine.Engine_sig.ENGINE) ->
  Case.t ->
  string option
(** Run the case through both engines and compare; [?flooding_b]
    substitutes the flooding implementation on the [b] side only
    (the mutation smoke test's hook). *)
