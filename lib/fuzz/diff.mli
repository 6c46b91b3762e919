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

(** What the harness needs from a flooding implementation, so
    the test suite's deliberately broken copies can stand in for the real
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

(** What the protocol differential needs from a unicast protocol: the
    production {!Gossip.Single_source} / {!Gossip.Multi_source} and
    the test suite's frozen copies of them both fit, so the two can run on
    one engine through the same wiring. *)
module type UNICAST = sig
  type state

  val protocol :
    (module Engine.Runner_unicast.PROTOCOL
       with type state = state
        and type msg = Gossip.Payload.t)

  val init : instance:Gossip.Instance.t -> state array
  val all_complete : k:int -> state array -> bool
end

val real_single_source : Gossip.Single_source.config -> (module UNICAST)
val real_multi_source : Gossip.Multi_source.source_order -> (module UNICAST)

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
    target, {!Gossip.Runners}' round caps).  Every case calls the
    engine directly: flooding through [?flooding] (default
    {!real_flooding}), unicast cases through {!real_single_source}
    with the default config or {!real_multi_source} [Min_source], so
    a mutant or a frozen copy shares every line of wiring with
    the real protocol. *)

val execute_protocol :
  engine:(module Engine.Engine_sig.ENGINE) ->
  protocol:(module UNICAST) ->
  Case.t ->
  exec
(** {!execute} of a unicast case with the given protocol
    implementation.  The case's [algo] only picks the instance shape;
    the protocol must suit it.
    @raise Invalid_argument on a flooding case. *)

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
