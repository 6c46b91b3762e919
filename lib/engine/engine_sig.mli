(** The common [ENGINE] seam.

    Both simulation engines — the production {!Soa} and the
    pseudocode-faithful {!Reference} — implement the same pair of [run]
    signatures, packaged as a first-class {!module-type-ENGINE} value.  Anything that executes a
    protocol against an adversary can be parameterized over the engine
    (see [Gossip.Runners]' [?engine], the [lib/fuzz] differential
    harness, and the serve daemon's workers).

    The [PROTOCOL] module types and adversary types are {e owned} by
    {!Runner_broadcast} / {!Runner_unicast}: every engine runs the
    exact same protocol modules against the exact same adversaries,
    which is what makes bit-identical differential comparison
    meaningful.

    The cross-cutting settings of a run — tracing sink, fault plan,
    profiler, recorder hook, stall window, cancel poll — travel in one
    {!Ctx.t}, whose documentation is their contract.

    The contract an implementation must honour (the differential
    fuzzer enforces it): given identical protocols, initial states,
    adversaries, contexts, and caps, produce an identical
    {!Run_result.t} — same outcome, ledger counts, per-sender loads,
    and timeline — and drive the context's [on_graph] with the
    identical committed round-graph sequence.  Trace-event streams and
    profiling spans must match the engine docs but are not part of the
    bit-identity contract. *)

module type BROADCAST = sig
  val run :
    (module Runner_broadcast.PROTOCOL with type state = 's and type msg = 'm) ->
    ?ctx:Ctx.t ->
    ?init_prev:Dynet.Graph.t ->
    ?target_progress:int ->
    states:'s array ->
    adversary:('s, 'm) Runner_broadcast.adversary ->
    max_rounds:int ->
    stop:('s array -> bool) ->
    unit ->
    Run_result.t * 's array
  (** See {!Runner_broadcast.run} for the full parameter contract. *)
end

module type UNICAST = sig
  val run :
    (module Runner_unicast.PROTOCOL with type state = 's and type msg = 'm) ->
    ?ctx:Ctx.t ->
    ?init_prev:Dynet.Graph.t ->
    ?target_progress:int ->
    states:'s array ->
    adversary:'s Runner_unicast.adversary ->
    max_rounds:int ->
    stop:('s array -> bool) ->
    unit ->
    Run_result.t * 's array
  (** See {!Runner_unicast.run} for the full parameter contract. *)
end

module type ENGINE = sig
  val name : string
  (** Stable identifier for reports and diagnostics (["soa"],
      ["soa-N"], ["reference"]). *)

  module Broadcast : BROADCAST
  module Unicast : UNICAST
end
