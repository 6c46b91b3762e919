(** Reliable-delivery wrapper: acks, retransmits, exponential backoff.

    [Make (P)] turns any unicast {!Engine.Runner_unicast.PROTOCOL}
    into one that tolerates the message faults of {!Faults.Plan} —
    loss, duplication, and bounded delay — by the classic ARQ recipe:

    - every inner message is wrapped as [Data] with a per-sender
      sequence number and kept outstanding until the destination acks
      it; acks are [Control]-class messages, queued in [receive] and
      sent the next round the destination is a neighbor;
    - an unacked message is retransmitted once its per-message timeout
      expires and the destination is again a neighbor.  The timeout is
      fixed: 2 rounds at first (one for delivery plus one for the ack),
      doubled by each transmission, capped at 64 rounds, so a dead
      path backs off instead of flooding;
    - receivers deduplicate on [(sender, seq)], so the inner protocol
      sees each inner message {e exactly once} per incarnation however
      often the wire duplicated or the wrapper retransmitted it;
    - the engine's one-token-per-edge-per-round budget is respected:
      at most one [Token]/[Walk]-class data message is (re)sent to a
      given destination per round, oldest outstanding first; the rest
      wait a round.

    [send] and [receive] are pure functions of the node's own state:
    a retransmission is recorded in the sender's state ({!resent}),
    not reported through a callback, so any engine may run the nodes
    of a round on any domain.  The runners turn those records into
    [Obs.Trace.Fault {kind = "retransmit"}] events.

    The wrapper masks {e message} faults.  Crash-restart faults reset
    a node to its initial wrapper state (empty outstanding set, fresh
    sequence numbers), so a restarted sender can reuse sequence
    numbers its peers already saw — delivery is then best-effort for
    the new incarnation.  DESIGN.md "Faults" records this limit.

    Under a loss rate ≤ 0.2 on 3-edge-stable schedules this completes
    Single/Multi-Source-Unicast runs that the bare protocols fail
    (the EXPERIMENTS.md robustness-tax sweep quantifies the message
    inflation paid for it). *)

module Make (P : Engine.Runner_unicast.PROTOCOL) : sig
  type msg
  (** [Data] (wrapped inner message, classified as its payload) or
      [Ack] ([Control] class). *)

  type state

  val protocol :
    (module Engine.Runner_unicast.PROTOCOL
       with type state = state
        and type msg = msg)

  val wrap : P.state array -> state array
  (** Wrap the inner initial states. *)

  val inner : state -> P.state
  (** The wrapped protocol state (stop predicates and assertions look
      through the wrapper). *)

  val resent : state -> int * Dynet.Node_id.t list
  (** [(round, dsts)]: the destinations of the retransmissions this
      node made in [round], the last round it sent in, in send order
      ([(0, [])] before its first send). *)

  val acks_sent : state -> int
  (** Lifetime acks this node sent. *)
end
