(** The fault-delivery layer of the production round loops
    ({!Runner_broadcast.run}, {!Runner_unicast.run_sharded} and {!Soa}'s
    plane kernel), written once: the round-start crash/restart step,
    the fate of each transmitted copy, the release of delayed copies,
    the loss of a crashed node's inbox, the message-copy counters with
    their round-end checks, and the fault tallies for {!Ctx.finish}.

    Each loop keeps its own draw order, its inbox ordering and its
    fault-free send path inline.  {!Reference} keeps its own copy of
    all of this, as the differential fuzzer's oracle.  Inboxes are
    [(src, msg)] lists per receiver, built by prepending in arrival
    order. *)

type ('s, 'm) t
(** The delivery state of one execution over the [states] array it was
    started on. *)

val start : Ctx.t -> classify:('m -> Msg_class.t) -> 's array -> ('s, 'm) t
(** Instantiate the context's fault plan for the run, snapshotting the
    initial states when it is active.  {!begin_round} writes restarted
    nodes' states back into the array. *)

val faulty : (_, _) t -> bool
(** The fault plan is active; when not, {!begin_round} is a no-op and
    {!deliver} and {!settle} must not be called. *)

val checking : (_, _) t -> bool
(** The invariant layer was on at {!start}: only then are the counters
    worth feeding. *)

val alive : (_, _) t -> int -> bool
(** The node takes part in the current round (always, without faults). *)

val begin_round : (_, _) t -> Ctx.run -> unit
(** In the ["faults"] phase: advance node fates (crash and restart
    events; a restarted node gets its initial state back), and abort
    the run when every node is crashed with no possible restart. *)

val deliver :
  (_, 'm) t ->
  inboxes:(Dynet.Node_id.t * 'm) list array ->
  round:int ->
  src:Dynet.Node_id.t ->
  dst:Dynet.Node_id.t ->
  'm ->
  unit
(** One transmission under faults: one [Faults.Plan.deliveries] draw,
    then a drop, or each resulting copy goes into [dst]'s inbox now or
    queues for its due round, with the drop / dup / delay events. *)

val settle :
  (_, 'm) t -> inboxes:(Dynet.Node_id.t * 'm) list array -> round:int -> unit
(** After the round's deliveries: add the copies due this round, in
    queue order, then empty every crashed node's inbox (one drop event
    and tally per lost copy). *)

val sent : (_, _) t -> int -> unit
val created : (_, _) t -> int -> unit
val consumed : (_, _) t -> int -> unit
(** Count messages charged to the ledger, copies put on the wire by a
    fault-free send path, and copies handed to a [receive]. *)

val check_round :
  (_, _) t -> Ctx.run -> ledger:Ledger.t -> Dynet.Graph.t -> unit
(** Unless {!checking} is off, in the ["check"] phase: the round graph
    is connected, the ledger total equals the sends counted, and every
    created copy was consumed, dropped, or is still in flight. *)

val fault_counts : (_, _) t -> Faults.Counts.t option
(** The fault tallies, [None] without faults. *)
