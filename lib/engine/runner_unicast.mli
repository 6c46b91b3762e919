(** Synchronous unicast engine.

    Models the paper's unicast communication (Section 1.3): at the
    beginning of round [r] the adversary fixes the connected round
    graph [G_r]; each node is then informed of the IDs of its round-[r]
    neighbors (the KT1-style assumption the paper makes for unicast)
    and may send a different message to each of them.  Every message to
    a distinct neighbor counts separately.

    The engine enforces the bandwidth constraint that at most one
    {!Msg_class.Token}-class message crosses a directed edge per round
    ("one token can go through an edge per round"); control traffic
    (announcements, requests) may share the edge, as the model allows a
    constant number of tokens plus O(log n) bits per message.

    This module's round loop is the only production unicast loop:
    {!Soa} runs it over its shard spans ({!run_sharded}); only
    {!Reference} keeps its own, as the differential oracle. *)

module type PROTOCOL = sig
  type state
  type msg

  val classify : msg -> Msg_class.t

  val send :
    state ->
    round:int ->
    neighbors:Dynet.Node_id.t array ->
    state * (Dynet.Node_id.t * msg) list
  (** The node's messages for the round, decided after seeing its
      neighbor IDs.  The returned state lets protocols record what they
      sent (e.g. pending requests in Algorithm 1). *)

  val receive :
    state ->
    round:int ->
    neighbors:Dynet.Node_id.t array ->
    inbox:(Dynet.Node_id.t * msg) list ->
    state
  (** End-of-round delivery; inbox entries in increasing sender order
      (sender order within one sender preserved). *)

  val progress : state -> int
end

type traffic = (Dynet.Node_id.t * Dynet.Node_id.t * Msg_class.t) list
(** Last round's [(src, dst, class)] sends — what an adaptive adversary
    observed on the wire (e.g. {!Adversary.Request_cutter} deletes the
    edges that carried requests). *)

type 'state adversary =
  round:int ->
  prev:Dynet.Graph.t ->
  states:'state array ->
  traffic:traffic ->
  Dynet.Graph.t

val run :
  (module PROTOCOL with type state = 's and type msg = 'm) ->
  ?ctx:Ctx.t ->
  ?init_prev:Dynet.Graph.t ->
  ?target_progress:int ->
  states:'s array ->
  adversary:'s adversary ->
  max_rounds:int ->
  stop:('s array -> bool) ->
  unit ->
  Run_result.t * 's array
(** Runs until [stop] holds (checked after each round, and once before
    round 1 for already-solved instances) or [max_rounds] is reached.

    [ctx] (default {!Ctx.default}) carries the tracing sink, fault
    plan, profiler, recorder hook, stall window and cancel poll; see
    {!Ctx} for their contract.

    [init_prev] (default: the empty graph [G_0]) seeds the
    topological-change accounting — pass the previous phase's last
    graph when chaining runs so [TC] is not inflated by a phantom
    re-insertion of every edge.

    [target_progress] (e.g. [n*k] for full dissemination) is the
    progress a successful run would reach; a capped or cancelled run
    reports its coverage against it.
    @raise Engine_error.Adversary_violation on invalid round graphs.
    @raise Engine_error.Protocol_violation on sends to non-neighbors or
    token-bandwidth violations. *)

val run_sharded :
  (module PROTOCOL with type state = 's and type msg = 'm) ->
  spans:(int * int) array ->
  ?ctx:Ctx.t ->
  ?init_prev:Dynet.Graph.t ->
  ?target_progress:int ->
  states:'s array ->
  adversary:'s adversary ->
  max_rounds:int ->
  stop:('s array -> bool) ->
  unit ->
  Run_result.t * 's array
(** {!run} with node space split over [spans] (contiguous [[lo, hi)]
    ranges covering [0 .. n-1], as {!Shard_pool.ranges} builds them):
    [P.send] and [P.receive] run on a {!Shard_pool} with one domain per
    span, and every order-sensitive step — state commits, protocol
    checks, ledger, trace, fault delivery draws, inbox assembly —
    replays sequentially in node order between the barriers.  The
    result is identical to {!run}'s at any span count; {!run} is this
    loop over the single span [[0, n)].  {!Soa}'s unicast side calls
    it with its shard spans.

    With more than one span, [P.send] and [P.receive] run
    concurrently on different nodes and must touch only the node's
    own state. *)
