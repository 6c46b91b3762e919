(** Synchronous local-broadcast engine.

    Models the paper's local-broadcast communication (Section 1.3):
    each round, every node chooses at most one message to broadcast
    {e before} knowing that round's topology; the adversary — which in
    the strongly adaptive case sees all node states and the chosen
    broadcasts, exactly the power used by the Section-2 lower bound —
    then fixes the round graph; every broadcast is delivered to all the
    sender's neighbors and counts as {e one} message regardless of the
    neighbor count.  A node learns (a subset of) its neighbors only
    from the messages it receives: silent neighbors stay invisible. *)

type ('s, 'm) plane_spec = {
  width : 's -> int;  (** Token-catalog size [k], constant over a run. *)
  phase_of : 's -> round:int -> int;
      (** The single token index flooded in the given round; a pure
          function of run constants in the state and the round. *)
  message : 's -> int -> 'm;
      (** The broadcast payload carrying token [p].  Must depend only
          on run constants, so any node's state may evaluate it. *)
  mask : 's -> Dynet.Bitset.t;
      (** Read-only view of the node's known-token bitset (capacity
          [width]). *)
  restate : 's -> mask:Dynet.Bitset.t -> known:int -> 's;
      (** Rebuild a node state around a new mask with
          [known = cardinal mask].  The state takes ownership of
          [mask]. *)
}
(** The struct-of-arrays capability: a protocol provides it to assert
    that its behaviour is {e exactly} the phased flooding induced by
    the record —

    - [intent st ~round] returns
      [(st, Some (message st (phase_of st ~round)))] iff
      [mask st] contains [phase_of st ~round], and [(st, None)]
      otherwise ([intent] never changes the state);
    - [receive] folds the inbox learning only the carried token of
      each message into the mask;
    - [progress st = Bitset.cardinal (mask st)];
    - states share no mutable structure across nodes.

    Under these laws an engine may keep the masks in a flat word plane
    and reproduce runs bit-identically without materialising intents,
    inboxes, or per-round state records ({!Soa} does).  The laws are
    differentially enforced: the fuzz harness runs the SoA kernel
    against {!Reference}'s generic broadcast loop on the same cases. *)

module type PROTOCOL = sig
  type state
  type msg

  val classify : msg -> Msg_class.t

  val intent : state -> round:int -> state * msg option
  (** The node's broadcast decision for the round, made topology-blind.
      [None] means the node stays silent (costs nothing). *)

  val receive :
    state -> round:int -> inbox:(Dynet.Node_id.t * msg) list -> state
  (** End-of-round delivery: one entry per {e broadcasting} neighbor,
      in increasing sender order. *)

  val progress : state -> int
  (** Number of tokens this node currently knows (drives the
      token-learning accounting of Definition 1.4). *)

  val plane : (state, msg) plane_spec option
  (** The SoA capability, or [None] to always run generically. *)
end

type ('state, 'msg) adversary =
  round:int ->
  prev:Dynet.Graph.t ->
  states:'state array ->
  intents:'msg option array ->
  Dynet.Graph.t
(** A strongly adaptive adversary sees everything, including the
    current round's announced broadcasts; oblivious adversaries simply
    ignore [states] and [intents]. *)

val run :
  (module PROTOCOL with type state = 's and type msg = 'm) ->
  ?ctx:Ctx.t ->
  ?init_prev:Dynet.Graph.t ->
  ?target_progress:int ->
  states:'s array ->
  adversary:('s, 'm) adversary ->
  max_rounds:int ->
  stop:('s array -> bool) ->
  unit ->
  Run_result.t * 's array
(** Runs until [stop] holds (checked after each round, and once before
    round 1 for already-solved instances) or [max_rounds] is reached.

    [ctx] (default {!Ctx.default}) carries the tracing sink, fault
    plan, profiler, recorder hook, stall window and cancel poll; see
    {!Ctx} for their contract.  Under a fault plan a local broadcast is
    still {e charged once}, but its per-edge deliveries drop /
    duplicate / lag independently, and a crashed node broadcasts
    nothing and loses its inbox.

    [init_prev] (default: the empty graph [G_0]) seeds the
    topological-change accounting when chaining runs.

    [target_progress] (e.g. [n*k] for full dissemination) is the
    progress a successful run would reach; a capped or cancelled run
    reports its coverage against it.
    @raise Engine_error.Adversary_violation on invalid round graphs. *)
