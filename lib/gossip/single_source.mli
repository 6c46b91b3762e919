(** Algorithm 1: Single-Source-Unicast (Section 3.1).

    All [k] tokens start at one source, which labels them [0..k-1].
    Only complete nodes (holding all [k] tokens, Definition 3.1) ever
    send tokens.  The protocol has three message types, matching the
    accounting of Theorem 3.1:

    - {e completeness announcements}: a complete node informs each
      neighbor of its completeness at most once over the whole
      execution (both sides remember across edge deletions);
      announcements carry [k], which is how non-source nodes learn what
      to ask for.  ≤ n(n-1) in total.
    - {e token requests}: each incomplete node that knows complete
      neighbors assigns {e distinct} missing-token requests, one per
      eligible edge, prioritizing edges as {e new} (inserted this round
      or the previous one) > {e idle} > {e contributive} (a new token
      crossed it since its last insertion).  A request whose edge
      survives into the next round is answered there, so a token
      request is wasted only when the adversary deletes its edge —
      hence ≤ O(nk) + TC(E) requests.
    - {e tokens}: sent only in response to a request from the previous
      round, so each node receives each token exactly once: ≤ nk.

    Together: 1-adversary-competitive message complexity O(n² + nk)
    (Theorem 3.1); on 3-edge-stable dynamic graphs the run completes
    within O(nk) rounds (Theorem 3.4).

    The [rounds ≤ O(nk)] bound needs the priority order new > idle >
    contributive exactly as stated — see Lemmas 3.2/3.3 (futile rounds
    destroy idle edges). *)

type state

(** How an incomplete node orders its eligible edges when assigning
    token requests.  {!Paper_priority} is Algorithm 1's order; the
    other two exist for ablation: Lemmas 3.2/3.3 derive the O(nk) round
    bound from this order, and the ablation bench shows what happens
    without it. *)
type priority =
  | Paper_priority  (** new > idle > contributive (Algorithm 1). *)
  | Reversed_priority  (** contributive > idle > new. *)
  | No_priority  (** neighbor-id order, categories ignored. *)

type config = {
  priority : priority;
  dedup_pending : bool;
      (** Algorithm 1's "avoid sending redundant token requests": do
          not re-request a token whose response is already in flight.
          Disabling it (ablation) causes duplicate token deliveries,
          breaking the exact [k(n-1)] type-1 count. *)
}

val default_config : config
(** The paper's algorithm: [Paper_priority], dedup on. *)

val request_plan :
  priority:priority ->
  edges:Edge_history.t ->
  round:int ->
  neighbors:Dynet.Node_id.t array ->
  eligible:Dynet.Bitset.t ->
  have:Dynet.Bitset.t ->
  k:int ->
  arriving:int list ->
  (Dynet.Node_id.t * int) list
(** Algorithm 1's request assignment, shared with {!Multi_source}:
    the edges to [eligible] neighbours, taken category by category in
    [priority] order (row order within a category), each paired with
    the next token index below [k] that is neither in [have] nor in
    [arriving], until the indices run out.  [edges] must be refreshed
    with [neighbors] this round; [arriving] must ascend.  One O(d) pass
    per category, plus the index scan. *)

val protocol :
  (module Engine.Runner_unicast.PROTOCOL
     with type state = state
      and type msg = Payload.t)

val init : ?config:config -> instance:Instance.t -> unit -> state array
(** @raise Invalid_argument unless the instance has exactly one
    source. *)

val is_complete : state -> bool
val known_count : state -> int
val all_complete : k:int -> state array -> bool

val requests_sent : state -> int
(** Lifetime count of requests this node sent (test instrumentation
    for the Theorem 3.1 type-3 bound). *)
