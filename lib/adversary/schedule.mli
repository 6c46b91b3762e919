(** Pre-committed (oblivious) dynamic-graph schedules.

    An oblivious adversary (Section 1.3) must commit to the whole
    sequence of round graphs before the execution starts.  A schedule
    is such a commitment: round [r]'s graph is a pure function of the
    schedule's seed and [r], never of the algorithm's behaviour.

    A schedule is a forward cursor.  It holds only the last round read
    and its graph, so a run's memory is flat in its round count, and
    graphs are generated on demand, so a run pays only for the rounds
    it executes.  A read behind the cursor re-derives the round rather
    than remembering it: the commitment is the rule, not a stored
    sequence.  Callers that read one schedule twice (two engines on one
    sequence, a record then a check) either construct it again from its
    seed, which is cheapest, or read it again and pay the re-derivation.

    Use {!Oblivious} for the concrete schedule families and
    {!unicast}/{!broadcast} to plug a schedule into an engine. *)

type t

val n : t -> int

val get : t -> int -> Dynet.Graph.t
(** [get t r] is the committed graph of round [r] (1-based), and moves
    the cursor to [r].
    - [r] is the cursor's round: the same graph object again.
    - [r] is ahead: a stateless rule is called for [r] alone; a
      Markovian rule steps through every round up to [r], once each,
      in order.
    - [r] is behind: a stateless rule is called for [r] again; a
      Markovian rule replays the sequence from [init] up to [r], so
      the read costs [r] steps.
    @raise Invalid_argument if [r < 1]. *)

val of_fun : n:int -> (int -> Dynet.Graph.t) -> t
(** Stateless rule: round [r]'s graph depends on [r] only.  The rule
    must be pure: it is called once for each round read ahead of the
    cursor, and again for a round read behind it. *)

val iterate :
  n:int -> init:(unit -> Dynet.Graph.t) -> (int -> Dynet.Graph.t -> Dynet.Graph.t) -> t
(** Markovian rule: round 1 is [init ()], round [r > 1] is
    [rule r g_{r-1}]; only the previous graph is kept.  A read behind
    the cursor calls [init] again and steps forward from it, so [init]
    must start the sequence afresh: each step may depend only on [r],
    [g_{r-1}] and state that [init] resets. *)

val stabilized : sigma:int -> t -> t
(** σ-edge-stable view of a schedule (young edges held down, see
    {!Dynet.Stability}); still oblivious since the transformation
    depends only on the underlying committed sequence.  A Markovian
    rule whose [init] starts fresh hold-down ages, so a replay repeats
    the sequence. *)

val overlay : t -> t -> t
(** Edge-union of two committed schedules, round by round: e.g. a
    static backbone overlaid with a churning extra-edge family.  Still
    oblivious (both inputs are committed).
    @raise Invalid_argument if node counts differ. *)

val prefix : t -> int -> Dynet.Dyn_seq.t
(** The first [x] rounds as a recorded sequence (for offline checks:
    connectivity, TC, σ-stability).  Reads rounds [1..x] in order, so
    on a schedule already past round 1 it re-derives them. *)

val unicast : t -> 'state Engine.Runner_unicast.adversary
(** Adapter ignoring all observed state, as obliviousness demands. *)

val broadcast : t -> ('state, 'msg) Engine.Runner_broadcast.adversary
