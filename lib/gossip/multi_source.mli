(** Multi-Source-Unicast (Section 3.2.1).

    Tokens start at [s] source nodes [a_1 < ... < a_s]; each source
    labels its own tokens [⟨ID_x, i⟩] and is complete with respect to
    itself at time 0.  Every node [v] maintains, per source [x]:
    [R_v(x)] (whom it told about its own x-completeness), [S_v(x)] (who
    told it), and [I_v] (the sources it is complete w.r.t.).  Each
    round, every node runs three tasks in parallel:

    + {e announce}: to each neighbor [w], the completeness of the
      {e minimum} source [x ∈ I_v] with [w ∉ R_v(x)] (at most one
      announcement per edge per round, each (v, w, x) triple at most
      once ever — ≤ n²s in total);
    + {e serve}: answer last round's token requests;
    + {e request}: pick the minimum source [x ∉ I_v] with
      [S_v(x) ≠ ∅] and run the Single-Source request logic for [x]
      alone (new > idle > contributive edge priority).

    The min-source priority means the network effectively runs the
    Single-Source algorithm for source [a_1], then [a_2], etc., giving
    the O(nk) round bound on 3-edge-stable graphs (Theorem 3.6) and
    1-adversary-competitive message complexity O(n²s + nk)
    (Theorem 3.5).

    This protocol is also phase 2 of Algorithm 2, with the centers
    acting as sources of the tokens they collected (see
    {!Oblivious_rw}); that is why {!init} accepts any instance rather
    than insisting the catalog sources equal the token origins.

    A node-round costs O(deg) and O(log s) for the min-source choice.
    A round that announces adds O(s) for copying the [R_v] array,
    O(n/62) per source it tells anyone about and O(|I_v|) per
    announcement; neighbours already told every complete source are
    skipped with one bit test.  [R_v] and
    [I_v] are indexed by the sources' ranks in id order.  States are
    persistent — see {!Edge_history} for why. *)

type state

(** How a node picks which source to request from next.  {!Min_source}
    is the paper's rule: all nodes prioritize the minimum incomplete
    source, so the network completes sources one at a time and inherits
    the Single-Source round bound (Theorem 3.6's proof).
    {!Random_source} is the ablation: each node picks independently at
    random among its incomplete announced sources — still correct, but
    the sequencing argument is lost. *)
type source_order = Min_source | Random_source

val protocol :
  (module Engine.Runner_unicast.PROTOCOL
     with type state = state
      and type msg = Payload.t)

val init :
  ?source_order:source_order -> ?seed:int -> instance:Instance.t -> unit ->
  state array
(** [source_order] defaults to the paper's {!Min_source}; [seed]
    (default 0) only matters for {!Random_source}. *)

val known_count : state -> int
(** Distinct tokens known (initial + learned). *)

val complete_wrt : state -> Dynet.Node_id.t -> bool
(** Whether the node is complete w.r.t. the given source. *)

val all_complete : k:int -> state array -> bool

val requests_sent : state -> int
val announcements_sent : state -> int
