(** Recorded dynamic graphs: a finite round-indexed sequence
    [G_1, ..., G_x] over a fixed node set, with [G_0 = (V, ∅)] implicit
    as in the paper.

    Provides the quantities of Section 1.3:
    - the per-round deltas [E⁺_r = E_r \ E_{r-1}] and
      [E⁻_r = E_{r-1} \ E_r];
    - the number of topological changes [TC(E) = Σ_r |E⁺_r|] that the
      adversary-competitive measure (Definition 1.3) charges to the
      adversary;
    - the σ-edge-stability predicate.

    The simulation engines account these quantities incrementally; this
    module is the reference implementation the tests compare against,
    and the carrier for pre-committed oblivious adversary schedules. *)

type t

val of_graphs : Graph.t list -> t
(** [of_graphs [g1; ...; gx]] records the rounds in order.
    @raise Invalid_argument if the list is empty or node counts
    disagree. *)

val length : t -> int
(** Number of recorded rounds [x]. *)

val n : t -> int
(** Number of nodes. *)

val get : t -> int -> Graph.t
(** [get t r] is [G_r] for [1 <= r <= length t]; [get t 0] is the empty
    graph [G_0].
    @raise Invalid_argument outside [0 .. length t]. *)

val tc : t -> int
(** [TC(E) = Σ_{r=1..x} |E⁺_r|]. *)

val total_removals : t -> int
(** [Σ_r |E⁻_r|]; always [<= tc t] because the execution starts from
    the empty graph. *)

val all_connected : t -> bool
(** Whether every recorded round is connected (the model's standing
    assumption for [r >= 1]). *)

val is_sigma_stable : t -> sigma:int -> bool
(** Whether the recorded sequence is σ-edge-stable: every maximal run
    of consecutive presence of an edge lasts at least [sigma] rounds.
    A run truncated by the end of the recording is accepted (the
    execution could have continued).  Every sequence is 1-edge
    stable. *)
