(** Deterministic, splittable randomness for reproducible experiments.

    Every randomized component of the reproduction — graph generators,
    oblivious adversaries (which must commit to their whole topology
    sequence up front), center self-election and random walks of
    Algorithm 2, and the [K'_v] sampling of the Section-2 lower-bound
    adversary — draws from an explicit [Rng.t].  Runs are therefore
    exactly reproducible from a seed, which the test-suite relies on.

    Splitting derives an independent child stream; the oblivious
    adversary splits once per round so that changing how many random
    bits one round consumes cannot perturb later rounds. *)

type t

val make : seed:int -> t
val split : t -> t
(** A child generator independent of future draws from the parent. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0 .. bound-1].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [min 1 (max 0 p)]:
    [below t (threshold p)]. *)

val threshold : float -> int
(** The integer form of a Bernoulli parameter, to hoist out of a loop
    of draws at one [p].  For p in (0, 1) it is [ceil (p * 2^53)], and
    [below t (threshold p)] is exactly [Random.State.float t 1. < p]
    on the same draw: the stdlib's unit float is [b * 2^-53] for a
    53-bit [b >= 1], and scaling both sides by 2^53 is exact.  [p <= 0]
    gives 0 and [p >= 1] gives 2^53, and neither draws; a nan [p]
    gives 1, which draws and never holds, as [x < nan] does. *)

val below : t -> int -> bool
(** [below t th] for [th = threshold p] is one Bernoulli([p]) draw:
    the same outcome and the same stream advance as the stdlib's
    [Random.State.float t 1. < p], without a float. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** A uniform permutation of [0 .. n-1]. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t m n] draws [m] distinct values from
    [0 .. n-1], in increasing order.
    @raise Invalid_argument if [m > n] or [m < 0]. *)
