(** Connected-graph generators.

    All generators return graphs on the node set [{0, ..., n-1}] that
    are {e connected}, because the dynamic network model requires every
    round's graph to be connected.  Randomized generators take an
    explicit {!Rng.t} so oblivious adversaries can pre-commit whole
    sequences reproducibly.

    These are both the building blocks of the oblivious adversaries and
    the initial topologies of the static baseline (Section 1's
    spanning-tree dissemination). *)

val path : n:int -> Graph.t
(** [0 - 1 - 2 - ... - (n-1)]; diameter [n-1] — the worst case that
    makes amortized time Ω(D) but message cost still Ω(n). *)

val cycle : n:int -> Graph.t
(** Ring; requires [n >= 3] to stay simple (falls back to {!path} for
    smaller [n]). *)

val star : n:int -> Graph.t
(** Node 0 is the hub. *)

val clique : n:int -> Graph.t
(** Complete graph: Θ(n²) edges — the topology the paper uses to show
    total message complexity can reach Ω(n³) for unicast. *)

val barbell : n:int -> Graph.t
(** Two cliques of ⌊n/2⌋ and ⌈n/2⌉ nodes joined by one bridge edge; a
    classic bottleneck topology for dissemination. *)

val lollipop : n:int -> Graph.t
(** A clique on ⌈n/2⌉ nodes with a path of the remaining nodes hanging
    off it; slow random-walk escape, fast flooding. *)

val grid : n:int -> Graph.t
(** The densest square-ish 2D mesh on exactly [n] nodes (⌈√n⌉ columns,
    row-major, last row possibly short): diameter Θ(√n), the classic
    middle ground between the path and the expander families. *)

val hypercube : n:int -> Graph.t
(** The hypercube on the largest power of two ≤ [n], with any leftover
    nodes attached to their index modulo the cube size (so the node set
    is always exactly [{0..n-1}] and connected): log-diameter,
    log-degree. *)

val random_tree : Rng.t -> n:int -> Graph.t
(** Random spanning tree by the random-attachment process: a uniform
    permutation π is drawn and node [π(i)] attaches to a uniformly
    random earlier node [π(j)], [j < i].  (Not the uniform distribution
    over spanning trees — random attachment favours low diameters — but
    cheap, connected, and exactly [n-1] edges, which is all the
    adversaries need.) *)

val random_connected : Rng.t -> n:int -> p:float -> Graph.t
(** Erdős–Rényi [G(n, p)] patched to connectivity by adding the edges of
    a {!random_tree} on top.  Expected ~[p·n(n-1)/2 + n] edges.

    The rng draws the tree first, exactly as {!random_tree} does, then
    one Bernoulli trial per pair [u < v] in ascending key order.  One
    pass over the pairs keeps those whose trial succeeds or that are
    tree edges, so the keys reach {!Graph.make} ascending, with no sort
    or merge. *)

val random_regularish : Rng.t -> n:int -> d:int -> Graph.t
(** Connected graph with degrees concentrated around [d]: union of a
    random Hamiltonian cycle and [⌈(d-2)/2⌉] random perfect-matching-ish
    edge batches, deduplicated.  Degrees are in [[2, d+2]]. *)

val all_named : (string * (Rng.t -> n:int -> Graph.t)) list
(** Every generator above under a stable name (deterministic ones
    ignore the rng), for table-driven tests. *)
