(** Incrementally maintained compressed-sparse-row adjacency.

    The mega-scale engine walks every edge of the round graph each
    round; this flattens {!Graph}'s per-node rows into one contiguous
    [offsets]/[neighbors] pair, reusing the buffers across rounds.
    {!update} is gated by the caller: the engine's topological-change
    accounting already walks each round's keys against the last
    round's, and passes its verdict in, so a round with an unchanged
    edge set (the same physical graph, or a rebuilt identical one)
    skips the repack without a second walk, and only rounds with real
    churn pay O(n + m). *)

type t

val create : n:int -> t

val update : t -> Graph.t -> changed:bool -> bool
(** Point the CSR at a round graph; [true] iff a repack happened.
    [changed] must be [true] unless the graph has the same edge set as
    the one passed to the previous [update]; the first [update]
    repacks whatever it is told.  Allocation-free on the no-repack
    path, and a repack itself only allocates when the edge count
    outgrew the reused buffer.
    @raise Invalid_argument if the graph's node count differs. *)

val n : t -> int

val entries : t -> int
(** Directed adjacency entries currently packed (2 × edges). *)

val rebuilds : t -> int
(** Number of repacks since creation — the delta-compression
    effectiveness counter (rounds − rebuilds were served for free). *)

val row_start : t -> int -> int
val row_stop : t -> int -> int
(** Row [v]'s neighbors live at indices
    [row_start t v .. row_stop t v - 1], in increasing order. *)

val degree : t -> int -> int

val neighbor : t -> int -> int
(** Flat-index access into the neighbor array (unchecked beyond the
    array bound; callers iterate within a row's start/stop). *)

val iter_row : t -> int -> (int -> unit) -> unit
