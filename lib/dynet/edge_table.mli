(** Append buffer of packed edge keys, for building a graph edge by
    edge.

    The canonical edge [(u, v)] with [u < v < n] maps to the key
    [u * n + v], so numeric key order is lexicographic order on the
    canonical endpoints — which is what lets {!Graph.of_table} build
    sorted adjacency without re-sorting.

    Appends are O(1) amortised with zero per-edge boxing (the key is an
    immediate).  Builders that append in ascending key order (paths,
    cliques, grids) never pay for a sort; otherwise {!sorted_keys}
    sorts once, by a two-pass radix sort in O(m + n), and drops
    duplicates. *)

type t

val create : n:int -> ?size_hint:int -> unit -> t
(** Empty buffer for graphs on [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val n : t -> int

val cardinal : t -> int
(** Number of distinct edges appended so far. *)

val key : n:int -> Node_id.t -> Node_id.t -> int
(** Packed key of the canonical form of [(u, v)].
    @raise Invalid_argument on self-loops or out-of-range endpoints. *)

val add_pair : t -> Node_id.t -> Node_id.t -> unit
(** Append the edge [{u, v}] (idempotent: duplicates are dropped).
    @raise Invalid_argument on self-loops or out-of-range endpoints. *)

val sorted_keys : t -> int array
(** All distinct packed keys in increasing order — i.e. in
    lexicographic order of the canonical endpoint pairs.  The result is
    a fresh array. *)

val diff_keys : int array -> int array -> int array
(** [diff_keys a b] is the ascending keys of the ascending [a] that are
    not in the ascending [b], by one merge walk — [diff_keys e_r e_{r-1}]
    is the paper's [E⁺_r].  The result is a fresh array. *)

val merge_keys : int array -> int -> int array -> int -> int array
(** [merge_keys a la b lb] is the ascending union of the ascending
    prefixes [a.(0 .. la - 1)] and [b.(0 .. lb - 1)], a key present in
    both kept once.  The result is a fresh array. *)
