(** Immutable snapshot of a single round's communication graph [G_r].

    A graph is a simple undirected graph over the fixed node set
    [{0, ..., n-1}].  Construction validates that all endpoints are in
    range; adjacency is precomputed so that [neighbors] — the hot call
    of the simulation engines — is O(1).

    The dynamic network model requires every [G_r] (r ≥ 1) to be
    connected; {!is_connected} is the check the adversaries and the
    test-suite use to enforce it. *)

type t

val make : n:int -> int array -> t
(** The graph whose edges are the given packed keys ([u * n + v] for
    the canonical [u < v], see {!Edge_table}), which must be strictly
    ascending.  The array is taken over, not copied — the caller must
    not mutate it afterwards.  Adjacency is built in O(n + m) with no
    sort and no division per key.
    @raise Invalid_argument if [n < 0], or the keys are not strictly
    ascending canonical keys of an [n]-node graph. *)

val of_table : Edge_table.t -> t
(** [make] over the table's sorted keys (the static builders and the
    random tree accumulate into one). *)

val empty : n:int -> t
(** The empty graph [(V, ∅)] — the paper's [G_0]. *)

val n : t -> int
(** Number of nodes. *)

val edges : t -> int array
(** The packed edge keys in increasing order — the input of merge walks
    that build the next round's graph with {!make}.  The array is owned
    by the graph: callers must not mutate it. *)

val edge_count : t -> int

val mem_edge : t -> Node_id.t -> Node_id.t -> bool
(** Binary search over the packed edge keys: O(log m), allocation
    free. *)

val delta_counts : prev:t -> cur:t -> int * int
(** [(inserted, removed)] edge counts between two snapshots on the same
    node set — a single merge walk over the sorted key arrays, with a
    physical-equality fast path returning [(0, 0)] when the adversary
    reused the previous round's graph.
    @raise Invalid_argument if node counts differ. *)

val same_edges : t -> t -> bool
(** Structural edge-set equality (with a physical-equality fast
    path). *)

val neighbors : t -> Node_id.t -> Node_id.t array
(** Neighbors in increasing order.  The returned array is owned by the
    graph: callers must not mutate it. *)

val degree : t -> Node_id.t -> int
val max_degree : t -> int

val iter_pairs : (Node_id.t -> Node_id.t -> unit) -> t -> unit
(** Canonical endpoint pairs ([u < v]) in increasing key order. *)

val bfs_tree : t -> Node_id.t -> Node_id.t option array
(** Parent pointers of a BFS tree rooted at the given node; [None] for
    the root and for unreachable nodes. *)

val distances : t -> Node_id.t -> int array
(** Single-source shortest-path distances; [max_int] if unreachable. *)

val components : t -> Union_find.t
(** Union-find structure of the graph's connected components. *)

val is_connected : t -> bool
(** [true] iff the graph has exactly one connected component.  The
    empty node set and the single node are connected.  One depth-first
    walk over the adjacency rows: O(n + m), allocating an n-byte
    seen-set and an n-slot stack, with no division per key. *)

val eccentricity : t -> Node_id.t -> int
(** Max finite distance from the node.
    @raise Invalid_argument if the graph is disconnected. *)

val diameter : t -> int
(** Exact diameter (max over all BFS roots).
    @raise Invalid_argument if the graph is disconnected. *)

val connect_components : t -> int array
(** The ascending keys of a minimal set of extra edges
    (one fewer than the components, chaining component representatives
    in increasing order) whose addition makes the graph connected.
    Empty if already connected. *)

val union : t -> t -> t
(** Edge-union of two graphs on the same node set.
    @raise Invalid_argument if node counts differ. *)
