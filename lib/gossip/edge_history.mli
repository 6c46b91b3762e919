(** Per-node adjacent-edge history for Algorithm 1 and its
    multi-source extension.

    The protocols classify each currently present incident edge as
    {e new} (inserted this round or last), {e contributive} (a new
    token crossed it since insertion) or {e idle}.

    {b Representation.}  Three arrays parallel to the node's sorted
    neighbour row as of the last {!refresh}: the neighbour ids (the
    row itself), the round each edge's current presence run started,
    and a contributive flag per edge (a [Bytes.t]).  Nothing is sized
    by [n].

    {b Costs.}  With [d] the node's degree:
    - {!same_row} is an O(d) compare; {!refresh}, called only when
      it fails, is one O(d) merge walk of the old row against the
      new one.
    - {!mark_contributed} is an O(log d) binary search plus, when it
      sets a flag, one O(d) copy of the flags.
    - {!categorize_at} is O(1); {!mem} is O(log d).

    {b Persistence.}  Every operation that changes something returns
    a new value and mutates nothing it was given.  This is a hard
    contract, not a style: the engines snapshot a run's initial states
    with a shallow [Array.copy] for crash-restart, so in-place
    mutation would hand a restarted node a mutated "initial" state.
    The Reference engine shares the snapshot scheme, so the engine
    differential would not catch such a bug.  The row passed to
    {!refresh} is kept by reference: callers must not mutate it
    afterwards.  The engines pass the graph's own adjacency rows,
    which nobody mutates. *)

type t

type category = New | Idle | Contributive

val category_equal : category -> category -> bool

val empty : t
(** No edges present. *)

val refresh : t -> round:int -> neighbors:Dynet.Node_id.t array -> t
(** Reconcile with this round's neighbour row (ascending): departed
    edges are forgotten (a re-insertion starts a fresh run), arrivals
    are stamped with [round], surviving edges keep their insertion
    round and contribution flag.  Always builds a new value: callers
    test {!same_row} first and keep the history (and the record that
    holds it) when the row is unchanged. *)

val same_row : t -> Dynet.Node_id.t array -> bool
(** Whether the row's contents equal the given array, O(d): a
    content compare, so a fresh copy of an unchanged row counts as
    unchanged. *)

val mem : t -> Dynet.Node_id.t -> bool
(** Whether the edge to the given neighbour is in the current row. *)

val mark_contributed : t -> Dynet.Node_id.t -> t
(** Record that a new token crossed the edge to the given neighbour.
    No-op (returns the input) if the edge is not currently present or
    already marked. *)

val categorize_at : t -> round:int -> int -> category
(** Category of the edge at the given index of the current row — the
    same index the neighbour has in the array last passed to
    {!refresh}. *)
