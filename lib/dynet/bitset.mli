(** Packed bitsets over the index range [0 .. capacity-1].

    The representation is a flat [int array] with 62 usable bits per
    word, so membership, insertion, union, difference and population
    count all run word-at-a-time — this is the fast-path replacement
    for the [Set.Make]-based structures in the per-round hot loops of
    the engines and protocols.

    Two usage styles are supported:

    - {b mutable}: [set]/[unset]/[clear] update in place.  Used for
      transient per-round scratch state owned by a single loop.
    - {b persistent (copy-on-write)}: [add]/[remove] return a new
      bitset sharing nothing with the input (or the input itself when
      the operation is a no-op).  Used inside the protocols' functional
      state records, which the engines snapshot with [Array.copy] for
      crash-restart — shared mutation there would corrupt snapshots. *)

type t

val create : int -> t
(** [create cap] is the empty bitset with capacity [cap] (indices
    [0 .. cap-1]).  @raise Invalid_argument if [cap < 0]. *)

val capacity : t -> int
val copy : t -> t

val mem : t -> int -> bool
(** O(1).  Indices outside [0 .. capacity-1] are never members. *)

val set : t -> int -> unit
(** In-place insert.  @raise Invalid_argument if out of range. *)

val unset : t -> int -> unit
(** In-place remove. *)

val clear : t -> unit
(** In-place removal of every element. *)

val add : int -> t -> t
(** Persistent insert: returns the input unchanged when the bit is
    already set, otherwise a fresh copy with the bit set. *)

val remove : int -> t -> t
(** Persistent remove, same sharing contract as {!add}. *)

val cardinal : t -> int
(** Population count, word-at-a-time. *)

val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] is in [b].
    Capacities must match for {!equal}, {!subset} and the binary
    operations below. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val union_into : into:t -> t -> unit
(** In-place union: [union_into ~into b] ORs [b] into [into],
    word-at-a-time, allocating nothing.  Padding bits of the final
    word (positions [>= capacity]) are kept clear even if the operand
    words carry junk there, so a bitset that shares word granularity
    with a {!Plane} row never smuggles out-of-range bits across the
    word-plane boundary.  Capacities must match. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s contents with [src]'s, in place.  Capacities
    must match. *)

val bpw : int
(** Usable bits per word (62: every word is a non-negative OCaml
    immediate). *)

val load_word : t -> int -> int
(** [load_word t i] is backing word [i] — the memberships of indices
    [i*bpw .. i*bpw+bpw-1] as a packed non-negative int.  Raw word
    access exists for bulk transfer to and from {!Plane} rows; indices
    are unchecked beyond the array bound. *)

val store_word : t -> int -> int -> unit
(** [store_word t i w] overwrites backing word [i].  Bits of the last
    word at positions [>= capacity] are masked off, preserving the
    global invariant that padding stays clear (see {!union_into}). *)

val iter : (int -> unit) -> t -> unit
(** Elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
val of_array : int -> int array -> t
(** [of_array cap a] builds a bitset of capacity [cap] containing the
    elements of [a]. *)

val next_set : t -> int -> int
(** [next_set t i] is the least [j >= i] with [mem t j], or
    [capacity t] if none. *)

val next_clear : t -> int -> int
(** [next_clear t i] is the least [j >= i] with [not (mem t j)], or
    [capacity t] if every index from [i] up is set. *)

val pp : Format.formatter -> t -> unit
