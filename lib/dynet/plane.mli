(** Contiguous word planes: [rows] packed bitsets of [width] bits in
    one flat Bigarray of native ints, node-major — the struct-of-arrays
    token storage for the mega-scale engine.

    The packing is {!Bitset}'s (62 usable bits per word), so plane rows
    and [Bitset] values exchange whole words without re-shifting.  Rows
    occupy whole words and never share a word with a neighboring row:
    Domains writing to disjoint row ranges never touch the same memory
    word, which is what makes contiguous node-range sharding sound.

    Bigarray int elements are unboxed, so every accessor here is
    allocation-free; only {!create} and {!extract_row} allocate. *)

type t

val create : rows:int -> width:int -> t
(** A zeroed plane.  @raise Invalid_argument on negative dimensions. *)

val mem : t -> int -> int -> bool
(** [mem t row bit].  Row and bit are range-checked. *)

val set : t -> int -> int -> unit
(** In-place insert, range-checked like {!mem}. *)

val unsafe_mem : t -> int -> int -> bool
(** Unchecked {!mem} for innermost loops whose row is already bounded
    by a shard range. *)

val unsafe_set : t -> int -> int -> unit
(** Unchecked {!set}, same contract as {!unsafe_mem}. *)

val row_popcount : t -> int -> int
val row_clear : t -> int -> unit

val load_row : t -> int -> Bitset.t -> unit
(** [load_row t row bs] overwrites row [row] with [bs]'s words.  The
    bitset capacity must equal the plane width.  Copies; retains no
    reference to [bs]. *)

val extract_row : t -> int -> Bitset.t
(** A {e detached} copy of a row as a fresh bitset.  Never a view:
    aliasing a mutable plane row into a copy-on-write [Bitset] (as the
    protocols' persistent state masks) would let later in-place round
    updates rewrite supposedly immutable values — the word-plane
    boundary is always crossed by copying. *)

val union_row_into : t -> src:int -> dst:int -> unit
(** In-place word-wide union of row [src] into row [dst]. *)
