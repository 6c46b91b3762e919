(** Persistent Domain pool for intra-run node-space sharding.

    {!Analysis.Sweep} parallelizes at run granularity; this pool is
    the intra-run analogue used by the {!Soa} engine: node space is
    split into contiguous spans, one long-lived worker domain per
    extra shard, and every engine phase is one {!run} call — a
    broadcast-wakeup / counted-barrier round trip over a single mutex,
    cheap enough to fire twice per simulated round.

    Determinism contract, mirrored from [Sweep]: a job may write only
    state owned by its span (its rows of a {!Dynet.Plane}, its indices
    of per-node arrays, its own staging buffers), so phase outcomes
    are independent of worker interleaving; cross-shard merging
    happens in the caller between phases, in ascending shard order.
    Worker exceptions are re-raised on the caller after the barrier,
    lowest shard first — also interleaving-independent.

    With one shard the pool owns no domains and {!run} is a direct
    call, so the sequential engine pays nothing for the seam. *)

type t

type job = shard:int -> lo:int -> hi:int -> unit

val ranges : n:int -> shards:int -> (int * int) array
(** Contiguous spans [[lo, hi)] covering [0 .. n-1], one per shard,
    each [ceil (n / shards)] nodes long except the clamped trailing
    ones, which may be empty.  Spans are not aligned to
    {!Dynet.Bitset.bpw}: two shards may share a word of a node-indexed
    bit plane, so the plane engine gives each shard its own staging
    row instead of writing shared rows from workers.
    @raise Invalid_argument if [shards < 1]. *)

val create : spans:(int * int) array -> t
(** Spawn [Array.length spans - 1] worker domains (none for a single
    span).  Shard 0 always runs on the calling domain. *)

val shards : t -> int
val span : t -> int -> int * int

val run : t -> job -> unit
(** Execute the job on every shard and wait for all of them (the
    barrier).  Callers should hoist the closure: the round loop passes
    the same preallocated job each time, keeping the barrier
    allocation-free.  Re-raises the lowest-shard worker exception, if
    any, after all shards finish. *)

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent only for single-shard
    pools; call exactly once otherwise. *)

val with_pool : spans:(int * int) array -> (t -> 'a) -> 'a
(** [create], run the callback, and always [shutdown] (also on
    exceptions). *)
