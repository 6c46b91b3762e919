(** The mega-scale struct-of-arrays engine.

    A third {!Engine_sig.ENGINE} implementation built for [n = 10^5]:
    token masks live in one contiguous {!Dynet.Plane} (node-major
    Bigarray word plane), adjacency in a delta-gated {!Dynet.Csr}, and
    the round loop shards node space across a {!Shard_pool} of
    long-lived domains with a barrier per phase.

    Strategy per run:

    - broadcast protocols advertising the
      {!Runner_broadcast.plane_spec} capability (and no fault plan) run
      on the plane kernel — allocation-free in steady state, sharded;
    - every unicast run, with or without a fault plan, runs the
      shared production loop {!Runner_unicast.run_sharded} over the
      shard spans: [P.send]/[P.receive] fan out over the pool, with all
      accounting and fault delivery replayed sequentially in node
      order between the barriers;
    - fault-injected broadcast runs and plane-less broadcast protocols
      delegate to the sequential {!Runner_broadcast} unchanged.

    Determinism: workers own contiguous node ranges and write only
    their own plane rows / array slots; cross-shard
    merges happen in ascending shard order.  Reports are bit-identical
    to {!Default} at any shard count — the property the differential
    fuzz harness ({!Fuzz.Diff}) enforces. *)

val name : string
(** ["soa"]. *)

val make : ?shards:int -> ?boundary_bug:bool -> unit -> (module Engine_sig.ENGINE)
(** An engine instance.  [shards] (default 1) is the number of worker
    domains sharing the round work; the engine's [name] is ["soa"] for
    one shard and ["soa-N"] otherwise.  @raise Invalid_argument if
    [shards < 1].

    [boundary_bug] (default false) is the {e seeded} off-by-one used by
    the fuzz harness's mutation smoke test: shard 1's range starts one
    node late, so with two or more (non-empty) shards one node on the
    0/1 boundary is silently skipped.  Never set it outside tests. *)

val engine : ?shards:int -> unit -> (module Engine_sig.ENGINE)
(** {!make} without the test-only knob. *)

val default_engine : (module Engine_sig.ENGINE)
(** [make ()] — single-shard SoA. *)
