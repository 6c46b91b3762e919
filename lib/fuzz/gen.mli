(** Seed-deterministic case generation.

    [case ~seed ~id] is a pure function of its two arguments: the
    campaign seed and the case index map through {!case_seed} to a
    private RNG stream, so a campaign is reproducible case-by-case —
    re-running index 17 alone yields the same case as running the full
    batch, and the shrinker can re-execute a case without touching any
    generator state.

    Generated cases keep every round graph connected (the model's
    standing assumption, checked by {!Case.connected}): base
    topologies come from {!Dynet.Graph_gen}'s connected families and
    local churn only removes edges whose loss keeps the graph
    connected.  Schedules mix stability (hold), churn bursts
    (wholesale redraw — including barbell near-partitions and clique
    heals), and local edge churn.  Fault plans appear on roughly a
    third of cases with rates drawn in hundredths, so specs survive
    the JSON round-trip bit-for-bit. *)

val case_seed : seed:int -> id:int -> int
(** The derived per-case seed (non-negative; spacing [1_000_003]). *)

val case : seed:int -> id:int -> Case.t
(** The [id]-th case of campaign [seed]: [2 <= n <= 10],
    [1 <= k <= 6], algorithm uniform over the three differential
    algorithms, [1 <= s <= min n k] for multi-source, 1–12 round
    graphs, round cap 8–127. *)

val engine_pair :
  seed:int ->
  id:int ->
  (module Engine.Engine_sig.ENGINE) * (module Engine.Engine_sig.ENGINE)
(** The differential pairing for the [id]-th case, drawn from a salted
    stream of the same per-case seed (so the pairing dimension never
    shifts case inputs): the [Reference] oracle against [Soa] at a
    shard count of 1, 2 or 4, each a third of draws.  Campaigns that
    pass no explicit engines use this. *)
