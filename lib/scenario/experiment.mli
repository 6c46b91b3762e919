(** The experiment tables whose every row is one {!Spec.t} point.

    E4, E6, E9, E15, E16 and E17 compare the paper's algorithms on
    identical oblivious sequences.  Each builds its point specs —
    algorithm, env, [(n, k, s)], sigma, and its own seed arithmetic
    written into [seed] and the fault seed — and runs every point once
    through {!Runner.execute}, the same wiring as [dynspread run],
    [scenario run] and [submit].  The points run through
    {!Analysis.Sweep.map_span}, and a shape check (stated in each
    table's notes) reads the outcomes.  The other tables stay in
    {!Analysis.Experiments}: they need knobs no {!Spec.t} carries
    (Algorithm 2's [const_f]) or run protocols outside it.

    One-per-node is [s = k = n]: a multi-source instance with every
    node a source is exactly the n-gossip instance.

    Every table is deterministic in [seed].  With [?metrics], its
    wall-clock lands in an ["experiment/<id>"] histogram. *)

val single_source :
  ?jobs:int -> ?metrics:Obs.Metrics.t -> ?prof:Obs.Span.t -> seed:int ->
  unit -> Analysis.Table.t
(** E4+E5 — Theorems 3.1/3.4: Single-Source-Unicast messages vs the
    O(n² + nk) + TC budget and rounds vs the O(nk) bound, at n = 16,
    24, 32 and k = n/2, n, 4n, across four environments including the
    adaptive request-cutter; environment [i] runs at seed
    [seed + n + i].  The 36 points fan out over [?jobs] domains; with
    [?metrics], each point's wall-clock lands in ["sweep/e4-point"]. *)

val multi_source : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Analysis.Table.t
(** E6 — Theorems 3.5/3.6: Multi-Source-Unicast (n = 24, k = 96) vs
    the O(n²s + nk) + TC budget as the source count s grows, on a
    3-edge-stable rotator at seed [seed + 2s]. *)

val time_vs_messages : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Analysis.Table.t
(** E9 — the Section 1.2 contrast: flooding, Multi-Source-Unicast and
    Algorithm 2 on one n-gossip instance (n = 24) and one dense
    fresh-random sequence, all at seed [seed + 1]: the time-optimal
    strategy is not message-optimal and vice versa. *)

val robustness_loss : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Analysis.Table.t
(** E15 — beyond the paper (robustness): the message-loss tax.
    Single-Source-Unicast (n = k = 16) on a 3-edge-stable rotator at
    seed [seed + 1] under a loss sweep (0 to 0.8, fault seed
    [seed + ⌊1000·loss⌋]), bare vs wrapped in {!Gossip.Reliable}.  The
    bare protocol degrades to a [Partial] coverage report; the wrapper
    completes at every rate up to 0.2, paying a message inflation
    (acks + retransmissions) that grows with the loss rate. *)

val robustness_crash : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Analysis.Table.t
(** E16 — beyond the paper (robustness): the crash-restart tax.
    Phased flooding (n = k = 16) on a 3-edge-stable rotator at seed
    [seed + 2] under node crash faults (rates 0 to 0.02, fault seed
    [seed + 17 + ⌊10000·crash⌋]) with full state loss (restart
    p = 0.25): restarted nodes are re-taught, so crashes buy
    round/message inflation — and at worst a graceful [Partial] or
    [Aborted] verdict — never wrong answers. *)

val sample_contacts : string
(** E17's workload: one working morning of office badge-proximity
    contacts, [t,u,v,duration] at 20-second resolution, with the
    normalization cases real files exhibit (label gaps, duplicates, a
    self-loop, an out-of-order row, two sparse windows that need
    connectivity repair).  Byte-identical to
    [examples/traces/office_contacts.csv].  *)

val real_trace :
  ?jobs:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Analysis.Table.t
(** E17 — a real-format workload through the full pipeline:
    {!sample_contacts} is imported with {!Contacts.import} and replayed
    as a looped trace env (the {!Runner.stall_window} armed), and
    phased flooding, Multi-Source-Unicast (Theorem 3.6) and Algorithm 2
    run on it at [seed].  The instance is a moderate multi-source
    regime ([k = n], four sources): with many more sources the
    deterministic min-source request rule can limit-cycle against the
    periodic schedule.  Shape check: every algorithm completes,
    flooding needs the fewest rounds (the time-optimal yardstick of
    Section 1.2), and Algorithm 2 spends fewer messages than plain
    Multi-Source-Unicast (Theorem 3.8's direction).  The notes carry
    the importer's honesty counters (dropped self-loops, collapsed
    duplicates, repaired edges). *)

val all : ?jobs:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Analysis.Table.t list
(** The six tables in index order; [?jobs] is forwarded to E4 and
    E17. *)
