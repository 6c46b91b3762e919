(** The paper's evaluation artifacts, regenerated.

    One function per experiment in DESIGN.md's index (E1–E9); each runs
    the relevant protocol × adversary sweeps and renders a {!Table.t}
    whose rows mirror what the paper states.  Absolute numbers are
    simulator-scale; the {e shape} — who wins, growth exponents,
    crossovers, bound ratios — is the reproduction target, and each
    table's notes state the shape check and whether the data passes it.

    All experiments are deterministic in [seed].

    Every experiment accepts an optional [?metrics] registry: its
    wall-clock is then recorded as an ["experiment/<id>"] histogram
    sample (via {!Obs.Span.observe_span}), so callers — the bench
    harness, the CLI's [experiments --timings] — can report where
    simulator time goes.

    The grid-shaped sweeps (E1, E4, E7) additionally accept [?jobs]
    and fan their points out over OCaml 5 domains via {!Sweep.map};
    every point derives its RNG streams from the seed and the point
    coordinates alone and results merge in input order, so the tables
    (message counts included) are bit-identical for every [jobs]
    value.  With [?metrics], each point's wall-clock also lands in a
    ["sweep/<id>-point"] histogram. *)

val table1 :
  ?ns:int list -> ?jobs:int -> ?metrics:Obs.Metrics.t -> ?prof:Obs.Span.t ->
  seed:int -> unit -> Table.t
(** E1 — Table 1: amortized message complexity of Algorithm 2 across
    the paper's four k-regimes, vs. plain Multi-Source-Unicast and the
    paper's closed-form bound.  Sources: every node ([s = n], the
    many-source regime Table 1 assumes). *)

val lower_bound : ?ns:int list -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E2 — Theorem 2.3: amortized local broadcasts of flooding and the
    greedy heuristics against the strongly adaptive adversary, between
    the [n²/log²n] floor and the [n²] flooding ceiling. *)

val free_edges : ?n:int -> ?trials:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E3 — Figure 1 / Lemmas 2.1–2.2: structure of the free-edge graph
    as a function of the number of broadcasting nodes. *)

val single_source :
  ?ns:int list -> ?jobs:int -> ?metrics:Obs.Metrics.t -> ?prof:Obs.Span.t ->
  seed:int -> unit -> Table.t
(** E4+E5 — Theorems 3.1/3.4: Single-Source-Unicast messages vs the
    O(n² + nk) + TC budget and rounds vs the O(nk) bound, across
    environments including the adaptive request-cutter. *)

val multi_source : ?n:int -> ?k:int -> ?ss:int list -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E6 — Theorems 3.5/3.6: Multi-Source-Unicast vs the O(n²s + nk) +
    TC budget as the source count grows. *)

val rw_scaling :
  ?n:int -> ?ks:int list -> ?jobs:int -> ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Span.t -> seed:int -> unit -> Table.t
(** E7 — Theorem 3.8: total and amortized messages of Algorithm 2 as k
    grows at fixed n; reports the measured log-log growth exponents
    against the paper's 1/4 (total) and −3/4 (amortized). *)

val static_baseline : ?ns:int list -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E8 — the intro's static-network yardstick: spanning-tree
    dissemination at O(n²/k + n) amortized. *)

val time_vs_messages : ?n:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E9 — the Section 1.2 contrast: on identical instances, the
    time-optimal strategy (flooding) is not message-optimal and vice
    versa. *)

val ablation : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E10 — ablation of Algorithm 1's design choices (n = 20, k = 40): the paper's
    new > idle > contributive request priority (Lemmas 3.2/3.3) and its
    pending-request deduplication, plus the unstructured random-push
    baseline, all on identical instances and environments. *)

val rw_tradeoff : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E11 — the optimization step inside Theorem 3.8 (n = 32, k = 128): sweeping the
    center density f trades walk cost (fewer centers, longer walks, the
    kL term) against scatter cost (more centers, more per-source
    announcements, the f n^2 term); the paper picks f to balance them. *)

val coding_gap : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E12 — the token-forwarding barrier (Section 1.2): on identical
    n-gossip instances (n = 12, 16, 24, 32), network-coding gossip completes in ~O(n + k)
    rounds where phased flooding needs ~nk — the round gap that
    motivates restricting the lower bounds to token-forwarding
    algorithms (coded packets carry k-bit coefficient vectors, far
    beyond the O(log n)-bit token-forwarding message budget). *)

val environments : ?n:int -> ?rounds:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E0 — not a paper artifact but the context for reading all the
    others: structural and churn characteristics of every oblivious
    adversary family (density, clustering, distances, TC per round,
    turnover), measured over a committed prefix. *)

val leader_election : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E13 — beyond the paper (its Section-4 program): leader election
    under the adversary-competitive measure, at n = 16, 32, 64.  Sends decompose into
    champion improvements (bounded regardless of churn) and per-edge
    catch-ups (bounded by 2·TC), so the competitive cost stays small
    however hard the topology churns. *)

val adaptivity : ?n:int -> ?budget:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E14 — the adversary hierarchy of Section 1.3 (and footnote 4):
    oblivious vs weakly adaptive vs strongly adaptive, measured as the
    progress (token learnings) each allows an unstructured broadcaster
    within a fixed round budget.  More adaptivity, less progress. *)

val robustness_loss : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E15 — beyond the paper (robustness): the message-loss tax.
    Single-Source-Unicast (n = k = 16) on a 3-edge-stable rotator
    under a {!Faults.Plan} loss sweep (0 to 0.8), bare vs wrapped in
    {!Gossip.Reliable}.  The bare protocol degrades to a [Partial]
    coverage report; the wrapper completes at every swept rate, paying
    a message inflation (acks + retransmissions) that grows with the
    loss rate. *)

val robustness_crash : ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t
(** E16 — beyond the paper (robustness): the crash-restart tax.
    Phased flooding (n = k = 16) under node crash faults (rates 0 to
    0.02) with full state loss (restart p = 0.25): restarted nodes are
    re-taught, so crashes buy round/message inflation — and at worst a
    graceful [Partial] or [Aborted] verdict — never wrong answers. *)

val mega :
  ?ns:int list -> ?metrics:Obs.Metrics.t -> ?prof:Obs.Span.t -> seed:int ->
  unit -> Table.t
(** E18 — beyond the paper (scale): phased flooding on the
    struct-of-arrays engine ({!Engine.Soa}) at n up to 10^5, on a
    sparse regular-ish schedule re-drawn every 16 rounds, at k = 32.
    Each row runs the same committed environment on [soa], [soa-4] and
    the {!Engine.Reference} oracle and requires byte-identical run
    reports — the determinism contract at scale — alongside amortized
    messages per token and wall-clock per round.  The untimed oracle
    runs first and fills the lazily drawn schedule, so both timed
    columns replay the same warm schedule.  [?prof] receives every
    run's round/phase spans.  Defaults keep CI fast; the 10^5
    invocation is in EXPERIMENTS.md. *)

val all : ?jobs:int -> ?metrics:Obs.Metrics.t -> seed:int -> unit -> Table.t list
(** Every experiment at its default size, in index order ([mega] at a
    reduced [ns] so the full sweep stays laptop-fast); [?jobs] is
    forwarded to the sweep-parallel ones (E1, E4, E7). *)
