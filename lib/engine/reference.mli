(** The pseudocode-faithful reference engine.

    A deliberately naive, allocation-happy implementation of both
    engines, written the way the paper's Section-1.3 model and
    algorithm pseudocode read: per-round structures are fresh lists,
    neighbor membership is a linear scan, the one-token-per-directed-
    edge bandwidth constraint is a scanned list of crossed edges, the
    global progress sum is recomputed from scratch, and the timeline is
    appended at the back — no bitsets, no cached counts, no
    binary searches, no reverse-accumulation tricks.

    Its value is as the semantic baseline of the differential fuzzer
    ([lib/fuzz]): on every generated case, {!Default} (the optimized
    fast path) and this engine must produce {e bit-identical} run
    reports and drive the context's [on_graph] with identical committed round-graph
    sequences.  An optimization that drifts from the model shows up as
    a mismatch with a shrunk counterexample, not as silent skew in
    experiment data.

    What is intentionally shared with {!Default}, because it is
    observable contract rather than implementation: the order in which
    the fault plan's random stream is consumed, the ledger entries and
    their order, the {!Obs.Trace} event stream, the profiling span
    tree, and the {!Check} invariants. *)

val name : string
(** ["reference"]. *)

module Broadcast : Engine_sig.BROADCAST
module Unicast : Engine_sig.UNICAST

val engine : (module Engine_sig.ENGINE)
(** First-class packaging for engine-parametric call sites. *)
