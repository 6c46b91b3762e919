(** Hierarchical profiling spans with wall-clock, allocation deltas,
    and counters, plus flat wall-clock timing of single regions.

    A [Span.t] profiler records a {e tree} of nested spans — rounds
    containing phases containing engine sub-steps — each carrying its
    wall-clock, its allocated words (from {!Gc.quick_stat} deltas:
    [minor + major - promoted]), and optional named counters.  For one
    flat duration per region, {!time} and {!observe_span} need no
    profiler.

    The clock is [Unix.gettimeofday] — the best no-new-dependency
    approximation of a monotonic clock available here (OCaml's stdlib
    has none).  Durations are clamped to be non-negative, so an NTP
    step cannot produce negative readings; sub-microsecond readings
    are below its resolution.

    {2 Cost discipline}

    [null] is a plain constructor, so with profiling off the engines
    pay exactly one hoisted [is_null] test per instrumentation site —
    the same zero-cost pattern as {!Sink.null}.  An active profiler
    appends one record per span into a flat growable array (parent
    links are indices); nothing is re-walked until export.  Each lane
    stores at most [limit] spans (default 500k); beyond that, spans
    are counted in {!dropped} rather than stored, and the Chrome
    export surfaces the drop count in [otherData] so a truncated
    profile is never mistaken for a complete one.

    {2 Lanes and domains}

    A profiler is single-domain, like {!Metrics}.  Parallel code gives
    each domain its own lane via {!worker} (sharing the creator's
    epoch so timestamps align), and folds the lanes back with
    {!absorb} after [Domain.join] — the sanctioned pattern used by
    [Analysis.Sweep]. *)

type t

val null : t
(** The no-op profiler: every operation returns immediately. *)

val is_null : t -> bool

val create : ?limit:int -> unit -> t
(** A fresh active profiler whose epoch is the call instant, exporting
    its own spans as lane ["main"].  [limit] bounds stored spans per
    lane (default 500_000). *)

val enter : t -> ?cat:string -> string -> unit
(** Open a span as a child of the innermost open span (or as a root).
    [cat] is the Chrome-trace category (default ["span"]). *)

val leave : t -> unit
(** Close the innermost open span, recording duration and allocation
    delta.  An unmatched [leave] is ignored. *)

val with_span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [enter]/[leave] around a thunk; the span closes even on raise.  On
    {!null} the thunk runs with zero overhead. *)

val add_counter : t -> string -> float -> unit
(** Add [v] to a named counter on the innermost open span (summing
    across calls); a no-op when no span is open. *)

val worker : t -> tid:int -> lane:string -> t
(** A fresh lane sharing this profiler's epoch and limit, for use by
    exactly one domain.  [worker null] is [null].  The caller must
    {!absorb} it after the domain joins for it to appear in exports. *)

val absorb : t -> from:t -> unit
(** Fold a joined {!worker} lane (and anything it absorbed) into this
    profiler.  Call only after the owning domain has joined.  No-op if
    either side is {!null}. *)

val span_count : t -> int
(** Stored spans across all lanes (0 for {!null}). *)

val dropped : t -> int
(** Spans dropped to the per-lane limit, across all lanes. *)

val to_chrome_json : t -> Json.t
(** The profile as Chrome trace-event JSON (loadable by Perfetto /
    [chrome://tracing]): one ["X"] complete event per span with
    [ts]/[dur] in µs since the epoch, one lane per [tid] named by a
    ["thread_name"] metadata event, allocation and counters in
    [args], and totals (including {!dropped}) in [otherData].  Spans
    still open are closed as of the export instant. *)

val to_folded : t -> string
(** The profile as folded-stacks text ([lane;a;b self_µs] per line,
    sorted), the input format of flamegraph tooling.  Self time is a
    span's duration minus its children's; non-positive self times are
    elided. *)

type format = Chrome | Folded

val format_of_path : string -> format
(** [Folded] for [.folded] / [.txt] paths, [Chrome] otherwise. *)

val write : t -> out_channel -> format -> unit
(** Write {!to_chrome_json} (one NDJSON-style line) or {!to_folded} to
    a channel.  Does not flush or close; the channel is the caller's. *)

(** {2 Flat timing} *)

val now_s : unit -> float
(** Current wall-clock in seconds (arbitrary epoch; use differences). *)

val time : (unit -> 'a) -> 'a * float
(** Run a thunk, returning its result and elapsed seconds. *)

val observe_span : ?metrics:Metrics.t -> name:string -> (unit -> 'a) -> 'a
(** Run a thunk and record its elapsed seconds into [metrics] (when
    given) under [name] — also if the thunk raises — so p50/p95/p99
    per-region latencies fall out of {!Metrics.summary}. *)
