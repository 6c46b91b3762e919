(** The versioned NDJSON trace format — the at-rest form of a workload.

    The paper's oblivious adversaries (Definition 1.2) are
    pre-committed round-by-round edge sequences, so every workload this
    library studies is, semantically, a {e trace}.  This module gives
    that semantics a file format, so workloads can be saved, diffed,
    shipped to CI, and sourced from real dynamic-network data instead
    of living only as in-process {!Adversary.Schedule.t} closures.

    A trace file is NDJSON ({!Obs.Json} documents, one per line):

    - line 1, the {e header}:
      [{"schema":"dynspread-trace/v1","n":N,"seed":S,"provenance":"..."}]
      ([seed] is optional — imported real-world traces have none);
    - one {e edge-delta record} per round, in round order starting at
      round 1: [{"round":r,"add":[[u,v],...],"del":[[u,v],...]}].

    Round [r]'s graph is the previous round's graph plus [add] minus
    [del]; round 1 is relative to the empty graph [G_0], so the [add]
    lists summed over a trace are exactly the paper's [TC(E)]
    (Definition 1.2).  Edge pairs are canonical ([0 <= u < v < n]) and
    strictly ascending, and every field is emitted in a fixed order, so
    encoding is byte-deterministic: two traces of the same schedule
    diff clean.

    The parser checks each pair once, as it reads it, and keeps the
    deltas as the packed keys [u * n + v] that {!Dynet.Graph.t} holds
    (one word per changed edge); a structural fault is a parse error
    that names its line and field.  Graphs are reconstructed on demand
    by {!fold_graphs} and {!Replay.schedule}, which keep only the
    current round's graph — large traces never need all their round
    graphs in memory at once.  What the parser cannot see (an add of
    a present edge, a del of an absent one) is found by replay, which
    raises {!Engine.Engine_error.Adversary_violation}.

    {b Versioning policy}: the schema name is
    [dynspread-trace/v<version>].  Readers reject any other version;
    additive, compatible header fields may appear within a version and
    are ignored by older readers of the same version.  A breaking
    change (new record kinds, changed delta semantics) bumps the
    version. *)

type header = {
  version : int;
  n : int;  (** Node count; all endpoints are in [0 .. n-1]. *)
  seed : int option;
      (** The generating schedule's seed, when there was one. *)
  provenance : string;
      (** Where the trace came from, e.g. ["oblivious:tree-rotator"] or
          ["import:office_contacts.csv"].  Free-form, but must be
          deterministic (no timestamps) so recordings diff clean. *)
}

type delta = {
  add : int array;  (** Strictly ascending packed keys [u * n + v]. *)
  del : int array;  (** Strictly ascending packed keys [u * n + v]. *)
}
(** The edge delta of round [i + 1], where [i] is its index in
    [deltas]. *)

type t = { header : header; deltas : delta array }

val version : int
(** The schema version this build writes and reads (1). *)

val schema_name : string
(** ["dynspread-trace/v1"]. *)

val rounds : t -> int
(** Number of recorded rounds. *)

val make : ?seed:int -> ?provenance:string -> n:int -> delta list -> t
(** Assemble a trace from already-canonical deltas, round 1 first
    (provenance defaults to ["unknown"]).  Use {!Record} to build
    deltas from graphs. *)

val delta_of_graphs : prev:Dynet.Graph.t -> cur:Dynet.Graph.t -> delta
(** The edge delta between two consecutive round graphs — what
    {!Record} accumulates incrementally.  One merge walk over the
    graphs' sorted keys.
    @raise Invalid_argument if the node counts differ. *)

val of_graphs : ?seed:int -> ?provenance:string -> n:int ->
  Dynet.Graph.t list -> t
(** The trace whose round-[r] graph is the [r]-th list element
    (round 1 first): each delta is computed against the previous graph
    (round 1 against the empty graph).
    @raise Invalid_argument if a graph's node count is not [n]. *)

val next_graph : round:int -> Dynet.Graph.t -> delta -> Dynet.Graph.t
(** One replay step: the graph after applying round [round]'s delta to
    the previous round's graph.  One merge walk of the previous keys
    with the adds, then one walk that drops the dels, straight into
    {!Dynet.Graph.make}.  An empty delta returns the previous graph
    itself.
    @raise Engine.Engine_error.Adversary_violation on an add of a
    present edge or a del of an absent one (adds before dels); the
    message names the round and the edge.
    @raise Invalid_argument from {!Dynet.Graph.make} if the merged
    keys are not strictly ascending canonical keys.  {!of_string} and
    {!delta_of_graphs} make deltas that are; keys out of order in a
    delta built by hand may also be misreported as a violation. *)

val fold_graphs :
  t -> init:'a -> f:('a -> round:int -> Dynet.Graph.t -> 'a) -> 'a
(** Replay the deltas, calling [f] with each round's reconstructed
    graph in round order.  One graph is live at a time.
    @raise Engine.Engine_error.Adversary_violation as {!next_graph}
    does — run {!validate} first for a [result]-typed answer. *)

(** {2 Encoding / decoding} *)

val to_string : t -> string
(** The NDJSON document, trailing newline included.
    Byte-deterministic. *)

val write : out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Strict parse.  [Error] messages carry the 1-based line number and
    what was expected — schema mismatches, missing fields, non-array
    pairs, non-contiguous round numbers, endpoints out of range,
    self-loops, [u > v], and pairs out of order or repeated all name
    their line (and field). *)

val load : string -> (t, string) result
(** [of_string] on a file's contents; [Error] on IO failure too. *)

val save : string -> t -> (unit, string) result

(** {2 Validation} *)

type stats = {
  stat_rounds : int;
  stat_tc : int;  (** Sum of [add] lengths — [TC(E)] of the trace. *)
  stat_max_edges : int;  (** Densest round's edge count. *)
  first_disconnected : int option;
      (** Lowest round whose graph is disconnected, if any.  The
          engines enforce per-round connectivity (the paper's model
          assumption), so a trace with a disconnected round will abort
          a run; {!Contacts.import}'s repair pass exists to prevent
          this for real-world data. *)
}

val validate : t -> (stats, string) result
(** Replay the trace ({!fold_graphs}): [Error] carries the message of
    the first {!Engine.Engine_error.Adversary_violation} (an add of a
    present edge, a del of an absent one), the same text a run of the
    trace stops with.  On success the returned stats summarize the
    replayed trace. *)
