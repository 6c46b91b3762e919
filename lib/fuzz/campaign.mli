(** A fuzz campaign: generate, diff, shrink, save.

    [run ~runs ~seed ()] feeds cases [0 .. runs-1] of campaign [seed]
    (see {!Gen}) through two engines and collects every divergence,
    each minimized by {!Shrink} against the predicate "the engines
    still diverge".  The [a] side is always the pseudocode
    {!Engine.Reference}; unless [?engine_b] pins the [b] side, it is a
    generated per-case dimension ({!Gen.engine_pair}): the production
    {!Engine.Soa} at shard counts 1/2/4.

    Cases run through {!Analysis.Sweep.map_span} ([?jobs]), one case
    per point: each case (and its shrink, which happens inside the
    same worker) depends only on [(seed, id)], so results are
    bit-identical whatever the parallelism, and mismatches come back
    in case order.  [?metrics] receives counters [fuzz/cases],
    [fuzz/mismatches] and [fuzz/shrink_steps] after the sweep joins;
    [?prof] profiles the sweep with one [point] span per case.

    [save_corpus] writes each shrunk counterexample as a replayable
    pair — [case-<seed>.trace.jsonl] ([dynspread-trace/v1]) plus
    [case-<seed>.scenario.json] ([dynspread-scenario/v1] with a trace
    env pointing at the sibling file) — so
    [dynspread scenario run <spec>] and the regression corpus test
    reproduce the divergence directly. *)

type mismatch = {
  case : Case.t;  (** As generated. *)
  shrunk : Case.t;  (** After {!Shrink.minimize}. *)
  detail : string;  (** {!Diff.divergence}'s description. *)
  shrink_stats : Shrink.stats;
}

type outcome = { runs : int; mismatches : mismatch list }

val run :
  ?engine_b:(module Engine.Engine_sig.ENGINE) ->
  ?flooding_b:(module Diff.FLOODING) ->
  ?jobs:int ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Span.t ->
  ?shrink_budget:int ->
  runs:int ->
  seed:int ->
  unit ->
  outcome
(** [?flooding_b] substitutes the flooding implementation on the [b]
    side (the mutation smoke test); [?shrink_budget] caps predicate
    evaluations per mismatch (default: {!Shrink.minimize}'s). *)

val save_corpus : dir:string -> outcome -> string list
(** Write every mismatch's shrunk pair under [dir] (created if
    needed), returning the scenario-file basenames written.  Writes
    nothing (and creates nothing) on a clean outcome.
    @raise Sys_error on filesystem failure. *)
