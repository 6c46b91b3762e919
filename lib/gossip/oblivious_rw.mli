(** Algorithm 2: Oblivious-Multi-Source-Unicast (Section 3.2.2).

    Against an oblivious adversary, with many sources ([s] above the
    [n^{2/3} log^{5/3} n] threshold) and [k = o(n²)] tokens:

    + {e Phase 1} — every node self-elects as a {e center} with
      probability [f/n] (with [f = n^{1/2} k^{1/4} log^{5/4} n] up to a
      tunable constant); all tokens random-walk until they are owned by
      centers ({!Rw_phase}).
    + {e Phase 2} — the centers, acting as sources of the tokens they
      collected ({!Token.relabel}), run Multi-Source-Unicast.

    Below the source threshold the algorithm is just
    Multi-Source-Unicast (the paper's "Remark").

    Theorem 3.8: total messages O(n^{5/2} k^{1/4} log^{5/4} n), hence
    amortized O(n^{5/2} log^{5/4} n / k^{3/4}) — Table 1's subquadratic
    regime.

    Deviations needed to make the asymptotics executable (recorded in
    DESIGN.md): leading constants of [f] and [γ] are parameters;
    phase 1 ends early once every token has settled (the paper runs a
    fixed ℓ = Θ(k^{1/4} n^{5/2} log^{9/4} n) rounds, astronomically
    conservative at simulable sizes) and is round-capped; if sampling
    elects no center, one uniformly random center is forced (the paper
    has [f ≫ 1] so this is a measure-zero regime for it); if phase 1
    hits its cap, the nodes still holding tokens simply join the
    centers as phase-2 sources, so dissemination remains correct. *)

type result = {
  centers : int;  (** Number of elected centers. *)
  skipped_phase1 : bool;
      (** True when [s] was under the threshold and the run was plain
          Multi-Source-Unicast. *)
  phase1_rounds : int;
  phase1_settled : bool;  (** All tokens reached centers before the cap. *)
  phase2_rounds : int;
  completed : bool;  (** Every node got every token. *)
  cancelled : bool;
      (** The [cancel] poll fired: the phase it fired in ended the
          run, so a phase-1 cancel leaves [phase2_rounds = 0]. *)
  ledger : Engine.Ledger.t;  (** Merged over both phases. *)
  paper_messages : int;
      (** Total excluding [Center]-class announcements — the quantity
          Theorem 3.8 bounds. *)
}

val default_cap : n:int -> k:int -> int
(** [(50·n + 1000) + (4·n·k + 4·n²)]: {!run}'s default phase-1 and
    phase-2 caps together, the most rounds a default-capped run can
    take. *)

val run :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  seed:int ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?const_f:float ->
  ?const_gamma:float ->
  ?force_rw:bool ->
  ?phase1_cap:int ->
  ?phase2_cap:int ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  ?cancel:(unit -> bool) ->
  unit ->
  result
(** [const_f] and [const_gamma] (default 1.0) scale [f] and [γ];
    [force_rw] (default false) runs both phases even under the source
    threshold; caps default to [50·n + 1000] (phase 1) and
    [4·n·k + 4·n²] (phase 2), {!default_cap} in all.

    Both phases run on [engine] (default {!Engine.Soa.default_engine})
    and poll [cancel] (default: off) at their round boundaries; a
    cancelled phase ends the run.

    [obs] (default {!Obs.Sink.null}) is forwarded to both engine runs
    and additionally receives an [Obs.Trace.Phase] marker before each
    phase ([{name = "random-walk"}], then [{name = "multi-source"}]
    carrying the phase-1 round count; a below-threshold run emits only
    the multi-source marker).  Each phase's engine trace restarts its
    round numbering at 1 — the phase markers are the boundaries.

    [prof] (default {!Obs.Span.null}) is likewise forwarded to both
    engine runs; each phase's rounds additionally nest under an
    [algo-phase]-category span named [random-walk] or
    [multi-source]. *)

val to_report :
  name:string ->
  ?extra:(string * Obs.Json.t) list ->
  k:int ->
  result ->
  Obs.Report.t
(** The run report: the merged ledger over both phases' rounds (no
    timeline; a cancelled run's outcome carries the ledger's
    learnings), then [extra] (default none), then every field of the
    result and [amortized_per_token] ([paper_messages / k]). *)
