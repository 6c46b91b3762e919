(** One-call experiment runners: protocol × adversary × instance.

    This is the library's front door.  Each function wires a protocol
    to an adversary and an instance, picks sound default round caps
    (generous multiples of the paper's proved round bounds), runs the
    engine, and returns the {!Engine.Run_result.t} plus the final node
    states for inspection.

    Every runner is {e engine-parametric}: the optional [?engine]
    (default {!Engine.Soa.default_engine}, the production engine at
    one shard) selects the {!Engine.Engine_sig.ENGINE} implementation
    that executes the run — pass a sharded {!Engine.Soa.engine} to
    split node space over domains, or {!Engine.Reference.engine} for
    the pseudocode-faithful baseline the differential tests check
    against.  Reports are identical on every engine.

    Each runner takes, as labelled arguments, only the run-context
    settings some caller sets, and builds one {!Engine.Ctx.t} from
    them; {!Engine.Ctx} documents every setting and its zero-cost
    default.  Which runner takes which:

    - [?obs] (trace sink) and [?prof] (span profiler): the three
      workhorse runners ({!single_source}, {!multi_source},
      {!flooding}), the two reliable runners, {!flooding_vs_lower_bound}
      and {!oblivious_rw}.
    - [?faults]: the workhorse and reliable runners.  The lower-bound
      runners model a worst-case {e adversary}, not a faulty
      {e environment}, and take no fault plan.
    - [?stall_after] (which {!Scenario.Runner} arms on looped-trace
      environments): the workhorse runners.
    - [?cancel] (the serve scheduler's round-boundary cancellation):
      the workhorse runners, {!flooding_vs_lower_bound} and
      {!oblivious_rw}.
    - [?max_rounds]: every runner but {!random_push},
      {!leader_election} and {!coded_broadcast}, which run to fixed
      caps, and {!oblivious_rw}, which takes [?phase1_cap] instead.

    {!greedy_vs_lower_bound}, {!random_push}, {!leader_election} and
    {!coded_broadcast} run on the default context.  The recorder hook
    [on_graph] is set on {!Engine.Ctx.make} directly.  Every runner
    but the two lower-bound ones and {!oblivious_rw} declares its
    progress target to the engine, so capped runs come back as [Partial] with a coverage
    fraction instead of a bare failure bit. *)

type unicast_env =
  | Oblivious of Adversary.Schedule.t
      (** A pre-committed topology schedule. *)
  | Request_cutting of { seed : int; cut_prob : float }
      (** The adaptive {!Adversary.Request_cutter}. *)

val default_unicast_cap : n:int -> k:int -> int
(** [4nk + 4n² + 64]: well above the O(nk) bound of Theorems 3.4/3.6,
    with slack for unstable schedules. *)

val default_broadcast_cap : n:int -> k:int -> int
(** [nk + n + 64]: above flooding's nk guarantee. *)

val single_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  ?config:Single_source.config ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Single_source.state array
(** Algorithm 1 ([config] defaults to the paper's behaviour; the other
    configurations exist for the ablation bench).
    @raise Invalid_argument on multi-source instances. *)

val multi_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  ?source_order:Multi_source.source_order ->
  ?seed:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Multi_source.state array
(** [source_order] defaults to the paper's min-source rule; the random
    alternative exists for the ablation bench. *)

val reliable_single_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Single_source.state array * int
(** Algorithm 1 (paper configuration) wrapped in {!Reliable.Make}:
    completes under message
    loss / duplication / delay that the bare protocol does not
    survive.  Returns the {e inner} protocol states and the total
    retransmission count (also folded into the result's fault counts
    when a plan was active), counted round by round, so the
    retransmissions of a node that later crashes and restarts still
    count.  The default round cap is doubled — the
    wrapper trades rounds and messages for delivery guarantees.
    Each retransmission is traced as an [Obs.Trace.Fault
    {kind = "retransmit"}] event after its round's [Progress] event,
    in node order, identically on every engine. *)

val reliable_multi_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Multi_source.state array * int
(** Multi-Source-Unicast (min-source order) wrapped in
    {!Reliable.Make}; see
    {!reliable_single_source}. *)

val flooding :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?phase_len:int ->
  ?max_rounds:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Flooding.state array
(** Phased flooding against an oblivious schedule. *)

val flooding_vs_lower_bound :
  instance:Instance.t ->
  seed:int ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Flooding.state array * Adversary.Broadcast_lb.t
(** Phased flooding against the Section-2 strongly adaptive adversary.
    The returned adversary exposes its per-round history and the
    potential function for the E2/E3 experiments. *)

val greedy_vs_lower_bound :
  instance:Instance.t ->
  policy:Greedy_bcast.policy ->
  seed:int ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  unit ->
  Engine.Run_result.t * Greedy_bcast.state array * Adversary.Broadcast_lb.t
(** An unstructured broadcast heuristic against the same adversary.
    These generally do {e not} complete within any polynomial cap —
    the interesting output is messages spent per learning achieved. *)

val random_push :
  instance:Instance.t ->
  env:unicast_env ->
  seed:int ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  unit ->
  Engine.Run_result.t * Random_push.state array
(** The unstructured push baseline (ablation: what the
    request/response structure of Algorithm 1 buys), capped at four
    times {!default_unicast_cap}. *)

val leader_election :
  n:int ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  unit ->
  Engine.Run_result.t * Leader_election.state array
(** Max-id leader election under the adversary-competitive lens (the
    paper's Section-4 direction); stops when everyone agrees on the
    leader, or at the [8n² + 64]-round cap. *)

val coded_broadcast :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  seed:int ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  unit ->
  Engine.Run_result.t * Coded_bcast.state array
(** Network-coding gossip (not token-forwarding; see {!Coded_bcast}).
    Stops when every node has decoded all k tokens, or at
    {!default_broadcast_cap}. *)

val oblivious_rw :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  seed:int ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?const_f:float ->
  ?force_rw:bool ->
  ?phase1_cap:int ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  ?cancel:(unit -> bool) ->
  unit ->
  Oblivious_rw.result
(** Algorithm 2 (re-exported from {!Oblivious_rw.run}). *)
