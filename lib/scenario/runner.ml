open Dynet.Ops

let builtin_schedule ~env ~sigma ~n ~seed =
  let stable s =
    if sigma <= 1 then s else Adversary.Schedule.stabilized ~sigma s
  in
  match (env : Spec.env) with
  | Trace _ | Request_cutter _ | Lower_bound -> None
  | Static { p } ->
      Some
        (Adversary.Oblivious.static
           (Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed) ~n ~p))
  | Tree_rotator -> Some (stable (Adversary.Oblivious.tree_rotator ~seed ~n))
  | Rewiring { extra; rate } ->
      Some
        (stable
           (Adversary.Oblivious.rewiring ~seed ~n
              ~extra:(Option.value extra ~default:n)
              ~rate))
  | Edge_markovian { p_up; p_down } ->
      Some
        (stable
           (Adversary.Oblivious.edge_markovian ~seed ~n
              ~p_up:(Option.value p_up ~default:(2. /. float_of_int n))
              ~p_down))
  | Fresh_random { p } -> Some (Adversary.Oblivious.fresh_random ~seed ~n ~p)

let resolve_trace ?(base_dir = ".") (spec : Spec.t) =
  match spec.env with
  | Spec.Trace { path } -> (
      let full =
        if Filename.is_relative path then Filename.concat base_dir path
        else path
      in
      match Trace_io.load full with
      | Error e -> Error e
      | Ok trace -> (
          match spec.n with
          | Some n when n <> trace.Trace_io.header.n ->
              Error
                (Printf.sprintf
                   "%s: spec says n = %d but the trace carries n = %d" full n
                   trace.Trace_io.header.n)
          | Some _ | None -> Ok (Some trace)))
  | _ -> Ok None

(* Livelock window for looped-trace replays: long enough that no
   live protocol can trip it — two full schedule periods AND two full
   flooding phase cycles (phase_len defaults to n, k phases, and
   flooding provably progresses at least once per phase cycle on
   connected rounds), with a small floor for degenerate instances —
   yet far below the unicast round cap of [4nk + 4n² + 64], so a
   deterministic protocol limit-cycling against the periodic schedule
   (the E17 [s >= 6] corner) stops with [Stalled] instead of spinning
   to the cap. *)
let stall_window ~period ~n ~k = max 64 (max (2 * period) (2 * n * k))

let fault_plan (faults : Spec.faults option) ~seed =
  match faults with
  | None -> Faults.Plan.none
  | Some f ->
      Faults.Plan.make ~loss:f.loss ~dup:f.dup ~crash:f.crash
        ~restart:f.restart ~max_delay:f.max_delay
        ~seed:(Option.value f.fault_seed ~default:seed)
        ()

let instance_of (algorithm : Spec.algorithm) ~n ~k ~s ~seed =
  match algorithm with
  | Spec.Single_source -> Gossip.Instance.single_source ~n ~k ~source:0
  | Spec.Flooding | Spec.Multi_source | Spec.Oblivious_rw ->
      if s <= 1 then Gossip.Instance.single_source ~n ~k ~source:0
      else
        Gossip.Instance.multi_source
          ~rng:(Dynet.Rng.make ~seed:(seed + 1))
          ~n ~k ~s:(min s (min n k))

type outcome =
  | Engine_run of {
      result : Engine.Run_result.t;
      retransmits : int option;
      lower_bound : Adversary.Broadcast_lb.t option;
    }
  | Rw_run of Gossip.Oblivious_rw.result

let execute ?(reliable = false) ?engine ?obs ?cancel ?(prof = Obs.Span.null)
    ~trace ~n ~seed (spec : Spec.t) =
  let faults = fault_plan spec.faults ~seed in
  let instance = instance_of spec.algorithm ~n ~k:spec.k ~s:spec.s ~seed in
  let max_rounds = spec.max_rounds in
  (* Trace envs replay with [Loop]: the schedule is periodic, so the
     engines' livelock detector has a sound window to watch. *)
  let stall_after =
    Option.map
      (fun t -> stall_window ~period:(Trace_io.rounds t) ~n ~k:spec.k)
      trace
  in
  let schedule () =
    match trace with
    | Some t -> Replay.schedule ~past_end:Replay.Loop t
    | None -> (
        match builtin_schedule ~env:spec.env ~sigma:spec.sigma ~n ~seed with
        | Some s -> s
        | None ->
            (* [Spec.validate] pairs each adaptive env with the
               algorithms routed to it below. *)
            invalid_arg "Scenario.Runner: no committed schedule for this env")
  in
  let unicast_env () =
    match spec.env with
    | Spec.Request_cutter { cut_prob } ->
        Gossip.Runners.Request_cutting { seed; cut_prob }
    | _ -> Gossip.Runners.Oblivious (schedule ())
  in
  let plain (result, _) =
    Engine_run { result; retransmits = None; lower_bound = None }
  in
  let wrapped (result, _, rt) =
    Engine_run { result; retransmits = Some rt; lower_bound = None }
  in
  match (spec.algorithm, spec.env) with
  | (Spec.Flooding | Spec.Oblivious_rw), _ when reliable ->
      invalid_arg "Scenario.Runner.execute: ~reliable wraps a unicast protocol"
  | Spec.Flooding, Spec.Lower_bound ->
      let result, _, lb =
        Gossip.Runners.flooding_vs_lower_bound ~instance ~seed ?engine
          ?max_rounds ?cancel ?obs ~prof ()
      in
      Engine_run { result; retransmits = None; lower_bound = Some lb }
  | Spec.Flooding, _ ->
      plain
        (Gossip.Runners.flooding ~instance ~schedule:(schedule ()) ?engine
           ~faults ?obs ?cancel ~prof ?max_rounds ?stall_after ())
  | Spec.Single_source, _ when reliable ->
      wrapped
        (Gossip.Runners.reliable_single_source ~instance ~env:(unicast_env ())
           ?engine ~faults ?obs ~prof ?max_rounds ())
  | Spec.Single_source, _ ->
      plain
        (Gossip.Runners.single_source ~instance ~env:(unicast_env ()) ?engine
           ~faults ?obs ?cancel ~prof ?max_rounds ?stall_after ())
  | Spec.Multi_source, _ when reliable ->
      wrapped
        (Gossip.Runners.reliable_multi_source ~instance ~env:(unicast_env ())
           ?engine ~faults ?obs ~prof ?max_rounds ())
  | Spec.Multi_source, _ ->
      plain
        (Gossip.Runners.multi_source ~instance ~env:(unicast_env ()) ?engine
           ~faults ?obs ?cancel ~prof ?max_rounds ?stall_after ())
  | Spec.Oblivious_rw, _ ->
      Rw_run
        (Gossip.Runners.oblivious_rw ~instance ~schedule:(schedule ()) ~seed
           ?engine ~const_f:0.05 ~force_rw:true ?obs ~prof ?cancel ())

(* A repeat's report, named by spec, algorithm and seed alone. *)
let report (spec : Spec.t) ~n ~seed outcome =
  let name =
    spec.name ^ "/" ^ Spec.algorithm_name spec.algorithm ^ "/seed="
    ^ string_of_int seed
  in
  let extra =
    [ ("n", Obs.Json.Int n); ("k", Obs.Json.Int spec.k);
      ("s", Obs.Json.Int spec.s); ("seed", Obs.Json.Int seed) ]
  in
  match outcome with
  | Engine_run { result; _ } ->
      let amortized = Engine.Ledger.amortized result.ledger ~k:spec.k in
      Engine.Run_result.to_report ~name
        ~extra:(extra @ [ ("amortized_per_token", Obs.Json.Float amortized) ])
        result
  | Rw_run r -> Gossip.Oblivious_rw.to_report ~name ~extra ~k:spec.k r

(* A spec with its environment materialized: the trace (if any) loaded
   and checked, [n] resolved, the per-repeat seeds laid out.  This is
   the resumable unit the serve scheduler works in — prepare once,
   then run repeats one at a time, checking for cancellation in
   between. *)
type prepared = {
  spec : Spec.t;
  trace : Trace_io.t option;
  n : int;
  seeds : int array;
}

let prepare ?base_dir (spec : Spec.t) =
  match resolve_trace ?base_dir spec with
  | Error e -> Error e
  | Ok trace -> (
      let n =
        match (spec.n, trace) with
        | Some n, _ -> Some n
        | None, Some t -> Some t.Trace_io.header.n
        | None, None -> None
      in
      match n with
      | None -> Error "spec has no n and no trace to take it from"
      | Some n ->
          let seeds = Array.init spec.repeats (fun i -> spec.seed + i) in
          Ok { spec; trace; n; seeds })

let engine_of_name name ~shards =
  if shards < 1 then Error (Printf.sprintf "shards %d must be >= 1" shards)
  else
    match name with
    | "soa" -> Ok (Engine.Soa.engine ~shards ())
    | ("fastpath" | "reference") when shards > 1 ->
        Error (Printf.sprintf "shards %d applies to the soa engine only" shards)
    | "fastpath" -> Ok Engine.Soa.default_engine
    | "reference" -> Ok Engine.Reference.engine
    | other -> Error (Printf.sprintf "unknown engine %S" other)

let run_repeat ?prof ?engine ?obs ?cancel prepared ~seed =
  report prepared.spec ~n:prepared.n ~seed
    (execute ?engine ?obs ?cancel ?prof ~trace:prepared.trace ~n:prepared.n
       ~seed prepared.spec)

let run_prepared ?jobs ?prof ?engine prepared =
  Analysis.Sweep.map_span ?jobs ?prof
    ~name:("scenario/" ^ prepared.spec.Spec.name)
    (fun ~prof seed -> run_repeat ~prof ?engine prepared ~seed)
    prepared.seeds

let run ?jobs ?base_dir ?prof ?engine (spec : Spec.t) =
  match prepare ?base_dir spec with
  | Error e -> Error e
  | Ok prepared -> Ok (run_prepared ?jobs ?prof ?engine prepared)
