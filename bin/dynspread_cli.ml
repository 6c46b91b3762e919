(* dynspread — command-line front end.

   Subcommands mirror the experiment index in DESIGN.md:

     dynspread run         one protocol x environment x instance run
     dynspread experiments the paper's tables/figures (all or by id)
     dynspread table1      just E1
     dynspread lowerbound  just E2 (+E3)
     dynspread competitive just E4/E5/E6
     dynspread sweep       size sweeps of one protocol x environment
     dynspread scenario    record / import / validate / run declarative
                           scenario workloads (lib/scenario)
     dynspread serve       long-running gossip daemon: scenario jobs over
                           a streaming rpc socket (lib/serve)
     dynspread submit      client for `serve`: submit specs, stream back
                           reports byte-identical to `scenario run`

   Every command is deterministic in --seed.  `run` and `sweep` take
   --trace FILE.jsonl (per-round event trace, NDJSON) and --json
   (machine-readable run report on stdout); see README "Observability"
   for the schemas. *)

open Cmdliner

(* {2 Shared arguments} *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let k_arg default =
  Arg.(
    value & opt int default & info [ "k" ] ~docv:"K" ~doc:"Number of tokens.")

let s_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "sources" ] ~docv:"S" ~doc:"Number of source nodes.")

let csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit tables as CSV instead of aligned text.")

let jobs_arg =
  Arg.(
    value
    & opt int (Analysis.Sweep.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Domains to fan experiment sweep points over (E1/E4/E7); \
           results are bit-identical for every value. Default: the \
           machine's recommended domain count.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the per-round event trace to $(docv) as JSONL (one \
           JSON object per engine event: round_start, graph_change, \
           send, progress, phase, run_end).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print a machine-readable JSON run report to stdout instead \
           of the human-readable summary.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Enable the runtime invariant layer (ledger conservation, \
           cached bitset counts, per-round connectivity). Dev-profile \
           builds only: release builds compile the checks out and \
           ignore this flag. An invariant failure aborts with exit \
           code 3.")

(* {2 Engine selection}

   Shared by `run`, `scenario run` and `submit`; the daemon resolves
   the same names with the same rules.  Reports are engine-independent
   (the differential fuzz harness enforces bit identity), so the flag
   only changes wall-clock and memory layout. *)

let engine_arg =
  Arg.(
    value
    & opt (enum (List.map (fun e -> (e, e)) [ "fastpath"; "reference"; "soa" ]))
        "fastpath"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,soa) (the production engine: Bigarray \
           word planes, CSR adjacency, and intra-run Domain sharding — \
           see $(b,--shards)), $(b,fastpath) (the default: a name for \
           $(b,soa) at one shard), or $(b,reference) (the pseudocode \
           engine). Run reports are bit-identical across engines; only \
           wall-clock changes.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"SHARDS"
        ~doc:
          "Worker domains for the $(b,soa) engine's intra-run node-space \
           sharding (>= 1). Results are bit-identical for every shard \
           count. Only meaningful with $(b,--engine soa).")

let print_table ~csv t =
  if csv then (
    Obs.Console.out (Analysis.Table.to_csv t);
    Obs.Console.out "")
  else Obs.Console.out (Analysis.Table.render t)

(* {2 Fault-injection flags}

   Shared by `run`: all default to "no faults", and all-zero rates
   compile to [Faults.Plan.none], the identity. *)

let loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:"Drop each transmitted message with probability $(docv).")

let dup_arg =
  Arg.(
    value & opt float 0.
    & info [ "dup-rate" ] ~docv:"P"
        ~doc:"Duplicate each surviving message with probability $(docv).")

let crash_arg =
  Arg.(
    value & opt float 0.
    & info [ "crash-rate" ] ~docv:"P"
        ~doc:
          "Crash each live node (full state loss) with per-round \
           probability $(docv).")

let restart_arg =
  Arg.(
    value & opt float 0.25
    & info [ "restart-rate" ] ~docv:"P"
        ~doc:
          "Restart each crashed node (from its initial state) with \
           per-round probability $(docv).")

let max_delay_arg =
  Arg.(
    value & opt int 0
    & info [ "max-delay" ] ~docv:"R"
        ~doc:
          "Delay each surviving message by a uniform 0..$(docv) rounds.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the fault plan's random streams (default: --seed), \
           so the same topology can be replayed under different fault \
           trajectories.")

let reliable_arg =
  Arg.(
    value & flag
    & info [ "reliable" ]
        ~doc:
          "Wrap the unicast protocol in the ack/retransmit reliability \
           wrapper (single-source and multi-source only).")

(* Numeric-flag validation, bench/main.exe style: error line, exit 2 —
   cmdliner's own failures keep their usual exit code, this path is
   for values that parse but make no sense. *)
let bad_flag fmt =
  Printf.ksprintf
    (fun msg ->
      Obs.Console.error ("error: " ^ msg);
      exit 2)
    fmt

let resolve_engine ~engine ~shards =
  match Scenario.Runner.engine_of_name engine ~shards with
  | Ok e -> e
  | Error msg -> bad_flag "--%s" msg

(* Run [f] with a JSONL sink on --trace FILE, the null sink otherwise.
   [Obs.Sink.close] drains the sink's line buffer before the channel
   goes away, so an abnormal exit never leaves a torn trailing line.
   The close is registered [at_exit] as well as in the [finally]:
   [Stdlib.exit] from a signal handler runs at_exit callbacks but not
   Fun.protect finalizers, and a SIGINT-ed run should still leave a
   well-formed trace of the rounds that happened. *)
let with_trace trace f =
  match trace with
  | None -> f Obs.Sink.null
  | Some path -> (
      match open_out path with
      | exception Sys_error msg ->
          `Error (false, "cannot open trace file: " ^ msg)
      | oc ->
          let sink = Obs.Sink.jsonl oc in
          let closed = ref false in
          let close () =
            if not !closed then begin
              closed := true;
              Obs.Sink.close sink;
              close_out oc
            end
          in
          at_exit close;
          Fun.protect ~finally:close (fun () -> f sink))

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write a hierarchical span profile (round/phase spans, sweep \
           worker lanes) to $(docv). A $(b,.json) path gets Chrome \
           trace-event JSON (load it in Perfetto or chrome://tracing); a \
           $(b,.folded) or $(b,.txt) path gets folded stacks for flame-graph \
           tools.")

(* Run [f] with an active profiler on --profile FILE, the null profiler
   otherwise.  The profile is written in the [finally], so a run aborted
   by an engine violation still leaves a loadable file covering the
   rounds that did execute.  Like [with_trace], the write is also
   registered [at_exit] (guarded so it happens once) for the
   signal-handler [Stdlib.exit] path. *)
let with_profile profile f =
  match profile with
  | None -> f Obs.Span.null
  | Some path ->
      let prof = Obs.Span.create () in
      let written = ref false in
      let write () =
        if not !written then begin
          written := true;
          match open_out path with
          | exception Sys_error msg ->
              Obs.Console.error ("cannot open profile file: " ^ msg)
          | oc ->
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  Obs.Span.write prof oc (Obs.Span.format_of_path path))
        end
      in
      at_exit write;
      Fun.protect ~finally:write (fun () -> f prof)

(* Satellite of the serve PR: long-running commands (serve,
   experiments, fuzz) exit 130 on SIGINT/SIGTERM instead of dying with
   the default disposition — [Stdlib.exit] runs the at_exit drains
   above, so traces and profiles survive an interrupt. *)
let exit_130 = Sys.Signal_handle (fun _ -> Stdlib.exit 130)

let install_signal sg behavior =
  match Sys.set_signal sg behavior with
  | () -> ()
  | exception Invalid_argument _ -> ()
  | exception Sys_error _ -> ()

let exit_on_signals () =
  install_signal Sys.sigint exit_130;
  install_signal Sys.sigterm exit_130

(* {2 run} *)

let protocol_arg =
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun a -> (Scenario.Spec.algorithm_name a, a))
              Scenario.Spec.
                [ Flooding; Single_source; Multi_source; Oblivious_rw ]))
        Scenario.Spec.Single_source
    & info [ "protocol"; "algo" ] ~docv:"PROTOCOL"
        ~doc:
          "One of $(b,flooding), $(b,single-source), $(b,multi-source), \
           $(b,oblivious-rw).")

let env_arg =
  let choices =
    List.map
      (fun e -> (Scenario.Spec.env_family e, e))
      Scenario.Spec.default_envs
  in
  Arg.(
    value
    & opt (enum choices) (List.assoc "rewiring" choices)
    & info [ "env" ] ~docv:"ENV"
        ~doc:
          "Environment: $(b,static), $(b,tree-rotator), $(b,rewiring), \
           $(b,edge-markovian), $(b,fresh-random), $(b,request-cutter) \
           (adaptive, unicast only), or $(b,lower-bound) (the Section-2 \
           strongly adaptive adversary, flooding only).")

let sigma_arg =
  Arg.(
    value & opt (some int) None
    & info [ "sigma" ] ~docv:"SIGMA"
        ~doc:
          "Edge-stability enforced on the generated oblivious environments \
           (>= 1; default 3). $(b,fresh-random) and the two adaptive \
           environments take no $(b,--sigma) above 1.")

(* The sigma an env runs with when --sigma is absent: 3 where the
   family takes it, 1 elsewhere. *)
let default_sigma env =
  if Option.is_none (Scenario.Spec.sigma_error env ~sigma:3) then 3 else 1

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "After the summary, dump the per-round learning curve as CSV \
           (round,messages,learnings) for plotting.")

(* A spec [Spec.validate] refuses is an invocation problem: every
   message to stderr, exit 2. *)
let validate_or_exit spec =
  match Scenario.Spec.validate spec with
  | Ok spec -> spec
  | Error errs ->
      List.iter (fun e -> Obs.Console.error ("error: " ^ e)) errs;
      exit 2

let print_json_report report =
  Obs.Console.out (Obs.Json.to_string (Obs.Report.to_json report))

let report_run ?(timeline = false) ?(json = false) ?retransmits ~name ~n ~k
    (result : Engine.Run_result.t) =
  let ledger = result.ledger in
  if json then
    print_json_report
      (Engine.Run_result.to_report ~name
         ~extra:
           ([
              ( "amortized_per_token",
                Obs.Json.Float (Engine.Ledger.amortized ledger ~k) );
              ( "budget_n2_nk",
                Obs.Json.Float (Gossip.Bounds.single_source_budget ~n ~k) );
            ]
           @
           match retransmits with
           | None -> []
           | Some r -> [ ("retransmits", Obs.Json.Int r) ])
         result)
  else begin
    Obs.Console.out (Format.asprintf "@[<v>%a@]" Engine.Run_result.pp result);
    Obs.Console.out
      (Printf.sprintf "amortized per token: %.2f"
         (Engine.Ledger.amortized ledger ~k));
    Obs.Console.out
      (Printf.sprintf
         "adversary-competitive (alpha=1): %.0f  [budget n^2+nk = %.0f]"
         (Engine.Ledger.competitive_cost ledger ~alpha:1.)
         (Gossip.Bounds.single_source_budget ~n ~k));
    Obs.Console.out
      (Printf.sprintf "per-node load: max %d, mean %.1f"
         (Engine.Ledger.max_load ledger)
         (Engine.Ledger.mean_load ledger));
    (match retransmits with
    | None -> ()
    | Some r ->
        Obs.Console.out
          (Printf.sprintf "reliability wrapper: %d retransmissions" r));
    if timeline then begin
      Obs.Console.out "";
      Obs.Console.out "round,messages,learnings";
      List.iter
        (fun (r, msgs, learned) ->
          Obs.Console.out (Printf.sprintf "%d,%d,%d" r msgs learned))
        result.timeline
    end
  end

let run_cmd =
  let doc = "Run one protocol in one environment and print the cost ledger." in
  let run algorithm env n k s sigma seed loss dup crash restart max_delay
      fault_seed reliable timeline trace profile json check engine shards =
    Check.set_enabled check;
    let engine = resolve_engine ~engine ~shards in
    let sigma = Option.value sigma ~default:(default_sigma env) in
    let faults =
      { Scenario.Spec.loss; dup; crash; restart; max_delay; fault_seed }
    in
    let name =
      Scenario.Spec.algorithm_name algorithm ^ "/"
      ^ Scenario.Spec.env_family env
    in
    let spec =
      { Scenario.Spec.name; algorithm; env; sigma; n = Some n; k; s; seed;
        repeats = 1; faults = Some faults; max_rounds = None }
    in
    let spec = validate_or_exit spec in
    (match algorithm with
    | (Scenario.Spec.Flooding | Scenario.Spec.Oblivious_rw) when reliable ->
        bad_flag
          "--reliable wraps a unicast protocol: use single-source or \
           multi-source"
    | _ -> ());
    with_trace trace @@ fun obs ->
    with_profile profile @@ fun prof ->
    (match
       Scenario.Runner.execute ~reliable ~engine ~obs ~prof ~trace:None ~n
         ~seed spec
     with
    | Scenario.Runner.Engine_run { result; retransmits; lower_bound } -> (
        report_run ~timeline ~json ?retransmits ~name ~n ~k result;
        match lower_bound with
        | Some lb when not json ->
            let history = Adversary.Broadcast_lb.history lb in
            let max_c = List.fold_left (fun a (_, c) -> max a c) 0 history in
            Obs.Console.out
              (Printf.sprintf
                 "lower-bound adversary: max free components %d (log n = %.1f)"
                 max_c (Gossip.Bounds.logn n))
        | Some _ | None -> ())
    | Scenario.Runner.Rw_run r when json ->
        print_json_report (Gossip.Oblivious_rw.to_report ~name ~k r)
    | Scenario.Runner.Rw_run r ->
        Obs.Console.out
          (Format.asprintf
             "@[<v>algorithm 2: centers=%d phase1=%d rounds (settled: %b) \
              phase2=%d rounds completed=%b@ %a@]"
             r.centers r.phase1_rounds r.phase1_settled r.phase2_rounds
             r.completed Engine.Ledger.pp r.ledger);
        Obs.Console.out
          (Printf.sprintf "paper messages (sans center chatter): %d"
             r.paper_messages));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ protocol_arg $ env_arg $ n_arg 24 $ k_arg 48 $ s_arg
        $ sigma_arg $ seed_arg $ loss_arg $ dup_arg $ crash_arg $ restart_arg
        $ max_delay_arg $ fault_seed_arg $ reliable_arg $ timeline_arg
        $ trace_arg $ profile_arg $ json_arg $ check_arg $ engine_arg
        $ shards_arg))

(* {2 experiments} *)

let experiment_names =
  [
    ("e0", `E0); ("e1", `E1); ("e2", `E2); ("e3", `E3); ("e4", `E4);
    ("e6", `E6); ("e7", `E7); ("e8", `E8); ("e9", `E9); ("e10", `E10);
    ("e11", `E11); ("e12", `E12); ("e13", `E13); ("e14", `E14);
    ("e15", `E15); ("e16", `E16); ("e17", `E17); ("e18", `E18);
  ]

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "After the tables, print each experiment's wall-clock (from \
           the observability layer's per-experiment spans).")

let experiments_cmd =
  let doc =
    "Regenerate the paper's tables and figures (DESIGN.md experiments)."
  in
  let which =
    Arg.(
      value
      & pos_all
          (Arg.enum (List.map (fun (id, e) -> (id, (id, e))) experiment_names))
          []
      & info [] ~docv:"ID"
          ~doc:
            "Experiment ids (e0 e1 ... e18); default: all.")
  in
  let run ids csv seed jobs timings profile check =
    Check.set_enabled check;
    exit_on_signals ();
    let metrics = if timings then Some (Obs.Metrics.create ()) else None in
    let selected = match ids with [] -> experiment_names | _ :: _ -> ids in
    with_profile profile @@ fun prof ->
    List.iter
      (fun (id, e) ->
        let table =
          Obs.Span.with_span prof ~cat:"experiment" id @@ fun () ->
          match e with
          | `E0 -> Analysis.Experiments.environments ?metrics ~seed ()
          | `E1 -> Analysis.Experiments.table1 ~jobs ?metrics ~prof ~seed ()
          | `E2 -> Analysis.Experiments.lower_bound ?metrics ~seed ()
          | `E3 -> Analysis.Experiments.free_edges ?metrics ~seed ()
          | `E4 -> Scenario.Experiment.single_source ~jobs ?metrics ~prof ~seed ()
          | `E6 -> Scenario.Experiment.multi_source ?metrics ~seed ()
          | `E7 -> Analysis.Experiments.rw_scaling ~jobs ?metrics ~prof ~seed ()
          | `E8 -> Analysis.Experiments.static_baseline ?metrics ~seed ()
          | `E9 -> Scenario.Experiment.time_vs_messages ?metrics ~seed ()
          | `E10 -> Analysis.Experiments.ablation ?metrics ~seed ()
          | `E11 -> Analysis.Experiments.rw_tradeoff ?metrics ~seed ()
          | `E12 -> Analysis.Experiments.coding_gap ?metrics ~seed ()
          | `E13 -> Analysis.Experiments.leader_election ?metrics ~seed ()
          | `E14 -> Analysis.Experiments.adaptivity ?metrics ~seed ()
          | `E15 -> Scenario.Experiment.robustness_loss ?metrics ~seed ()
          | `E16 -> Scenario.Experiment.robustness_crash ?metrics ~seed ()
          | `E17 -> Scenario.Experiment.real_trace ~jobs ?metrics ~seed ()
          | `E18 -> Analysis.Experiments.mega ?metrics ~prof ~seed ()
        in
        print_table ~csv table)
      selected;
    match metrics with
    | None -> ()
    | Some m ->
        print_table ~csv
          (Analysis.Table.make ~title:"experiment wall-clock"
             ~columns:[ "experiment"; "seconds" ]
             (List.filter_map
                (fun name ->
                  match Obs.Metrics.summary m name with
                  | Some s -> Some [ name; Printf.sprintf "%.3f" s.Obs.Metrics.sum ]
                  | None -> None)
                (Obs.Metrics.names m)))
  in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const run $ which $ csv_arg $ seed_arg $ jobs_arg $ timings_arg
      $ profile_arg $ check_arg)

(* {2 focused shortcuts} *)

let table1_cmd =
  let doc = "E1: the paper's Table 1 (Algorithm 2's amortized complexity)." in
  let ns =
    Arg.(
      value
      & opt (list int) [ 24; 32 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Node counts to sweep.")
  in
  let run ns csv seed jobs =
    print_table ~csv (Analysis.Experiments.table1 ~ns ~jobs ~seed ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc)
    Term.(const run $ ns $ csv_arg $ seed_arg $ jobs_arg)

let lowerbound_cmd =
  let doc = "E2+E3: the Section-2 local-broadcast lower bound." in
  let ns =
    Arg.(
      value
      & opt (list int) [ 16; 24; 32 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Node counts to sweep.")
  in
  let run ns csv seed =
    print_table ~csv (Analysis.Experiments.lower_bound ~ns ~seed ());
    print_table ~csv (Analysis.Experiments.free_edges ~seed ())
  in
  Cmd.v (Cmd.info "lowerbound" ~doc) Term.(const run $ ns $ csv_arg $ seed_arg)

(* {2 sweep} *)

let sweep_cmd =
  let doc =
    "Sweep node counts for one protocol x environment: each size is a \
     one-repeat scenario spec (name sweep, seed + n).  One table row per \
     size, or with --json one scenario-run report per line."
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Node counts to sweep.")
  in
  let k_factor_arg =
    Arg.(
      value & opt int 2
      & info [ "k-factor" ] ~docv:"F" ~doc:"Tokens per size: k = F * n.")
  in
  let run protocol env sizes k_factor sigma seed csv trace json =
    List.iter
      (fun n -> if n < 2 then bad_flag "--sizes entry %d must be >= 2" n)
      sizes;
    if k_factor < 1 then bad_flag "--k-factor %d must be >= 1" k_factor;
    let sigma = Option.value sigma ~default:(default_sigma env) in
    (* Each size is a one-repeat spec: flooding spreads n-gossip, the
       multi-source protocol puts a source on every node it can, the
       others start from node 0. *)
    let spec_of n =
      let k = k_factor * n in
      let k, s =
        match protocol with
        | Scenario.Spec.Flooding -> (n, n)
        | Scenario.Spec.Multi_source -> (k, min n k)
        | Scenario.Spec.Single_source | Scenario.Spec.Oblivious_rw -> (k, 1)
      in
      { Scenario.Spec.name = "sweep"; algorithm = protocol; env; sigma;
        n = Some n; k; s; seed = seed + n; repeats = 1; faults = None;
        max_rounds = None }
    in
    let points = List.map (fun n -> (n, validate_or_exit (spec_of n))) sizes in
    with_trace trace @@ fun obs ->
    let reports =
      List.map
        (fun (n, (spec : Scenario.Spec.t)) ->
          match Scenario.Runner.prepare spec with
          | Ok prepared ->
              (n, spec.k, Scenario.Runner.run_repeat ~obs prepared ~seed:spec.seed)
          | Error e -> bad_flag "%s" e)
        points
    in
    (if json then List.iter (fun (_, _, r) -> print_json_report r) reports
     else
      print_table ~csv
        (Analysis.Table.make ~title:"size sweep"
           ~columns:
             [ "n"; "k"; "done"; "rounds"; "messages"; "TC"; "amortized";
               "amortized (comp.)" ]
           (List.map
              (fun (n, k, (r : Obs.Report.t)) ->
                let per_token v = v /. float_of_int k in
                [
                  string_of_int n;
                  string_of_int k;
                  (if r.completed then "yes" else "NO");
                  string_of_int r.rounds;
                  Analysis.Table.fint r.messages;
                  Analysis.Table.fint r.tc;
                  Analysis.Table.ffloat (per_token (float_of_int r.messages));
                  Analysis.Table.ffloat (per_token r.competitive_cost);
                ])
              reports)));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const run $ protocol_arg $ env_arg $ sizes_arg $ k_factor_arg
        $ sigma_arg $ seed_arg $ csv_arg $ trace_arg $ json_arg))

(* {2 scenario} *)

(* Scenario validation failures are invocation problems, same bucket
   as bad flags: every message to stderr, exit 2. *)
let spec_errors path errs =
  Obs.Console.error (Printf.sprintf "error: %s is not a valid scenario spec:" path);
  Obs.Console.lines (List.map (fun e -> "  - " ^ e) errs);
  exit 2

let load_spec path =
  match Scenario.Spec.load path with
  | Ok spec -> spec
  | Error errs -> spec_errors path errs

let output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write (NDJSON).")

let scenario_run_cmd =
  let doc =
    "Execute a scenario spec: one JSON run report per repeat, one per line \
     on stdout."
  in
  let spec_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Scenario spec file (JSON).")
  in
  let run path jobs profile check engine shards =
    Check.set_enabled check;
    let engine = resolve_engine ~engine ~shards in
    let spec = load_spec path in
    with_profile profile @@ fun prof ->
    match
      Scenario.Runner.run ~jobs ~base_dir:(Filename.dirname path) ~prof
        ~engine spec
    with
    | Error e ->
        Obs.Console.error ("error: " ^ e);
        exit 2
    | Ok reports ->
        Array.iter
          (fun r ->
            Obs.Console.out (Obs.Json.to_string (Obs.Report.to_json r)))
          reports
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ spec_pos $ jobs_arg $ profile_arg $ check_arg $ engine_arg
      $ shards_arg)

let scenario_record_cmd =
  let doc =
    "Record a spec's built-in oblivious environment (at the spec's seed) \
     into a replayable trace file."
  in
  let spec_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Scenario spec file (JSON).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Rounds to record. Default (0): the spec's max_rounds if set, \
             else the algorithm's full default round cap — guaranteeing the \
             trace covers any replayed run of the same spec bit-for-bit.")
  in
  let run path out rounds =
    let spec = load_spec path in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Obs.Console.error ("error: " ^ m);
          exit 2)
        fmt
    in
    let n =
      match spec.Scenario.Spec.n with
      | Some n -> n
      | None -> fail "%s: recording needs an explicit n" path
    in
    if rounds < 0 then fail "--rounds %d is negative" rounds;
    let rounds =
      if rounds > 0 then rounds
      else
        match spec.Scenario.Spec.max_rounds with
        | Some r -> r
        | None -> (
            match spec.Scenario.Spec.algorithm with
            | Scenario.Spec.Flooding ->
                Gossip.Runners.default_broadcast_cap ~n ~k:spec.Scenario.Spec.k
            | Scenario.Spec.Single_source | Scenario.Spec.Multi_source ->
                Gossip.Runners.default_unicast_cap ~n ~k:spec.Scenario.Spec.k
            | Scenario.Spec.Oblivious_rw ->
                Gossip.Oblivious_rw.default_cap ~n ~k:spec.Scenario.Spec.k)
    in
    match
      Scenario.Runner.builtin_schedule ~env:spec.Scenario.Spec.env
        ~sigma:spec.Scenario.Spec.sigma ~n ~seed:spec.Scenario.Spec.seed
    with
    | None ->
        fail
          "%s: only the built-in oblivious environments can be recorded here \
           (traces are already recorded; the request-cutter and the \
           lower-bound adversary are adaptive — capture a realized schedule \
           with Scenario.Record through Engine.Ctx.make ~on_graph)"
          path
    | Some schedule -> (
        let trace =
          Scenario.Record.of_schedule ~seed:spec.Scenario.Spec.seed
            ~provenance:
              ("oblivious:" ^ Scenario.Spec.env_family spec.Scenario.Spec.env)
            ~rounds schedule
        in
        match Scenario.Trace_io.save out trace with
        | Ok () ->
            Obs.Console.error
              (Printf.sprintf "recorded %d rounds of %s (n=%d, seed=%d) to %s"
                 rounds
                 (Scenario.Spec.env_family spec.Scenario.Spec.env)
                 n spec.Scenario.Spec.seed out)
        | Error e ->
            Obs.Console.error ("error: " ^ e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(const run $ spec_pos $ output_arg $ rounds_arg)

let scenario_import_cmd =
  let doc =
    "Import a contact-sequence CSV (t,u,v[,duration] lines, # comments) \
     into a round-bucketed trace file."
  in
  let csv_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CSV" ~doc:"Contact-sequence file.")
  in
  let bucket_arg =
    Arg.(
      value & opt float 20.
      & info [ "bucket" ] ~docv:"SECONDS"
          ~doc:"Time-bucket length: contacts within one bucket form one round.")
  in
  let no_repair_arg =
    Arg.(
      value & flag
      & info [ "no-repair" ]
          ~doc:
            "Keep disconnected rounds as-is instead of adding the minimal \
             connecting edges (the engines will then reject the trace at \
             run time).")
  in
  let run path out bucket no_repair =
    if not (Float.is_finite bucket && bucket > 0.) then begin
      Obs.Console.error
        (Printf.sprintf "error: --bucket %g is not a positive duration" bucket);
      exit 2
    end;
    match Scenario.Contacts.import_file ~bucket ~repair:(not no_repair) path with
    | Error e ->
        Obs.Console.error ("error: " ^ e);
        exit 2
    | Ok (trace, st) -> (
        match Scenario.Trace_io.save out trace with
        | Ok () ->
            Obs.Console.lines
              [
                Printf.sprintf "imported %s -> %s" path out;
                Printf.sprintf
                  "  %d contacts -> %d nodes, %d rounds (%d empty buckets \
                   skipped)"
                  st.Scenario.Contacts.contacts st.Scenario.Contacts.nodes
                  st.Scenario.Contacts.imported_rounds
                  st.Scenario.Contacts.empty_buckets;
                Printf.sprintf
                  "  normalized: %d self-loops dropped, %d duplicates \
                   collapsed, %d out-of-order rows"
                  st.Scenario.Contacts.self_loops
                  st.Scenario.Contacts.duplicates
                  st.Scenario.Contacts.out_of_order;
                Printf.sprintf
                  "  connectivity repair: %d rounds patched with %d edges"
                  st.Scenario.Contacts.repaired_rounds
                  st.Scenario.Contacts.repaired_edges;
              ]
        | Error e ->
            Obs.Console.error ("error: " ^ e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "import" ~doc)
    Term.(const run $ csv_pos $ output_arg $ bucket_arg $ no_repair_arg)

let scenario_validate_cmd =
  let doc =
    "Validate scenario specs and trace files (sniffed by their schema \
     field); exit 2 if any file has a problem."
  in
  let files_pos =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Spec or trace files.")
  in
  (* Sniff by the leading document's "schema" field: a spec file is one
     (possibly multi-line) JSON object, a trace file is NDJSON whose
     first line is the header. *)
  let schema_of path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | content ->
        let first_doc =
          match Obs.Json.of_string content with
          | Ok j -> Some j
          | Error _ -> (
              match String.index_opt content '\n' with
              | None -> None
              | Some i -> (
                  match Obs.Json.of_string (String.sub content 0 i) with
                  | Ok j -> Some j
                  | Error _ -> None))
        in
        (match first_doc with
        | Some j -> (
            match Obs.Json.member "schema" j with
            | Some (Obs.Json.String s) -> Ok s
            | _ -> Error "leading JSON document has no \"schema\" field")
        | None -> Error "not JSON/NDJSON (cannot read a schema field)")
  in
  let run files =
    let failed = ref false in
    let problem path msgs =
      failed := true;
      Obs.Console.error (Printf.sprintf "%s: INVALID" path);
      Obs.Console.lines (List.map (fun m -> "  - " ^ m) msgs)
    in
    List.iter
      (fun path ->
        match schema_of path with
        | Error e -> problem path [ e ]
        | Ok s when String.equal s Scenario.Spec.schema_name -> (
            match Scenario.Spec.load path with
            | Error errs -> problem path errs
            | Ok spec ->
                Obs.Console.error
                  (Printf.sprintf "%s: valid scenario spec (%s, %s env%s)"
                     path
                     (Scenario.Spec.algorithm_name spec.Scenario.Spec.algorithm)
                     (Scenario.Spec.env_family spec.Scenario.Spec.env)
                     (match spec.Scenario.Spec.n with
                     | Some n -> Printf.sprintf ", n=%d" n
                     | None -> "")))
        | Ok s when String.equal s Scenario.Trace_io.schema_name -> (
            match Scenario.Trace_io.load path with
            | Error e -> problem path [ e ]
            | Ok trace -> (
                match Scenario.Trace_io.validate trace with
                | Error e -> problem path [ e ]
                | Ok st -> (
                    match st.Scenario.Trace_io.first_disconnected with
                    | Some r ->
                        problem path
                          [
                            Printf.sprintf
                              "round %d is disconnected — the engines will \
                               reject this trace; re-import without \
                               --no-repair"
                              r;
                          ]
                    | None ->
                        Obs.Console.error
                          (Printf.sprintf
                             "%s: valid trace (n=%d, %d rounds, TC=%d, max \
                              %d edges/round)"
                             path trace.Scenario.Trace_io.header.n
                             st.Scenario.Trace_io.stat_rounds
                             st.Scenario.Trace_io.stat_tc
                             st.Scenario.Trace_io.stat_max_edges))))
        | Ok s ->
            problem path
              [
                Printf.sprintf
                  "unknown schema %S (expected %S or %S)" s
                  Scenario.Spec.schema_name Scenario.Trace_io.schema_name;
              ])
      files;
    if !failed then exit 2
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ files_pos)

(* {2 fuzz} *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: run randomly generated scenario cases through a \
     pair of engines (by default a generated per-case pairing: the \
     pseudocode reference engine against the SoA engine at 1, 2 or 4 \
     shards) and require byte-identical run reports and \
     realized schedules. Each divergence is shrunk to a minimal case and \
     saved to the corpus directory as a replayable trace + scenario spec \
     pair. Exit 0 when all cases agree, 1 on any mismatch, 2 on bad flags."
  in
  let runs_arg =
    Arg.(
      value & opt int 256
      & info [ "runs" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Directory for shrunk counterexamples (created on the first \
             mismatch; untouched on a clean run).")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 400
      & info [ "shrink-budget" ] ~docv:"B"
          ~doc:
            "Maximum shrink-predicate evaluations (each one run of both \
             engines) per counterexample.")
  in
  let engines_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("generated", `Generated); ("soa", `Soa 1);
               ("reference", `Soa 1); ("soa-2", `Soa 2); ("soa-4", `Soa 4);
             ])
          `Generated
      & info [ "engines" ] ~docv:"PAIRING"
          ~doc:
            "Engine pairing: $(b,generated) (default) draws a per-case \
             pairing — reference against SoA at shard counts 1/2/4; \
             $(b,soa), $(b,soa-2) or $(b,soa-4) pin that SoA engine \
             against reference on every case; $(b,reference) is an alias \
             of $(b,soa).")
  in
  let run runs seed corpus jobs shrink_budget json profile check engines =
    Check.set_enabled check;
    exit_on_signals ();
    if runs < 1 then bad_flag "--runs %d must be >= 1" runs;
    if seed < 0 then bad_flag "--seed %d is negative" seed;
    if shrink_budget < 1 then
      bad_flag "--shrink-budget %d must be >= 1" shrink_budget;
    if jobs < 1 then bad_flag "--jobs %d must be >= 1" jobs;
    let metrics = Obs.Metrics.create () in
    let engine_b =
      match engines with
      | `Generated -> None
      | `Soa shards -> Some (Engine.Soa.engine ~shards ())
    in
    with_profile profile @@ fun prof ->
    let outcome =
      Fuzz.Campaign.run ?engine_b ~jobs ~metrics ~prof ~shrink_budget ~runs
        ~seed ()
    in
    let saved = Fuzz.Campaign.save_corpus ~dir:corpus outcome in
    let mismatches = outcome.Fuzz.Campaign.mismatches in
    if json then
      Obs.Console.out
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("cases", Obs.Json.Int runs); ("seed", Obs.Json.Int seed);
                ("mismatches", Obs.Json.Int (List.length mismatches));
                ( "shrink_steps",
                  Obs.Json.Int (Obs.Metrics.counter metrics "fuzz/shrink_steps")
                );
                ( "corpus",
                  Obs.Json.List
                    (List.map
                       (fun f ->
                         Obs.Json.String (Filename.concat corpus f))
                       saved) );
              ]))
    else begin
      Obs.Console.error
        (Printf.sprintf "fuzz: %d cases, seed %d: %d mismatch(es)" runs seed
           (List.length mismatches));
      List.iter2
        (fun (m : Fuzz.Campaign.mismatch) spec_file ->
          Obs.Console.error
            (Printf.sprintf
               "mismatch: case %d (%s, n=%d k=%d s=%d): %s — shrunk to n=%d \
                %d round(s), saved as %s"
               m.Fuzz.Campaign.case.Fuzz.Case.id
               (Fuzz.Case.algo_name m.Fuzz.Campaign.case.Fuzz.Case.algo)
               m.Fuzz.Campaign.case.Fuzz.Case.n
               m.Fuzz.Campaign.case.Fuzz.Case.k
               m.Fuzz.Campaign.case.Fuzz.Case.s m.Fuzz.Campaign.detail
               m.Fuzz.Campaign.shrunk.Fuzz.Case.n
               (Fuzz.Case.period m.Fuzz.Campaign.shrunk)
               (Filename.concat corpus spec_file)))
        mismatches saved
    end;
    match mismatches with [] -> () | _ :: _ -> exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ runs_arg $ seed_arg $ corpus_arg $ jobs_arg
      $ shrink_budget_arg $ json_arg $ profile_arg $ check_arg $ engines_arg)

let scenario_cmd =
  let doc =
    "Declarative scenario workloads: record built-in environments as \
     traces, import real contact data, validate, and run."
  in
  Cmd.group
    (Cmd.info "scenario" ~doc)
    [
      scenario_run_cmd; scenario_record_cmd; scenario_import_cmd;
      scenario_validate_cmd;
    ]

(* {2 serve / submit}

   The long-running daemon and its client.  `serve` owns a persistent
   Domain pool behind a unix-domain (or TCP) socket speaking
   dynspread-rpc/v1 (NDJSON frames, see DESIGN.md); `submit` sends
   specs, streams reports back byte-identical to `scenario run`, and
   maps outcomes onto the usual exit codes (0 completed, 1 cancelled,
   3 failed, 2 for IO/protocol/validation problems). *)

let parse_hostport ~flag s =
  let fail () = bad_flag "--%s %S is not HOST:PORT" flag s in
  match String.rindex_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      let host = if String.equal host "" then "127.0.0.1" else host in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> (host, p)
      | Some _ | None -> fail ())

let socket_arg =
  Arg.(
    value & opt string "dynspread.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain rpc socket path (an empty string disables the \
           unix listener).")

let serve_cmd =
  let doc =
    "Run the gossip daemon: accept scenario submissions over a streaming \
     NDJSON rpc socket, schedule them over a persistent domain pool."
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Also accept rpc sessions over TCP.")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Answer HTTP $(b,GET /metrics) (Prometheus text format, \
             namespace $(b,dynspread_serve)) on 127.0.0.1:$(docv).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Analysis.Sweep.recommended_jobs ())
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Worker domains in the job pool (spawned once, reused across \
             jobs). Default: the machine's recommended domain count.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 128
      & info [ "queue-cap" ] ~docv:"Q"
          ~doc:
            "Bounded admission queue: submissions beyond $(docv) pending \
             jobs are rejected with an explicit backpressure frame instead \
             of queued without limit.")
  in
  let run socket listen metrics_port workers queue_cap check =
    Check.set_enabled check;
    if workers < 1 then bad_flag "--workers %d must be >= 1" workers;
    if queue_cap < 1 then bad_flag "--queue-cap %d must be >= 1" queue_cap;
    let listen = Option.map (parse_hostport ~flag:"listen") listen in
    let socket = if String.equal socket "" then None else Some socket in
    (match (socket, listen) with
    | None, None -> bad_flag "serve needs --socket PATH or --listen HOST:PORT"
    | Some _, _ | _, Some _ -> ());
    let metrics =
      Option.map
        (fun p ->
          if p < 0 || p > 65535 then
            bad_flag "--metrics-port %d is out of range" p;
          ("127.0.0.1", p))
        metrics_port
    in
    (* First signal: flip [stop], the event loop cancels every job at
       its next round boundary, flushes terminal frames, and [run]
       returns [`Signalled].  Second signal: stop waiting, exit 130
       now (at_exit drains still run). *)
    let stop = Atomic.make 0 in
    install_signal Sys.sigpipe Sys.Signal_ignore;
    let graceful =
      Sys.Signal_handle
        (fun _ -> if Atomic.fetch_and_add stop 1 >= 1 then Stdlib.exit 130)
    in
    install_signal Sys.sigint graceful;
    install_signal Sys.sigterm graceful;
    (match socket with
    | Some path ->
        Obs.Console.error
          (Printf.sprintf "serve: rpc on %s (%d worker(s), queue cap %d)"
             path workers queue_cap)
    | None -> ());
    (match listen with
    | Some (h, p) -> Obs.Console.error (Printf.sprintf "serve: rpc on %s:%d" h p)
    | None -> ());
    (match metrics with
    | Some (h, p) ->
        Obs.Console.error
          (Printf.sprintf "serve: metrics on http://%s:%d/metrics" h p)
    | None -> ());
    match
      Serve.Server.run
        { Serve.Server.socket; listen; metrics; workers; queue_cap; stop }
    with
    | `Completed -> ()
    | `Signalled -> exit 130
    | exception Serve.Server.Startup_error msg ->
        Obs.Console.error ("error: " ^ msg);
        exit 2
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ listen_arg $ metrics_port_arg $ workers_arg
      $ queue_cap_arg $ check_arg)

let submit_cmd =
  let doc =
    "Submit scenario specs to a running serve daemon and stream the \
     reports back (byte-identical to $(b,dynspread scenario run))."
  in
  let specs_pos =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SPEC"
          ~doc:"Scenario spec files (JSON), submitted in order.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Reach the daemon over TCP instead of the unix socket.")
  in
  let events_arg =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Stream the job's dynspread-trace/v1 events to stderr while \
             it runs (reports stay on stdout).")
  in
  let status_arg =
    Arg.(
      value & flag
      & info [ "status" ] ~doc:"Print the daemon's job table and exit.")
  in
  let job_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "job" ] ~docv:"N" ~doc:"Restrict $(b,--status) to one job.")
  in
  let cancel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel" ] ~docv:"N" ~doc:"Cancel job N and exit.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to drain its queue and exit.")
  in
  let tag_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tag" ] ~docv:"TAG"
          ~doc:
            "Correlation tag echoed in the daemon's accepted/rejected \
             frames. Default: the spec file's basename.")
  in
  let abs_dir path =
    let d = Filename.dirname path in
    if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d
  in
  let run specs socket connect engine shards events status job cancel_id
      shutdown_flag tag =
    install_signal Sys.sigpipe Sys.Signal_ignore;
    exit_on_signals ();
    ignore (resolve_engine ~engine ~shards);
    let target =
      match connect with
      | Some hp ->
          let host, port = parse_hostport ~flag:"connect" hp in
          Serve.Client.Tcp (host, port)
      | None ->
          if String.equal socket "" then
            bad_flag "submit needs --socket PATH or --connect HOST:PORT"
          else Serve.Client.Unix_path socket
    in
    let io_guard f =
      match f () with
      | v -> v
      | exception Serve.Client.Io_error msg ->
          Obs.Console.error ("error: " ^ msg);
          exit 2
    in
    let c = io_guard (fun () -> Serve.Client.connect target) in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    io_guard @@ fun () ->
    if shutdown_flag then begin
      Serve.Client.shutdown c;
      Obs.Console.error "daemon is draining"
    end
    else
      match cancel_id with
      | Some jid -> (
          match Serve.Client.cancel c ~job:jid with
          | Ok was ->
              Obs.Console.error
                (Printf.sprintf "job %d cancelled (was %s)" jid was)
          | Error reason ->
              Obs.Console.error ("error: " ^ reason);
              exit 2)
      | None ->
          if status then begin
            let jobs, depth, running = Serve.Client.status c ?job () in
            List.iter
              (fun (v : Serve.Rpc.job_view) ->
                Obs.Console.out
                  (Printf.sprintf "%d\t%s\t%s\t%d" v.Serve.Rpc.job
                     v.Serve.Rpc.name v.Serve.Rpc.state v.Serve.Rpc.reports))
              jobs;
            Obs.Console.error
              (Printf.sprintf "queued %d, running %d" depth running)
          end
          else begin
            (match specs with
            | [] -> bad_flag "submit needs at least one SPEC file"
            | _ :: _ -> ());
            let worst = ref 0 in
            List.iter
              (fun path ->
                let raw =
                  match
                    In_channel.with_open_bin path In_channel.input_all
                  with
                  | s -> s
                  | exception Sys_error msg ->
                      Obs.Console.error
                        (Printf.sprintf "error: cannot read %s: %s" path msg);
                      exit 2
                in
                let spec_json =
                  match Obs.Json.of_string raw with
                  | Ok j -> j
                  | Error e ->
                      Obs.Console.error
                        (Printf.sprintf "error: %s is not JSON: %s" path e);
                      exit 2
                in
                let sub =
                  {
                    Serve.Rpc.tag =
                      (match tag with
                      | Some _ -> tag
                      | None -> Some (Filename.basename path));
                    spec = spec_json;
                    base_dir = Some (abs_dir path);
                    engine = Some engine;
                    shards = Some shards;
                    events;
                  }
                in
                match
                  Serve.Client.submit_await c sub
                    ~on_event:(fun line -> Obs.Console.error line)
                    ~on_report:(fun _ line -> Obs.Console.out line)
                with
                | Error reason ->
                    Obs.Console.error
                      (Printf.sprintf "error: %s: %s" path reason);
                    exit 2
                | Ok fin -> (
                    match fin.Serve.Client.outcome with
                    | "completed" -> ()
                    | "cancelled" ->
                        Obs.Console.error
                          (Printf.sprintf
                             "%s: job %d cancelled after %d report(s)" path
                             fin.Serve.Client.job fin.Serve.Client.reports);
                        if !worst < 1 then worst := 1
                    | "failed" ->
                        Obs.Console.error
                          (Printf.sprintf "%s: job %d failed: %s" path
                             fin.Serve.Client.job
                             (Option.value fin.Serve.Client.reason
                                ~default:"unknown failure"));
                        worst := 3
                    | other ->
                        Obs.Console.error
                          (Printf.sprintf
                             "%s: job %d ended in unknown state %S" path
                             fin.Serve.Client.job other);
                        worst := 3))
              specs;
            if !worst > 0 then exit !worst
          end
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const run $ specs_pos $ socket_arg $ connect_arg $ engine_arg
      $ shards_arg $ events_arg $ status_arg $ job_arg $ cancel_arg
      $ shutdown_arg $ tag_arg)

let main_cmd =
  let doc =
    "information spreading in adversarial dynamic networks (Ahmadi et al., \
     ICDCS 2019)"
  in
  let info = Cmd.info "dynspread" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      run_cmd; experiments_cmd; table1_cmd; lowerbound_cmd;
      sweep_cmd; scenario_cmd; fuzz_cmd; serve_cmd; submit_cmd;
    ]

(* The engine's violation exceptions mean a protocol or adversary
   broke the model mid-run — a bug in what was wired together, not in
   the user's invocation.  Catch them at the command boundary and turn
   them into a one-line diagnostic with a distinct exit code (3, vs
   cmdliner's own codes for CLI misuse). *)
let () =
  (* [~catch:false]: cmdliner's default handler would swallow these as
     "internal error" backtraces before the matches below could run. *)
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Engine.Engine_error.Protocol_violation msg ->
      Obs.Console.error ("dynspread: protocol violation: " ^ msg);
      exit 3
  | exception Engine.Engine_error.Adversary_violation msg ->
      Obs.Console.error ("dynspread: adversary violation: " ^ msg);
      exit 3
  | exception Check.Check_failed msg ->
      Obs.Console.error ("dynspread: invariant check failed: " ^ msg);
      exit 3
  (* Asking a finite recorded schedule for a round it does not have is
     an invocation problem (the trace is too short for the run), not a
     model violation — same exit bucket as bad flags and invalid
     specs. *)
  | exception Engine.Engine_error.Schedule_exhausted { round; available } ->
      Obs.Console.error
        (Printf.sprintf
           "dynspread: trace exhausted: round %d requested but only %d \
            rounds recorded"
           round available);
      exit 2
