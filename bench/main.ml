(* The full benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (DESIGN.md experiments E1-E9); each printed table carries its own
   shape checks in the footnotes.

   Part 2 runs one Bechamel micro-benchmark per experiment, measuring
   the wall-clock cost of that experiment's core simulation workload
   (useful for tracking simulator performance regressions).

   Run with: dune exec bench/main.exe
   Pass --tables-only or --bechamel-only to run half of it.  Either
   way a machine-readable summary (micro-benchmark ns/run and, when
   the tables ran, per-experiment wall-clock) is written to
   BENCH_results.json (override with --out FILE).

   --compare BASELINE.json diffs the fresh summary against a committed
   one (Analysis.Baseline) under --tolerance PCT and exits 1 on any
   regression — the CI perf gate.  --profile-dir DIR re-runs the sweep
   experiments (E1/E4/E7) with an active span profiler and writes one
   Chrome trace-event file per experiment; the profiled pass is
   separate so the timings in the summary stay unprofiled. *)

open Bechamel
open Toolkit
open Dynet.Ops

let seed = 42

let print_table t = Obs.Console.out (Analysis.Table.render t)

(* {2 Part 1: the paper's tables and figures} *)

let run_tables ~jobs ~metrics () =
  Obs.Console.out "=== Part 1: paper artifacts (DESIGN.md experiment index) ===";
  Obs.Console.out "";
  List.iter print_table
    (Analysis.Experiments.all ~jobs ~metrics ~seed ());
  (* The tables made of spec points live in the scenario library, which
     sits above Analysis. *)
  List.iter print_table (Scenario.Experiment.all ~jobs ~metrics ~seed ())

(* {2 Part 2: Bechamel micro-benchmarks, one per experiment} *)

let instance_ms ~n ~k ~s ~seed =
  Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed) ~n ~k ~s

let bench_e1_table1 () =
  (* E1's unit of work: one Algorithm-2 run on a many-source instance. *)
  let n = 16 and k = 24 in
  let instance = instance_ms ~n ~k ~s:n ~seed in
  fun () ->
    let schedule = Adversary.Oblivious.fresh_random ~seed ~n ~p:0.25 in
    let r =
      Gossip.Runners.oblivious_rw ~instance ~schedule ~seed ~const_f:0.05
        ~force_rw:true ()
    in
    assert r.Gossip.Oblivious_rw.completed

let bench_e2_lower_bound () =
  let n = 12 in
  let instance = Gossip.Instance.one_per_node ~n in
  fun () ->
    let r, _, _ =
      Gossip.Runners.flooding_vs_lower_bound ~instance ~seed ()
    in
    assert r.Engine.Run_result.completed

let bench_e3_free_edges () =
  let n = 64 and k = 64 in
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed) ~n ~k
  in
  let chosen =
    Array.init n (fun v -> if v mod 2 = 0 then Some (v mod k) else None)
  in
  fun () ->
    ignore
      (Adversary.Broadcast_lb.next_graph lb
         { Adversary.Broadcast_lb.knows = (fun v i -> i = v mod k); chosen })

let bench_e4_single_source () =
  let n = 16 and k = 32 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  fun () ->
    let env =
      Gossip.Runners.Oblivious
        (Adversary.Schedule.stabilized ~sigma:3
           (Adversary.Oblivious.tree_rotator ~seed ~n))
    in
    let r, _ = Gossip.Runners.single_source ~instance ~env () in
    assert r.Engine.Run_result.completed

let bench_e6_multi_source () =
  let n = 16 and k = 32 in
  let instance = instance_ms ~n ~k ~s:6 ~seed in
  fun () ->
    let env =
      Gossip.Runners.Oblivious
        (Adversary.Schedule.stabilized ~sigma:3
           (Adversary.Oblivious.tree_rotator ~seed ~n))
    in
    let r, _ = Gossip.Runners.multi_source ~instance ~env () in
    assert r.Engine.Run_result.completed

let bench_e7_rw_phase () =
  let n = 20 and k = 20 in
  let instance = instance_ms ~n ~k ~s:10 ~seed in
  let centers = Array.init n (fun v -> v mod 7 = 0) in
  fun () ->
    let schedule = Adversary.Oblivious.fresh_random ~seed ~n ~p:0.3 in
    let states = Gossip.Rw_phase.init ~instance ~centers ~gamma:1000. ~seed in
    let r, _ =
      Engine.Runner_unicast.run Gossip.Rw_phase.protocol ~states
        ~adversary:(Adversary.Schedule.unicast schedule)
        ~max_rounds:5000 ~stop:Gossip.Rw_phase.settled ()
    in
    assert r.Engine.Run_result.completed

let bench_e8_static_baseline () =
  let n = 64 and k = 256 in
  let graph =
    Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed) ~n ~p:0.2
  in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  fun () -> ignore (Gossip.Spanning_tree_static.run ~graph ~instance ~root:0)

let bench_e9_flooding () =
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  fun () ->
    let schedule = Adversary.Oblivious.fresh_random ~seed ~n ~p:0.25 in
    let r, _ = Gossip.Runners.flooding ~instance ~schedule () in
    assert r.Engine.Run_result.completed

let bench_e10_ablation () =
  let n = 12 and k = 16 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  fun () ->
    let env =
      Gossip.Runners.Request_cutting { seed; cut_prob = 0.5 }
    in
    let config =
      { Gossip.Single_source.priority = Gossip.Single_source.Paper_priority;
        dedup_pending = false }
    in
    let r, _ = Gossip.Runners.single_source ~instance ~env ~config () in
    assert r.Engine.Run_result.completed

let bench_e11_tradeoff () =
  let n = 16 and k = 24 in
  let instance = instance_ms ~n ~k ~s:n ~seed in
  fun () ->
    let schedule = Adversary.Oblivious.fresh_random ~seed ~n ~p:0.3 in
    let r =
      Gossip.Runners.oblivious_rw ~instance ~schedule ~seed ~const_f:0.3
        ~force_rw:true ()
    in
    assert r.Gossip.Oblivious_rw.completed

let bench_e12_coding () =
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  fun () ->
    let schedule = Adversary.Oblivious.fresh_random ~seed ~n ~p:0.25 in
    let r, _ = Gossip.Runners.coded_broadcast ~instance ~schedule ~seed () in
    assert r.Engine.Run_result.completed

let bench_e13_leader () =
  let n = 24 in
  fun () ->
    let env =
      Gossip.Runners.Oblivious (Adversary.Oblivious.tree_rotator ~seed ~n)
    in
    let r, _ = Gossip.Runners.leader_election ~n ~env () in
    assert r.Engine.Run_result.completed

let bench_e15_fault_none_overhead () =
  (* The null fault plan must cost (almost) nothing: the exact e4
     workload with [Faults.Plan.none] passed explicitly — compare the
     two entries to see what the fault layer's identity path costs. *)
  let n = 16 and k = 32 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  fun () ->
    let env =
      Gossip.Runners.Oblivious
        (Adversary.Schedule.stabilized ~sigma:3
           (Adversary.Oblivious.tree_rotator ~seed ~n))
    in
    let r, _ =
      Gossip.Runners.single_source ~instance ~env ~faults:Faults.Plan.none ()
    in
    assert r.Engine.Run_result.completed

let bench_e15_reliable_under_loss () =
  let n = 12 and k = 12 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let faults = Faults.Plan.make ~loss:0.2 ~seed () in
  fun () ->
    let env =
      Gossip.Runners.Oblivious
        (Adversary.Schedule.stabilized ~sigma:3
           (Adversary.Oblivious.tree_rotator ~seed ~n))
    in
    let r, _, _ =
      Gossip.Runners.reliable_single_source ~instance ~env ~faults ()
    in
    assert r.Engine.Run_result.completed

let bench_e17_real_trace () =
  (* E17's unit of work: Multi-Source-Unicast over the imported
     office-contact trace, replayed with Loop semantics (import cost is
     paid once, outside the measured thunk). *)
  let trace =
    match Scenario.Contacts.import Scenario.Experiment.sample_contacts with
    | Ok (trace, _) -> trace
    | Error e -> failwith e
  in
  let n = trace.Scenario.Trace_io.header.n in
  let instance = instance_ms ~n ~k:n ~s:4 ~seed:(seed + 1) in
  fun () ->
    let env =
      Gossip.Runners.Oblivious
        (Scenario.Replay.schedule ~past_end:Scenario.Replay.Loop trace)
    in
    let r, _ = Gossip.Runners.multi_source ~instance ~env () in
    assert r.Engine.Run_result.completed

(* {2 E18: the mega-scale SoA engine} *)

(* Rounds per thunk for the per-round e18 entries: enough to amortize
   engine setup (plane fill, CSR build, domain pool) into noise, few
   enough that one thunk still fits the sampling quota. *)
let mega_rounds = 64

let bench_e18_mega ~n ~shards ~max_rounds () =
  (* The tentpole's budget line: phased flooding at n = 10^5 on the SoA
     engine.  Graph, instance and protocol states are built once
     outside the thunk, so each run pays engine setup (plane fill + CSR
     build, plus the domain pool when sharded) and [max_rounds] rounds
     of the hot loop. *)
  let k = 32 in
  let graph =
    Dynet.Graph_gen.random_regularish (Dynet.Rng.make ~seed) ~n ~d:8
  in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let states = Gossip.Flooding.init ~instance ~phase_len:4 () in
  let adversary ~round:_ ~prev:_ ~states:_ ~intents:_ = graph in
  let module E = (val Engine.Soa.engine ~shards () : Engine.Engine_sig.ENGINE)
  in
  fun () ->
    (* The engine restates nodes in place; run on a copy so every
       sample replays the same rounds instead of a saturated residue
       of the previous one. *)
    let r, _ =
      E.Broadcast.run Gossip.Flooding.protocol ~states:(Array.copy states)
        ~adversary ~max_rounds
        ~stop:(fun _ -> false)
        ()
    in
    assert (r.Engine.Run_result.rounds = max_rounds)

let bench_e14_weak_adversary () =
  let n = 48 in
  let adv = Adversary.Weak_bcast.make ~seed ~n in
  let states = Array.make n () in
  let intents = Array.init n (fun v -> if v mod 2 = 0 then Some v else None) in
  fun () ->
    ignore
      (adv ~round:1 ~prev:(Dynet.Graph.empty ~n) ~states ~intents)

(* {2 The dynet primitives of a fresh-random round} *)

(* One round graph of the oblivious fresh-random adversary at
   perfbench's fresh-flood size; the rng runs on across samples, so
   every run draws a new graph. *)
let bench_dynet_random_connected () =
  let n = 80 and rng = Dynet.Rng.make ~seed in
  fun () -> ignore (Dynet.Graph_gen.random_connected rng ~n ~p:0.25)

(* The ledger's TC(E) step between consecutive fresh-random rounds.
   Each run takes the next pair of a ring of graphs: one fixed pair
   would let the branch predictor learn its comparisons. *)
let bench_dynet_delta_counts () =
  let n = 80 and rng = Dynet.Rng.make ~seed in
  let ring =
    Array.init 64 (fun _ -> Dynet.Graph_gen.random_connected rng ~n ~p:0.25)
  in
  let r = ref 0 in
  fun () ->
    let i = !r in
    r := (i + 1) land 63;
    ignore (Dynet.Graph.delta_counts ~prev:ring.(i) ~cur:ring.(!r))

let tests ~shards =
  Test.make_grouped ~name:"dynspread"
    [
      Test.make ~name:"e1/table1:oblivious-rw" (Staged.stage (bench_e1_table1 ()));
      Test.make ~name:"e2/lower-bound:flooding-vs-lb"
        (Staged.stage (bench_e2_lower_bound ()));
      Test.make ~name:"e3/free-edges:next-graph"
        (Staged.stage (bench_e3_free_edges ()));
      Test.make ~name:"e4/single-source:rotator"
        (Staged.stage (bench_e4_single_source ()));
      Test.make ~name:"e6/multi-source:rotator"
        (Staged.stage (bench_e6_multi_source ()));
      Test.make ~name:"e7/rw-phase:gather" (Staged.stage (bench_e7_rw_phase ()));
      Test.make ~name:"e8/static-baseline:tree"
        (Staged.stage (bench_e8_static_baseline ()));
      Test.make ~name:"e9/flooding:fresh-random"
        (Staged.stage (bench_e9_flooding ()));
      Test.make ~name:"e10/ablation:no-dedup-cutter"
        (Staged.stage (bench_e10_ablation ()));
      Test.make ~name:"e11/rw-tradeoff:dense-centers"
        (Staged.stage (bench_e11_tradeoff ()));
      Test.make ~name:"e12/coding-gap:coded-bcast"
        (Staged.stage (bench_e12_coding ()));
      Test.make ~name:"e13/leader-election:rotator"
        (Staged.stage (bench_e13_leader ()));
      Test.make ~name:"e14/adaptivity:weak-round"
        (Staged.stage (bench_e14_weak_adversary ()));
      Test.make ~name:"e15/faults:none-overhead"
        (Staged.stage (bench_e15_fault_none_overhead ()));
      Test.make ~name:"e15/faults:reliable-loss20"
        (Staged.stage (bench_e15_reliable_under_loss ()));
      Test.make ~name:"e17/real-trace:multi-source"
        (Staged.stage (bench_e17_real_trace ()));
      Test.make ~name:"dynet/random-connected:n80-p0.25"
        (Staged.stage (bench_dynet_random_connected ()));
      Test.make ~name:"dynet/delta-counts:n80"
        (Staged.stage (bench_dynet_delta_counts ()));
      Test.make ~name:"e18/mega:flooding-round-100k"
        (Staged.stage
           (bench_e18_mega ~n:100_000 ~shards:1 ~max_rounds:mega_rounds ()));
      Test.make ~name:"e18/mega:flooding-round-100k-sharded"
        (Staged.stage
           (bench_e18_mega ~n:100_000 ~shards ~max_rounds:mega_rounds ()));
    ]

(* The e18 entries report time per simulated *round*, not per thunk:
   one thunk runs [mega_rounds] rounds and the OLS estimate is divided
   accordingly, so the committed number is the tentpole's "flooding
   round at n = 10^5" budget line with setup amortized. *)
let per_round_entries =
  [
    "dynspread/e18/mega:flooding-round-100k";
    "dynspread/e18/mega:flooding-round-100k-sharded";
  ]

let normalize_row (name, ns) =
  if List.mem name per_round_entries then (name, ns /. float_of_int mega_rounds)
  else (name, ns)

(* Runs the micro-benchmarks, prints the human table, and returns the
   [(name, ns_per_run)] rows for the JSON summary. *)
let run_bechamel ~shards () =
  Obs.Console.out "=== Part 2: Bechamel micro-benchmarks (time per run) ===";
  Obs.Console.out "";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests ~shards) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | Some [] | None -> Float.nan
        in
        normalize_row (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_table
    (Analysis.Table.make
       ~title:
         "simulator throughput (one run of each experiment's core workload)"
       ~columns:[ "benchmark"; "time per run" ]
       ~notes:
         [
           "OLS estimate over monotonic-clock samples; randomized protocol \
            runs, so treat as order-of-magnitude.";
           Printf.sprintf
             "e18 entries are per simulated round (one thunk = %d rounds, \
              setup amortized); the sharded entry ran with --shards %d."
             mega_rounds shards;
         ]
       (List.map
          (fun (name, ns) ->
            let cell =
              if Float.is_nan ns then "n/a"
              else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; cell ])
          rows));
  rows

(* {2 JSON summary + driver} *)

let write_results ~out ~shards ~bench_rows ~metrics =
  let benchmarks =
    List.map
      (fun (name, ns) ->
        Obs.Json.Obj
          [
            ("name", Obs.Json.String name);
            ( "ns_per_run",
              if Float.is_nan ns then Obs.Json.Null else Obs.Json.Float ns );
          ])
      bench_rows
  in
  let experiments =
    match metrics with
    | None -> []
    | Some m ->
        List.filter_map
          (fun name ->
            match Obs.Metrics.summary m name with
            | Some s ->
                Some
                  (Obs.Json.Obj
                     [
                       ("name", Obs.Json.String name);
                       ("seconds", Obs.Json.Float s.Obs.Metrics.sum);
                     ])
            | None -> None)
          (Obs.Metrics.names m)
  in
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "dynspread-bench/v1");
        ("seed", Obs.Json.Int seed);
        ("shards", Obs.Json.Int shards);
        ("benchmarks", Obs.Json.List benchmarks);
        ("experiments", Obs.Json.List experiments);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Obs.Json.to_channel oc json);
  Obs.Console.out (Printf.sprintf "wrote %s" out)

(* {2 Profile artifacts: E1/E4/E7 under an active profiler} *)

let profiled_experiments =
  [
    ("e1", fun ~jobs ~prof -> ignore (Analysis.Experiments.table1 ~jobs ~prof ~seed ()));
    ("e4", fun ~jobs ~prof -> ignore (Scenario.Experiment.single_source ~jobs ~prof ~seed ()));
    ("e7", fun ~jobs ~prof -> ignore (Analysis.Experiments.rw_scaling ~jobs ~prof ~seed ()));
  ]

let write_profiles ~jobs ~dir =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (name, run) ->
      let prof = Obs.Span.create () in
      run ~jobs ~prof;
      let path = Filename.concat dir (name ^ ".json") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Span.write prof oc Obs.Span.Chrome);
      Obs.Console.out
        (Printf.sprintf "wrote %s (%d spans)" path (Obs.Span.span_count prof)))
    profiled_experiments

(* {2 Baseline compare (the CI perf gate)} *)

let compare_against ~out ~baseline_path ~tolerance ~tables_ran ~bechamel_ran =
  match (Analysis.Baseline.load baseline_path, Analysis.Baseline.load out) with
  | Error e, _ | _, Error e ->
      Obs.Console.error ("error: " ^ e);
      exit 2
  | Ok baseline, Ok current ->
      (* The sharded entries measure a specific parallelism; diffing a
         4-shard run against a 1-shard baseline would gate on the shard
         count, not the code.  Report both and refuse on mismatch. *)
      Obs.Console.out
        (Printf.sprintf "shards: %d (baseline %d)"
           current.Analysis.Baseline.shards baseline.Analysis.Baseline.shards);
      if current.Analysis.Baseline.shards <> baseline.Analysis.Baseline.shards
      then begin
        Obs.Console.error
          (Printf.sprintf
             "error: shard counts differ (baseline %d, this run %d); rerun \
              with --shards %d or regenerate the baseline"
             baseline.Analysis.Baseline.shards current.Analysis.Baseline.shards
             baseline.Analysis.Baseline.shards);
        exit 2
      end;
      (* Only gate on the sections that actually ran this invocation:
         --tables-only must not flag every micro-benchmark as missing. *)
      let baseline =
        {
          baseline with
          Analysis.Baseline.benchmarks =
            (if bechamel_ran then baseline.Analysis.Baseline.benchmarks
             else []);
          experiments =
            (if tables_ran then baseline.Analysis.Baseline.experiments
             else []);
        }
      in
      (* Noise band: experiments under 50 ms and micro-benchmarks under
         1 ms/run swing severalfold on a loaded machine; a percentage
         gate on them is pure flakiness.  The interesting regressions
         (E1/E4/E7 sweeps, the heavyweight protocol runs) all sit two
         orders of magnitude above the floor. *)
      let floor = function
        | Analysis.Baseline.Benchmark -> 1e6 (* ns/run *)
        | Analysis.Baseline.Experiment -> 0.05 (* seconds *)
      in
      let c =
        Analysis.Baseline.diff ~floor ~tolerance_pct:tolerance ~baseline
          ~current ()
      in
      List.iter Obs.Console.out (Analysis.Baseline.render c);
      if Analysis.Baseline.regressed c then exit 1

let usage () =
  Obs.Console.lines
    [
      "usage: main.exe [--tables-only | --bechamel-only] [--jobs N] \
       [--shards N] [--out FILE]";
      "                [--compare BASELINE.json] [--tolerance PCT] \
       [--profile-dir DIR]";
      "  --tables-only    only the paper tables (Part 1)";
      "  --bechamel-only  only the micro-benchmarks (Part 2)";
      "  --jobs N         domains for the experiment sweeps (default: \
       recommended domain count); tables are bit-identical for every N";
      "  --shards N       intra-run shard count for the sharded SoA \
       micro-benchmarks (default 4); recorded in the summary, and \
       --compare refuses baselines taken at a different count";
      "  --out FILE       JSON summary path (default BENCH_results.json)";
      "  --compare FILE   diff this run's summary against the baseline \
       summary FILE; exit 1 on regression";
      "  --tolerance PCT  regression threshold for --compare, in percent \
       (default 25)";
      "  --profile-dir D  additionally run E1/E4/E7 with the span profiler \
       on and write D/e1.json, D/e4.json, D/e7.json Chrome traces";
    ]

let () =
  let tables_only = ref false
  and bechamel_only = ref false
  and jobs = ref (Analysis.Sweep.recommended_jobs ())
  and shards = ref 4
  and out = ref "BENCH_results.json"
  and compare_to = ref None
  and tolerance = ref 25.
  and profile_dir = ref None in
  let rec parse = function
    | [] -> ()
    | "--tables-only" :: rest ->
        tables_only := true;
        parse rest
    | "--bechamel-only" :: rest ->
        bechamel_only := true;
        parse rest
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | Some _ | None ->
            Obs.Console.error (Printf.sprintf "error: --jobs needs a positive integer, got %S" v);
            usage ();
            exit 2)
    | [ "--jobs" ] ->
        Obs.Console.error "error: --jobs needs a count argument";
        usage ();
        exit 2
    | "--shards" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            shards := n;
            parse rest
        | Some _ | None ->
            Obs.Console.error
              (Printf.sprintf
                 "error: --shards needs a positive integer, got %S" v);
            usage ();
            exit 2)
    | [ "--shards" ] ->
        Obs.Console.error "error: --shards needs a count argument";
        usage ();
        exit 2
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | [ "--out" ] ->
        Obs.Console.error "error: --out needs a file argument";
        usage ();
        exit 2
    | "--compare" :: file :: rest ->
        compare_to := Some file;
        parse rest
    | [ "--compare" ] ->
        Obs.Console.error "error: --compare needs a baseline file argument";
        usage ();
        exit 2
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when Float.is_finite t && t >= 0. ->
            tolerance := t;
            parse rest
        | Some _ | None ->
            Obs.Console.error
              (Printf.sprintf
                 "error: --tolerance needs a percentage >= 0, got %S" v);
            usage ();
            exit 2)
    | [ "--tolerance" ] ->
        Obs.Console.error "error: --tolerance needs a percentage argument";
        usage ();
        exit 2
    | "--profile-dir" :: dir :: rest ->
        profile_dir := Some dir;
        parse rest
    | [ "--profile-dir" ] ->
        Obs.Console.error "error: --profile-dir needs a directory argument";
        usage ();
        exit 2
    | arg :: _ ->
        Obs.Console.error (Printf.sprintf "error: unknown argument %S" arg);
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !tables_only && !bechamel_only then begin
    Obs.Console.error "error: --tables-only and --bechamel-only are exclusive";
    usage ();
    exit 2
  end;
  let metrics = if !bechamel_only then None else Some (Obs.Metrics.create ()) in
  (match metrics with
  | Some m -> run_tables ~jobs:!jobs ~metrics:m ()
  | None -> ());
  let bench_rows =
    if !tables_only then [] else run_bechamel ~shards:!shards ()
  in
  write_results ~out:!out ~shards:!shards ~bench_rows ~metrics;
  (match !profile_dir with
  | Some dir -> write_profiles ~jobs:!jobs ~dir
  | None -> ());
  match !compare_to with
  | Some baseline_path ->
      compare_against ~out:!out ~baseline_path ~tolerance:!tolerance
        ~tables_ran:(not !bechamel_only) ~bechamel_ran:(not !tables_only)
  | None -> ()
