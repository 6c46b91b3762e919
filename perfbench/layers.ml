(* The traced run's per-layer breakdown of one job, measured from the
   benchmark's side of each layer's public functions:

   - adversary: a cold [Schedule.get] over the job's rounds on a fresh
     schedule, and the heap the schedule keeps afterwards;
   - dynet: the [Graph_gen] (or [Graph.make]) primitive the family
     calls, alone, over the same rounds;
   - engine: the same run again on the now-materialized schedule, with
     the engines' own round/phase spans collected through [?prof];
   - obs: report encoding, and (when asked) the trace-event stream the
     serve daemon sends for an [events] submit;
   - gossip: the paper's quantities, read from the reports.

   The engine run is wired exactly as [Scenario.Runner.run_repeat]
   wires it, and its encoded report must equal the job's report byte
   for byte; a mismatch counts as a failed operation. *)

open Scenario

(* Every per-layer metric, in print order, with its unit.  A layer the
   workload does not exercise reads 0. *)
let names =
  [
    ("adversary.gen_ms", "ms");
    ("adversary.graphs", "count");
    ("adversary.edges", "count");
    ("adversary.alloc_mw", "Mwords");
    ("adversary.heap_mb", "MB");
    ("dynet.gen_ms", "ms");
    ("engine.run_ms", "ms");
    ("engine.ms_per_round", "ms");
    ("engine.alloc_mw", "Mwords");
    ("engine.phase.adversary_ms", "ms");
    ("engine.phase.graph_ms", "ms");
    ("engine.phase.send_ms", "ms");
    ("engine.phase.deliver_ms", "ms");
    ("engine.phase.intent_ms", "ms");
    ("engine.phase.receive_ms", "ms");
    ("engine.phase.round_ms", "ms");
    ("gossip.rounds", "count");
    ("gossip.messages", "count");
    ("gossip.msgs_per_token", "count");
    ("gossip.useful_ratio", "ratio");
    ("scenario.prepare_ms", "ms");
    ("scenario.trace_kb", "KB");
    ("obs.encode_ms", "ms");
    ("obs.report_kb", "KB");
    ("obs.events_ms", "ms");
    ("obs.events", "count");
    ("serve.accept_ms", "ms");
    ("serve.start_ms", "ms");
    ("serve.ping_ms", "ms");
    ("serve.queue_depth", "count");
    ("serve.busy_s", "s");
    ("serve.utilization", "ratio");
    ("serve.frames", "count");
    ("serve.kb_in", "KB");
    ("serve.rejected", "count");
    ("traced.job_ms", "ms");
    ("traced.base_job_ms", "ms");
    ("traced.overhead", "ratio");
  ]

let metrics samples =
  List.map
    (fun (name, unit_) ->
      Common.metric name unit_ (Common.Samples.median samples name))
    names

let phases =
  [ "adversary"; "graph"; "send"; "deliver"; "intent"; "receive"; "round" ]

(* {2 The run, wired as [Scenario.Runner] wires it} *)

let fault_plan (spec : Spec.t) ~seed =
  match spec.faults with
  | None -> Faults.Plan.none
  | Some f ->
      Faults.Plan.make ~loss:f.loss ~dup:f.dup ~crash:f.crash
        ~restart:f.restart ~max_delay:f.max_delay
        ~seed:(Option.value f.fault_seed ~default:seed)
        ()

let instance_of (spec : Spec.t) ~n ~seed =
  match spec.algorithm with
  | Spec.Single_source -> Gossip.Instance.single_source ~n ~k:spec.k ~source:0
  | Spec.Flooding | Spec.Multi_source | Spec.Oblivious_rw ->
      if spec.s <= 1 then Gossip.Instance.single_source ~n ~k:spec.k ~source:0
      else
        Gossip.Instance.multi_source
          ~rng:(Dynet.Rng.make ~seed:(seed + 1))
          ~n ~k:spec.k
          ~s:(min spec.s (min n spec.k))

let fresh_schedule (p : Runner.prepared) ~seed =
  match p.trace with
  | Some t -> Replay.schedule ~past_end:Replay.Loop t
  | None -> (
      match
        Runner.builtin_schedule ~env:p.spec.env ~sigma:p.spec.sigma ~n:p.n
          ~seed
      with
      | Some s -> s
      | None -> invalid_arg "perfbench: no committed schedule for this env")

let report_name (spec : Spec.t) ~seed =
  spec.name ^ "/" ^ Spec.algorithm_name spec.algorithm ^ "/seed="
  ^ string_of_int seed

let base_extra (spec : Spec.t) ~n ~seed =
  [
    ("n", Obs.Json.Int n);
    ("k", Obs.Json.Int spec.k);
    ("s", Obs.Json.Int spec.s);
    ("seed", Obs.Json.Int seed);
  ]

let engine_report (spec : Spec.t) ~n ~seed (r : Engine.Run_result.t) =
  Engine.Run_result.to_report ~name:(report_name spec ~seed)
    ~extra:
      (base_extra spec ~n ~seed
      @ [
          ( "amortized_per_token",
            Obs.Json.Float (Engine.Ledger.amortized r.ledger ~k:spec.k) );
        ])
    r

let rw_report (spec : Spec.t) ~n ~seed (r : Gossip.Oblivious_rw.result) =
  let open Gossip.Oblivious_rw in
  let result =
    Engine.Run_result.make
      ~rounds:(r.phase1_rounds + r.phase2_rounds)
      ~completed:r.completed ~ledger:r.ledger ~timeline:[] ()
  in
  Engine.Run_result.to_report ~name:(report_name spec ~seed)
    ~extra:
      (base_extra spec ~n ~seed
      @ [
          ("centers", Obs.Json.Int r.centers);
          ("skipped_phase1", Obs.Json.Bool r.skipped_phase1);
          ("phase1_rounds", Obs.Json.Int r.phase1_rounds);
          ("phase1_settled", Obs.Json.Bool r.phase1_settled);
          ("phase2_rounds", Obs.Json.Int r.phase2_rounds);
          ("paper_messages", Obs.Json.Int r.paper_messages);
          ( "amortized_per_token",
            Obs.Json.Float
              (float_of_int r.paper_messages /. float_of_int spec.k) );
        ])
    result

let run_on ?engine ~prof (p : Runner.prepared) ~seed schedule =
  let spec = p.spec and n = p.n in
  let instance = instance_of spec ~n ~seed in
  let faults = fault_plan spec ~seed in
  let stall_after =
    Option.map
      (fun t ->
        Runner.stall_window ~period:(Trace_io.rounds t) ~n ~k:spec.k)
      p.trace
  in
  let max_rounds = spec.max_rounds in
  match spec.algorithm with
  | Spec.Flooding ->
      let r, _ =
        Gossip.Runners.flooding ~instance ~schedule ?engine ~faults ~prof
          ?max_rounds ?stall_after ()
      in
      engine_report spec ~n ~seed r
  | Spec.Single_source ->
      let r, _ =
        Gossip.Runners.single_source ~instance
          ~env:(Gossip.Runners.Oblivious schedule) ?engine ~faults ~prof
          ?max_rounds ?stall_after ()
      in
      engine_report spec ~n ~seed r
  | Spec.Multi_source ->
      let r, _ =
        Gossip.Runners.multi_source ~instance
          ~env:(Gossip.Runners.Oblivious schedule) ?engine ~faults ~prof
          ?max_rounds ?stall_after ()
      in
      engine_report spec ~n ~seed r
  | Spec.Oblivious_rw ->
      rw_report spec ~n ~seed
        (Gossip.Runners.oblivious_rw ~instance ~schedule ~seed ~const_f:0.05
           ~force_rw:true ~prof ())

(* {2 Measuring one repeat} *)

(* The generator primitive the env's family calls, alone: one
   [random_connected] per round for fresh-random, one in all for static,
   one [random_tree] per round for the plain tree-rotator, and
   otherwise one [Graph.make] per round over the materialized edges. *)
let dynet_gen (p : Runner.prepared) ~seed graphs =
  let n = p.n in
  let round_rng r = Dynet.Rng.make ~seed:(seed + (1000003 * r)) in
  match p.spec.env with
  | Spec.Fresh_random { p = prob } ->
      Array.iteri
        (fun i _ ->
          ignore
            (Sys.opaque_identity
               (Dynet.Graph_gen.random_connected (round_rng (i + 1)) ~n
                  ~p:prob)))
        graphs
  | Spec.Static { p = prob } ->
      ignore
        (Sys.opaque_identity
           (Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed) ~n ~p:prob))
  | Spec.Tree_rotator when p.spec.sigma <= 1 ->
      Array.iteri
        (fun i _ ->
          ignore
            (Sys.opaque_identity
               (Dynet.Graph_gen.random_tree (round_rng (i + 1)) ~n)))
        graphs
  | _ ->
      Array.iter
        (fun g ->
          ignore
            (Sys.opaque_identity (Dynet.Graph.make ~n (Dynet.Graph.edges g))))
        graphs

(* Self time per leaf span name, in ms, from the folded profile. *)
let self_ms prof =
  let tbl = Hashtbl.create 16 in
  let add_line line =
    match String.rindex_opt line ' ' with
    | None -> ()
    | Some i ->
        let stack = String.sub line 0 i in
        let leaf =
          match String.rindex_opt stack ';' with
          | None -> stack
          | Some j -> String.sub stack (j + 1) (String.length stack - j - 1)
        in
        let self_us =
          float_of_string_opt
            (String.sub line (i + 1) (String.length line - i - 1))
        in
        Option.iter
          (fun us ->
            Hashtbl.replace tbl leaf
              ((us /. 1000.)
              +. Option.value (Hashtbl.find_opt tbl leaf) ~default:0.))
          self_us
  in
  List.iter add_line (String.split_on_char '\n' (Obs.Span.to_folded prof));
  tbl

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* Sums over the repeats of a job (and, on serve-mix, over its pool). *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) name v =
  Hashtbl.replace acc name
    (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.)

let get (acc : acc) name = Option.value (Hashtbl.find_opt acc name) ~default:0.

let rounds_of_line line =
  match
    Option.bind
      (Result.to_option (Obs.Json.of_string line))
      (Obs.Json.member "rounds")
  with
  | Some (Obs.Json.Int r) -> r
  | _ -> failwith "perfbench: report line has no rounds"

(* Measure one repeat into [acc]; [true] when the engine run's report
   equals [expected] byte for byte. *)
let measure_repeat ?engine ~events (acc : acc) (p : Runner.prepared) ~seed
    ~expected =
  let rounds = rounds_of_line expected in
  (* adversary: cold generation on a fresh schedule *)
  let live0 = live_words () in
  let a0 = Common.allocated_words () in
  let t0 = Common.now () in
  let schedule = fresh_schedule p ~seed in
  let graphs =
    Array.init rounds (fun i -> Adversary.Schedule.get schedule (i + 1))
  in
  add acc "adversary.gen_ms" (Common.ms_since t0);
  add acc "adversary.alloc_mw" ((Common.allocated_words () -. a0) /. 1e6);
  add acc "adversary.heap_mb" (Common.words_to_mb (live_words () -. live0));
  add acc "adversary.graphs" (float_of_int rounds);
  add acc "adversary.edges"
    (float_of_int
       (Array.fold_left (fun s g -> s + Dynet.Graph.edge_count g) 0 graphs));
  (* dynet: the primitive alone *)
  let t0 = Common.now () in
  dynet_gen p ~seed graphs;
  add acc "dynet.gen_ms" (Common.ms_since t0);
  (* engine: the same run on the materialized schedule *)
  let prof = Obs.Span.create () in
  let a0 = Common.allocated_words () in
  let t0 = Common.now () in
  let report = run_on ?engine ~prof p ~seed schedule in
  add acc "engine.run_ms" (Common.ms_since t0);
  add acc "engine.alloc_mw" ((Common.allocated_words () -. a0) /. 1e6);
  let self = self_ms prof in
  List.iter
    (fun ph ->
      add acc
        ("engine.phase." ^ ph ^ "_ms")
        (Option.value (Hashtbl.find_opt self ph) ~default:0.))
    phases;
  ignore (Sys.opaque_identity graphs);
  (* obs: report encoding *)
  let t0 = Common.now () in
  let line = Obs.Json.to_string (Obs.Report.to_json report) in
  add acc "obs.encode_ms" (Common.ms_since t0);
  add acc "obs.report_kb" (float_of_int (String.length line) /. 1024.);
  (* gossip: the paper's quantities *)
  add acc "gossip.rounds" (float_of_int report.Obs.Report.rounds);
  add acc "gossip.messages" (float_of_int report.Obs.Report.messages);
  add acc "gossip.learnings" (float_of_int report.Obs.Report.learnings);
  add acc "gossip.tokens" (float_of_int p.spec.k);
  (* obs: the event stream of an [events] submit, serialized as the
     daemon serializes it; only the sink's own time is counted *)
  if events then begin
    let sink_s = ref 0. and count = ref 0 in
    let obs =
      Obs.Sink.Custom
        (fun ev ->
          let t = Common.now () in
          ignore
            (Sys.opaque_identity (Obs.Json.to_string (Obs.Trace.to_json ev)));
          sink_s := !sink_s +. (Common.now () -. t);
          incr count)
    in
    ignore (Runner.run_repeat ?engine ~obs p ~seed);
    add acc "obs.events_ms" (!sink_s *. 1000.);
    add acc "obs.events" (float_of_int !count)
  end;
  String.equal line expected

(* Fold one job's sums into the run's samples, with the ratios taken
   per job. *)
let record samples (acc : acc) =
  Hashtbl.iter (fun name v -> Common.Samples.add samples name v) acc;
  let ratio a b = if b > 0. then a /. b else 0. in
  Common.Samples.add samples "engine.ms_per_round"
    (ratio (get acc "engine.run_ms") (get acc "gossip.rounds"));
  Common.Samples.add samples "gossip.msgs_per_token"
    (ratio (get acc "gossip.messages") (get acc "gossip.tokens"));
  Common.Samples.add samples "gossip.useful_ratio"
    (ratio (get acc "gossip.learnings") (get acc "gossip.messages"))
