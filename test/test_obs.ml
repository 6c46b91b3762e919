(* Tests for the observability layer: the JSON codec, the event sinks,
   the metrics registry, timers, and the engine's trace emission (the
   invariants the CLI acceptance check relies on: Send events sum to
   Ledger.total, Graph_change additions sum to TC). *)

let check = Alcotest.check

(* {2 Json} *)

let roundtrip v =
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("bool", Obs.Json.Bool true);
        ("int", Obs.Json.Int (-42));
        ("float", Obs.Json.Float 1.5);
        ("integral_float", Obs.Json.Float 3.);
        ("escape", Obs.Json.String "a\"b\\c\nd\te\x01f");
        ("unicode", Obs.Json.String "héllo — κόσμε");
        ("list", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.String "x" ]);
        ("nested", Obs.Json.Obj [ ("k", Obs.Json.List []) ]);
      ]
  in
  check Alcotest.bool "value survives encode/parse" true (roundtrip v = v)

let test_json_integral_float_stays_float () =
  (* 3.0 must encode as "3.0", not "3", or it reparses as Int. *)
  check Alcotest.bool "3.0 reparses as Float" true
    (roundtrip (Obs.Json.Float 3.) = Obs.Json.Float 3.)

let test_json_nonfinite_is_null () =
  check Alcotest.string "nan encodes as null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check Alcotest.string "inf encodes as null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "trailing garbage" true (bad "{} x");
  check Alcotest.bool "unterminated string" true (bad {|"abc|});
  check Alcotest.bool "bare word" true (bad "flase");
  check Alcotest.bool "empty input" true (bad "");
  check Alcotest.bool "lone surrogate" true (bad {|"\ud800"|})

let test_json_member () =
  let v = Obs.Json.Obj [ ("a", Obs.Json.Int 1); ("b", Obs.Json.Null) ] in
  check Alcotest.bool "present" true
    (Obs.Json.member "a" v = Some (Obs.Json.Int 1));
  check Alcotest.bool "missing" true (Obs.Json.member "z" v = None);
  check Alcotest.bool "non-object" true
    (Obs.Json.member "a" (Obs.Json.Int 3) = None)

(* {2 Sinks} *)

let test_null_sink_is_free () =
  check Alcotest.bool "null is null" true (Obs.Sink.is_null Obs.Sink.null);
  check Alcotest.bool "memory is not" false
    (Obs.Sink.is_null (Obs.Sink.memory ()));
  (* emitting into the null sink is a no-op, not an error *)
  Obs.Sink.emit Obs.Sink.null (Obs.Trace.Round_start { round = 1 });
  Obs.Sink.flush Obs.Sink.null

let test_memory_sink_orders_events () =
  let sink = Obs.Sink.memory () in
  let evs =
    [
      Obs.Trace.Round_start { round = 1 };
      Obs.Trace.Send { round = 1; src = 0; dst = Some 1; cls = "token" };
      Obs.Trace.Run_end { rounds = 1; completed = true; messages = 1 };
    ]
  in
  List.iter (Obs.Sink.emit sink) evs;
  check Alcotest.bool "events in emission order" true
    (Obs.Sink.events sink = evs);
  Alcotest.check_raises "events on non-memory sink"
    (Invalid_argument "Sink.events: not a memory sink") (fun () ->
      ignore (Obs.Sink.events Obs.Sink.null))

let test_multi_and_custom_sinks () =
  let seen = ref 0 in
  let mem = Obs.Sink.memory () in
  let sink = Obs.Sink.Multi [ mem; Obs.Sink.Custom (fun _ -> incr seen) ] in
  Obs.Sink.emit sink (Obs.Trace.Phase { name = "p"; round = 0 });
  Obs.Sink.emit sink (Obs.Trace.Round_start { round = 1 });
  check Alcotest.int "custom saw both" 2 !seen;
  check Alcotest.int "memory saw both" 2 (List.length (Obs.Sink.events mem))

(* {2 Engine trace emission}

   Run the gossip single-source protocol with a Memory sink and check
   the stream against the ledger — the same invariants `dynspread run
   --trace --json` is specified to satisfy. *)

let traced_run () =
  let n = 10 and k = 15 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let schedule =
    Adversary.Schedule.stabilized ~sigma:2
      (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:n ~rate:0.25)
  in
  let sink = Obs.Sink.memory () in
  let result, _ =
    Gossip.Runners.single_source ~instance
      ~env:(Gossip.Runners.Oblivious schedule) ~obs:sink ()
  in
  (result, Obs.Sink.events sink)

let test_trace_send_count_matches_ledger () =
  let result, events = traced_run () in
  let sends =
    List.length
      (List.filter
         (function Obs.Trace.Send _ -> true | _ -> false)
         events)
  in
  check Alcotest.int "send events = ledger total"
    (Engine.Ledger.total result.Engine.Run_result.ledger)
    sends

let test_trace_graph_changes_match_tc () =
  let result, events = traced_run () in
  let added, removed =
    List.fold_left
      (fun (a, r) -> function
        | Obs.Trace.Graph_change { added; removed; _ } ->
            (a + added, r + removed)
        | _ -> (a, r))
      (0, 0) events
  in
  check Alcotest.int "sum of added = TC"
    (Engine.Ledger.tc result.Engine.Run_result.ledger)
    added;
  check Alcotest.int "sum of removed = removals"
    (Engine.Ledger.removals result.Engine.Run_result.ledger)
    removed

let test_trace_round_structure () =
  let result, events = traced_run () in
  (* First event: the round-0 Progress snapshot; last: Run_end with the
     run's totals; rounds count and numbering match the result. *)
  (match events with
  | Obs.Trace.Progress { round = 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "trace must open with a round-0 Progress");
  (match List.rev events with
  | Obs.Trace.Run_end { rounds; completed; messages } :: _ ->
      check Alcotest.int "run_end rounds" result.Engine.Run_result.rounds
        rounds;
      check Alcotest.bool "run_end completed"
        result.Engine.Run_result.completed completed;
      check Alcotest.int "run_end messages"
        (Engine.Ledger.total result.Engine.Run_result.ledger)
        messages
  | _ -> Alcotest.fail "trace must close with Run_end");
  let starts =
    List.filter_map
      (function Obs.Trace.Round_start { round } -> Some round | _ -> None)
      events
  in
  check Alcotest.int "one Round_start per round"
    result.Engine.Run_result.rounds (List.length starts);
  check Alcotest.bool "rounds numbered 1.." true
    (starts = List.init (List.length starts) (fun i -> i + 1));
  (* Within the stream, every Send of round r comes after Round_start r
     (events stay in engine-loop order). *)
  let ordered, _ =
    List.fold_left
      (fun (ok, cur) ev ->
        match ev with
        | Obs.Trace.Round_start { round } -> (ok && round = cur + 1, round)
        | Obs.Trace.Send { round; _ }
        | Obs.Trace.Graph_change { round; _ } ->
            (ok && round = cur, cur)
        | _ -> (ok, cur))
      (true, 0) events
  in
  check Alcotest.bool "per-round events follow their Round_start" true ordered

let test_jsonl_sink_lines_parse () =
  let path = Filename.temp_file "dynspread_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Obs.Sink.jsonl oc in
      let n = 8 in
      let instance = Gossip.Instance.single_source ~n ~k:8 ~source:0 in
      let schedule =
        Adversary.Oblivious.static
          (Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed:1) ~n
             ~p:0.3)
      in
      (let result, _ =
         Gossip.Runners.single_source ~instance
           ~env:(Gossip.Runners.Oblivious schedule)
           ~obs:sink ()
       in
       ignore result);
      Obs.Sink.close sink;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check Alcotest.bool "trace is non-empty" true (lines <> []);
      List.iter
        (fun line ->
          match Obs.Json.of_string line with
          | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e
          | Ok v ->
              if Obs.Json.member "ev" v = None then
                Alcotest.failf "line lacks \"ev\" discriminator: %S" line)
        lines)

(* {2 Metrics} *)

let test_metrics_counters_and_gauges () =
  let m = Obs.Metrics.create () in
  check Alcotest.int "unknown counter is 0" 0 (Obs.Metrics.counter m "x");
  Obs.Metrics.incr m "x";
  Obs.Metrics.incr m ~by:4 "x";
  check Alcotest.int "counter accumulates" 5 (Obs.Metrics.counter m "x");
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Obs.Metrics.incr m ~by:(-1) "x");
  check Alcotest.bool "unknown gauge" true (Obs.Metrics.gauge m "g" = None);
  Obs.Metrics.set_gauge m "g" 1.5;
  Obs.Metrics.set_gauge m "g" 2.5;
  check Alcotest.bool "gauge is last write" true
    (Obs.Metrics.gauge m "g" = Some 2.5)

let test_metrics_histogram_summary () =
  let m = Obs.Metrics.create () in
  check Alcotest.bool "empty histogram" true
    (Obs.Metrics.summary m "h" = None);
  List.iter
    (fun x -> Obs.Metrics.observe m "h" (float_of_int x))
    (List.init 100 (fun i -> i + 1));
  match Obs.Metrics.summary m "h" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      check Alcotest.int "count" 100 s.Obs.Metrics.count;
      check (Alcotest.float 1e-9) "sum" 5050. s.Obs.Metrics.sum;
      check (Alcotest.float 1e-9) "min" 1. s.Obs.Metrics.min;
      check (Alcotest.float 1e-9) "max" 100. s.Obs.Metrics.max;
      check (Alcotest.float 1e-9) "mean" 50.5 s.Obs.Metrics.mean;
      check (Alcotest.float 1e-9) "p50" 50. s.Obs.Metrics.p50;
      check (Alcotest.float 1e-9) "p95" 95. s.Obs.Metrics.p95;
      check (Alcotest.float 1e-9) "p99" 99. s.Obs.Metrics.p99

let test_metrics_to_json_parses () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "sends";
  Obs.Metrics.set_gauge m "alpha" 1.;
  Obs.Metrics.observe m "latency" 0.25;
  let j = Obs.Metrics.to_json m in
  check Alcotest.bool "registry JSON round-trips" true
    (Obs.Json.of_string (Obs.Json.to_string j) = Ok j)

(* {2 Flat timing} *)

let test_timer_records_span () =
  let m = Obs.Metrics.create () in
  let x = Obs.Span.observe_span ~metrics:m ~name:"work" (fun () -> 7) in
  check Alcotest.int "body result returned" 7 x;
  (* span recorded even when the body raises *)
  (try
     Obs.Span.observe_span ~metrics:m ~name:"work" (fun () ->
         failwith "boom")
   with Failure _ -> ());
  match Obs.Metrics.summary m "work" with
  | None -> Alcotest.fail "span not recorded"
  | Some s ->
      check Alcotest.int "both spans recorded" 2 s.Obs.Metrics.count;
      check Alcotest.bool "non-negative" true (s.Obs.Metrics.min >= 0.)

(* {2 Report} *)

let test_report_matches_ledger () =
  (* The `run --json` smoke test, without the process boundary: build
     the report from a real run and check its fields against the
     ledger. *)
  let result, _ = traced_run () in
  let ledger = result.Engine.Run_result.ledger in
  let report = Engine.Run_result.to_report ~name:"smoke" result in
  check Alcotest.int "messages" (Engine.Ledger.total ledger)
    report.Obs.Report.messages;
  check Alcotest.int "tc" (Engine.Ledger.tc ledger) report.Obs.Report.tc;
  check Alcotest.int "learnings"
    (Engine.Ledger.learnings ledger)
    report.Obs.Report.learnings;
  check Alcotest.int "class counts sum to total"
    (Engine.Ledger.total ledger)
    (List.fold_left (fun acc (_, c) -> acc + c) 0
       report.Obs.Report.class_counts);
  check Alcotest.int "max load" (Engine.Ledger.max_load ledger)
    report.Obs.Report.max_load;
  let j = Obs.Report.to_json report in
  check Alcotest.bool "schema field" true
    (Obs.Json.member "schema" j
    = Some (Obs.Json.String "dynspread-report/v1"));
  check Alcotest.bool "report JSON round-trips" true
    (match Obs.Json.of_string (Obs.Json.to_string j) with
    | Ok j' -> Obs.Json.member "messages" j' = Obs.Json.member "messages" j
    | Error _ -> false)

let test_null_sink_matches_traced_run () =
  (* Tracing must be purely observational: the same seeded run with and
     without a sink produces the same ledger. *)
  let run obs =
    let n = 10 and k = 15 in
    let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
    let schedule =
      Adversary.Schedule.stabilized ~sigma:2
        (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:n ~rate:0.25)
    in
    let result, _ =
      Gossip.Runners.single_source ~instance
        ~env:(Gossip.Runners.Oblivious schedule) ?obs ()
    in
    result
  in
  let plain = run None and traced = run (Some (Obs.Sink.memory ())) in
  check Alcotest.int "same rounds" plain.Engine.Run_result.rounds
    traced.Engine.Run_result.rounds;
  check Alcotest.int "same messages"
    (Engine.Ledger.total plain.Engine.Run_result.ledger)
    (Engine.Ledger.total traced.Engine.Run_result.ledger);
  check Alcotest.int "same tc"
    (Engine.Ledger.tc plain.Engine.Run_result.ledger)
    (Engine.Ledger.tc traced.Engine.Run_result.ledger)

(* {2 Phase markers (Algorithm 2)} *)

let test_rw_phase_markers () =
  let n = 12 and k = 12 in
  let instance =
    Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed:2) ~n ~k ~s:n
  in
  let schedule = Adversary.Oblivious.fresh_random ~seed:2 ~n ~p:0.3 in
  let sink = Obs.Sink.memory () in
  let r =
    Gossip.Runners.oblivious_rw ~instance ~schedule ~seed:2 ~const_f:0.05
      ~force_rw:true ~obs:sink ()
  in
  check Alcotest.bool "completed" true r.Gossip.Oblivious_rw.completed;
  let phases =
    List.filter_map
      (function Obs.Trace.Phase { name; _ } -> Some name | _ -> None)
      (Obs.Sink.events sink)
  in
  check
    (Alcotest.list Alcotest.string)
    "both phases marked, in order" [ "random-walk"; "multi-source" ] phases

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json integral floats stay floats", `Quick,
     test_json_integral_float_stays_float);
    ("json non-finite floats", `Quick, test_json_nonfinite_is_null);
    ("json parse errors", `Quick, test_json_parse_errors);
    ("json member", `Quick, test_json_member);
    ("null sink is free", `Quick, test_null_sink_is_free);
    ("memory sink orders events", `Quick, test_memory_sink_orders_events);
    ("multi and custom sinks", `Quick, test_multi_and_custom_sinks);
    ("trace send count = ledger total", `Quick,
     test_trace_send_count_matches_ledger);
    ("trace graph changes = TC", `Quick, test_trace_graph_changes_match_tc);
    ("trace round structure", `Quick, test_trace_round_structure);
    ("jsonl sink lines parse", `Quick, test_jsonl_sink_lines_parse);
    ("metrics counters and gauges", `Quick, test_metrics_counters_and_gauges);
    ("metrics histogram summary", `Quick, test_metrics_histogram_summary);
    ("metrics json parses", `Quick, test_metrics_to_json_parses);
    ("timer records spans", `Quick, test_timer_records_span);
    ("report matches ledger", `Quick, test_report_matches_ledger);
    ("tracing is observation-only", `Quick,
     test_null_sink_matches_traced_run);
    ("algorithm 2 phase markers", `Quick, test_rw_phase_markers);
  ]
