(* The span profiler, its exporters, the Prometheus exposition
   writer, the perf-baseline compare, and the durability guarantees of
   JSONL sinks (a killed run must never leave a torn trace line). *)

let check = Alcotest.check

(* {2 Span basics} *)

let chrome_events prof =
  match Obs.Json.member "traceEvents" (Obs.Span.to_chrome_json prof) with
  | Some (Obs.Json.List evs) -> evs
  | _ -> Alcotest.fail "chrome export lacks traceEvents"

let x_events prof =
  List.filter
    (fun ev -> Obs.Json.member "ph" ev = Some (Obs.Json.String "X"))
    (chrome_events prof)

let field name ev =
  match Obs.Json.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "event lacks %S" name

let str_field name ev =
  match field name ev with
  | Obs.Json.String s -> s
  | _ -> Alcotest.failf "field %S is not a string" name

let test_span_nesting () =
  let prof = Obs.Span.create () in
  Obs.Span.enter prof ~cat:"round" "round";
  Obs.Span.enter prof ~cat:"phase" "send";
  Obs.Span.leave prof;
  Obs.Span.enter prof ~cat:"phase" "receive";
  Obs.Span.leave prof;
  Obs.Span.leave prof;
  check Alcotest.int "three spans stored" 3 (Obs.Span.span_count prof);
  check Alcotest.int "none dropped" 0 (Obs.Span.dropped prof);
  let xs = x_events prof in
  check Alcotest.int "three X events" 3 (List.length xs);
  let names = List.map (str_field "name") xs in
  check
    (Alcotest.list Alcotest.string)
    "recorded in entry order" [ "round"; "send"; "receive" ] names;
  (* The nested phases appear in the folded stacks under the round. *)
  List.iter
    (fun ev ->
      match field "dur" ev with
      | Obs.Json.Float d ->
          check Alcotest.bool "closed span has dur >= 0" true (d >= 0.)
      | _ -> Alcotest.fail "dur is not a float")
    xs

let test_span_folded_paths () =
  let prof = Obs.Span.create () in
  Obs.Span.with_span prof "outer" (fun () ->
      Obs.Span.with_span prof "inner" (fun () ->
          (* Make the inner span long enough that integer-µs self time
             survives the subtraction. *)
          ignore (Sys.opaque_identity (Array.init 50_000 Fun.id));
          let t0 = Obs.Span.now_s () in
          while Obs.Span.now_s () -. t0 < 0.002 do
            ()
          done));
  let folded = Obs.Span.to_folded prof in
  check Alcotest.bool "inner path present" true
    (Astring.String.is_infix ~affix:"main;outer;inner " folded)

let test_span_with_span_on_raise () =
  let prof = Obs.Span.create () in
  (try
     Obs.Span.with_span prof "body" (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "span recorded despite raise" 1
    (Obs.Span.span_count prof);
  match x_events prof with
  | [ ev ] -> (
      match field "dur" ev with
      | Obs.Json.Float d -> check Alcotest.bool "closed" true (d >= 0.)
      | _ -> Alcotest.fail "dur missing")
  | _ -> Alcotest.fail "expected exactly one event"

let test_span_counters_accumulate () =
  let prof = Obs.Span.create () in
  Obs.Span.with_span prof "work" (fun () ->
      Obs.Span.add_counter prof "msgs" 3.;
      Obs.Span.add_counter prof "msgs" 4.);
  (* No open span: silently ignored. *)
  Obs.Span.add_counter prof "msgs" 100.;
  match x_events prof with
  | [ ev ] -> (
      match Obs.Json.member "msgs" (field "args" ev) with
      | Some (Obs.Json.Float v) -> check (Alcotest.float 0.) "summed" 7. v
      | _ -> Alcotest.fail "counter missing from args")
  | _ -> Alcotest.fail "expected exactly one event"

let test_span_limit_drops () =
  let prof = Obs.Span.create ~limit:2 () in
  for _ = 1 to 4 do
    Obs.Span.with_span prof "s" (fun () -> ())
  done;
  check Alcotest.int "stored at limit" 2 (Obs.Span.span_count prof);
  check Alcotest.int "excess counted" 2 (Obs.Span.dropped prof);
  match
    Obs.Json.member "otherData" (Obs.Span.to_chrome_json prof)
  with
  | Some od ->
      check Alcotest.bool "export surfaces drop count" true
        (Obs.Json.member "dropped" od = Some (Obs.Json.Int 2))
  | None -> Alcotest.fail "otherData missing"

let test_span_worker_lanes () =
  let prof = Obs.Span.create () in
  Obs.Span.with_span prof "main-work" (fun () -> ());
  let w = Obs.Span.worker prof ~tid:2 ~lane:"sweep-w1" in
  Obs.Span.with_span w "worker-work" (fun () -> ());
  check Alcotest.int "lanes counted separately before absorb" 1
    (Obs.Span.span_count prof);
  Obs.Span.absorb prof ~from:w;
  check Alcotest.int "absorbed lane counts" 2 (Obs.Span.span_count prof);
  let metas =
    List.filter
      (fun ev -> Obs.Json.member "ph" ev = Some (Obs.Json.String "M"))
      (chrome_events prof)
  in
  let lane_names =
    List.filter_map
      (fun ev ->
        match Obs.Json.member "args" ev with
        | Some args -> (
            match Obs.Json.member "name" args with
            | Some (Obs.Json.String s) -> Some s
            | _ -> None)
        | None -> None)
      metas
  in
  check
    (Alcotest.list Alcotest.string)
    "one thread_name per lane" [ "main"; "sweep-w1" ]
    (List.sort String.compare lane_names);
  let tids =
    List.sort_uniq compare
      (List.map (fun ev -> field "tid" ev) (x_events prof))
  in
  check Alcotest.int "two distinct tids" 2 (List.length tids)

let test_span_null_is_inert () =
  let prof = Obs.Span.null in
  check Alcotest.bool "is_null" true (Obs.Span.is_null prof);
  Obs.Span.enter prof "x";
  Obs.Span.add_counter prof "c" 1.;
  Obs.Span.leave prof;
  check Alcotest.int "nothing stored" 0 (Obs.Span.span_count prof);
  check Alcotest.bool "worker of null is null" true
    (Obs.Span.is_null (Obs.Span.worker prof ~tid:2 ~lane:"w"));
  check Alcotest.int "with_span passes value through" 9
    (Obs.Span.with_span prof "y" (fun () -> 9));
  check Alcotest.string "folded export empty" "" (Obs.Span.to_folded prof)

let test_span_format_of_path () =
  let fmt_name = function
    | Obs.Span.Chrome -> "chrome"
    | Obs.Span.Folded -> "folded"
  in
  let is path = fmt_name (Obs.Span.format_of_path path) in
  check Alcotest.string ".json is chrome" "chrome" (is "out/prof.json");
  check Alcotest.string ".folded is folded" "folded" (is "prof.folded");
  check Alcotest.string ".txt is folded" "folded" (is "prof.txt");
  check Alcotest.string "unknown defaults to chrome" "chrome" (is "profile")

(* {2 Engine integration: round/phase spans from a real run} *)

let test_engine_round_phase_spans () =
  let n = 10 in
  let instance = Gossip.Instance.single_source ~n ~k:12 ~source:0 in
  (* The plain comparison run re-derives the committed schedule: the
     profiled run has already moved its cursor past every round. *)
  let schedule () =
    Adversary.Schedule.stabilized ~sigma:3
      (Adversary.Oblivious.tree_rotator ~seed:5 ~n)
  in
  let prof = Obs.Span.create () in
  let result, _ =
    Gossip.Runners.single_source ~instance
      ~env:(Gossip.Runners.Oblivious (schedule ()))
      ~prof ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  let xs = x_events prof in
  let rounds =
    List.filter (fun ev -> String.equal (str_field "cat" ev) "round") xs
  in
  check Alcotest.int "one round span per executed round"
    result.Engine.Run_result.rounds (List.length rounds);
  let phase_names =
    List.filter (fun ev -> String.equal (str_field "cat" ev) "phase") xs
    |> List.map (str_field "name")
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " phase present") true
        (List.mem expected phase_names))
    [ "adversary"; "graph"; "send"; "receive" ];
  (* A profiled run must not disturb the simulation itself. *)
  let plain, _ =
    Gossip.Runners.single_source ~instance
      ~env:(Gossip.Runners.Oblivious (schedule ()))
      ()
  in
  check Alcotest.int "profiling is observation-only (messages)"
    (Engine.Ledger.total plain.Engine.Run_result.ledger)
    (Engine.Ledger.total result.Engine.Run_result.ledger);
  check Alcotest.int "profiling is observation-only (rounds)"
    plain.Engine.Run_result.rounds result.Engine.Run_result.rounds

let test_sweep_map_span_lanes_and_order () =
  let points = Array.init 8 (fun i -> i) in
  let prof = Obs.Span.create () in
  let out =
    Analysis.Sweep.map_span ~jobs:2 ~prof ~name:"sweep/test"
      (fun ~prof x ->
        Obs.Span.with_span prof "inner" (fun () -> x * x))
      points
  in
  check
    (Alcotest.array Alcotest.int)
    "results in input order"
    (Array.map (fun x -> x * x) points)
    out;
  let xs = x_events prof in
  let sweep_spans =
    List.filter (fun ev -> String.equal (str_field "cat" ev) "sweep") xs
  in
  (match sweep_spans with
  | [ ev ] ->
      check Alcotest.string "sweep span named" "sweep:sweep/test"
        (str_field "name" ev);
      let args = field "args" ev in
      check Alcotest.bool "worker-0 busy counter present" true
        (Obs.Json.member "busy_s_w0" args <> None);
      check Alcotest.bool "imbalance counter present" true
        (Obs.Json.member "imbalance" args <> None)
  | _ -> Alcotest.fail "expected exactly one sweep span");
  let inner =
    List.filter (fun ev -> String.equal (str_field "name" ev) "inner") xs
  in
  check Alcotest.int "every point's inner span survived absorb" 8
    (List.length inner);
  (* And with the null profiler every point gets the null lane.  The
     lane each point saw is checked back on the calling domain: Alcotest's
     [check] is not safe to call from a worker domain. *)
  let out2 =
    Analysis.Sweep.map_span ~jobs:2 ~name:"sweep/test"
      (fun ~prof x -> (x + 1, Obs.Span.is_null prof))
      points
  in
  Array.iter
    (fun (_, null_lane) ->
      check Alcotest.bool "null lane handed to points" true null_lane)
    out2;
  check
    (Alcotest.array Alcotest.int)
    "null-prof results in input order"
    (Array.map (fun x -> x + 1) points)
    (Array.map fst out2)

(* {2 Prometheus exposition} *)

let test_expo_exposition_format () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~by:5 "messages total";
  Obs.Metrics.set_gauge m "centers" 3.;
  List.iter (Obs.Metrics.observe m "round/dur") [ 1.; 2.; 3.; 4. ];
  let text = Obs.Expo.to_string ~namespace:"dynspread" m in
  let has affix = Astring.String.is_infix ~affix text in
  check Alcotest.bool "counter gets _total and sanitized name" true
    (has "dynspread_messages_total_total 5");
  check Alcotest.bool "counter TYPE line" true
    (has "# TYPE dynspread_messages_total_total counter");
  check Alcotest.bool "gauge line" true (has "dynspread_centers 3");
  check Alcotest.bool "summary quantile 0.5" true
    (has "dynspread_round_dur{quantile=\"0.5\"}");
  check Alcotest.bool "summary _count" true (has "dynspread_round_dur_count 4");
  check Alcotest.bool "summary _sum" true (has "dynspread_round_dur_sum 10");
  (* Every non-comment line is "name value" with a sane metric name. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.length line > 0 && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | None -> Alcotest.failf "malformed exposition line %S" line
           | Some i ->
               String.iteri
                 (fun j c ->
                   if j < i && not
                        (c = '_' || c = ':' || c = '{' || c = '}' || c = '"'
                       || c = '=' || c = '.'
                        || (c >= 'a' && c <= 'z')
                        || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9'))
                   then Alcotest.failf "bad char %C in %S" c line)
                 line)

let test_expo_empty_registry () =
  let m = Obs.Metrics.create () in
  check Alcotest.string "empty registry exposes nothing" ""
    (Obs.Expo.to_string m)

(* {2 Metrics.merge edge cases} *)

let test_merge_empty_registries () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.merge ~into:a b;
  check (Alcotest.list Alcotest.string) "still empty" []
    (Obs.Metrics.names a);
  (* Empty source into a populated target changes nothing. *)
  Obs.Metrics.incr a "c";
  Obs.Metrics.observe a "h" 1.;
  Obs.Metrics.merge ~into:a (Obs.Metrics.create ());
  check Alcotest.int "counter untouched" 1 (Obs.Metrics.counter a "c");
  check
    (Alcotest.list (Alcotest.float 0.))
    "samples untouched" [ 1. ] (Obs.Metrics.samples a "h")

let test_merge_disjoint_names () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a "only_a";
  Obs.Metrics.observe a "hist_a" 1.;
  Obs.Metrics.incr b ~by:2 "only_b";
  Obs.Metrics.set_gauge b "gauge_b" 7.;
  Obs.Metrics.observe b "hist_b" 2.;
  Obs.Metrics.merge ~into:a b;
  check Alcotest.int "a keeps its counter" 1 (Obs.Metrics.counter a "only_a");
  check Alcotest.int "b's counter appears" 2 (Obs.Metrics.counter a "only_b");
  check Alcotest.bool "b's gauge appears" true
    (Obs.Metrics.gauge a "gauge_b" = Some 7.);
  check
    (Alcotest.list Alcotest.string)
    "all names present"
    [ "gauge_b"; "hist_a"; "hist_b"; "only_a"; "only_b" ]
    (Obs.Metrics.names a)

let test_merge_histogram_append_order () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe a "h") [ 1.; 2. ];
  List.iter (Obs.Metrics.observe b "h") [ 3.; 4.; 5. ];
  Obs.Metrics.merge ~into:a b;
  check
    (Alcotest.list (Alcotest.float 0.))
    "source samples append after target's, in order" [ 1.; 2.; 3.; 4.; 5. ]
    (Obs.Metrics.samples a "h");
  (* Merging twice keeps appending — merge is not idempotent, by
     design (each worker registry is merged exactly once). *)
  Obs.Metrics.merge ~into:a b;
  check Alcotest.int "second merge appends again" 8
    (List.length (Obs.Metrics.samples a "h"))

let test_observe_span_records_on_raise () =
  let m = Obs.Metrics.create () in
  (try
     Obs.Span.observe_span ~metrics:m ~name:"failing" (fun () ->
         failwith "boom")
   with Failure _ -> ());
  match Obs.Metrics.summary m "failing" with
  | Some s -> check Alcotest.int "raise still recorded" 1 s.count
  | None -> Alcotest.fail "observe_span dropped the sample on raise"

(* {2 JSONL sink durability} *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let assert_all_lines_parse ~what path =
  let lines = read_lines path in
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: torn/bad line %S: %s" what line e)
    lines;
  lines

let test_sink_close_drains_pending () =
  let path = Filename.temp_file "dynspread_drain" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Obs.Sink.jsonl oc in
      (* A handful of events — far below the chunk size, so nothing has
         reached the channel yet. *)
      for r = 1 to 5 do
        Obs.Sink.emit sink (Obs.Trace.Round_start { round = r })
      done;
      Obs.Sink.close sink;
      close_out oc;
      let lines = assert_all_lines_parse ~what:"close" path in
      check Alcotest.int "close drained every pending line" 5
        (List.length lines))

let test_sink_killed_mid_trace_has_no_torn_line () =
  let path = Filename.temp_file "dynspread_kill" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* kill_writer.exe streams 20k events through a jsonl sink and
         SIGKILLs itself mid-trace — no close, no flush, no at_exit.
         A subprocess, not a fork: Unix.fork is unavailable once other
         tests have spawned domains. *)
      let exe =
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "kill_writer.exe"
      in
      let pid =
        Unix.create_process exe [| exe; path |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      check Alcotest.bool "child was killed, not exited" true
        (status = Unix.WSIGNALED Sys.sigkill);
      let lines = assert_all_lines_parse ~what:"sigkill mid-trace" path in
      (* 20k sends are several line-aligned chunks, so a prefix must
         have reached the file even though the run never flushed. *)
      check Alcotest.bool "a chunk-aligned prefix survived" true
        (List.length lines > 1000))

(* {2 Baseline compare} *)

let summary_json ~e1 ~ns =
  Printf.sprintf
    {|{"schema":"dynspread-bench/v1","seed":42,
       "benchmarks":[{"name":"b1","ns_per_run":%s},
                     {"name":"b2","ns_per_run":null}],
       "experiments":[{"name":"sweep/e1-point","seconds":%g}]}|}
    ns e1

let parse_summary s =
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "bad summary fixture: %s" e
  | Ok j -> (
      match Analysis.Baseline.of_json j with
      | Error e -> Alcotest.failf "summary rejected: %s" e
      | Ok t -> t)

let test_baseline_within_tolerance () =
  let baseline = parse_summary (summary_json ~e1:10. ~ns:"1000.0") in
  let current = parse_summary (summary_json ~e1:10.5 ~ns:"1040.0") in
  let c =
    Analysis.Baseline.diff ~tolerance_pct:10. ~baseline ~current ()
  in
  check Alcotest.bool "no regression inside the band" false
    (Analysis.Baseline.regressed c);
  check Alcotest.int "both comparable entries within" 2
    c.Analysis.Baseline.within;
  check Alcotest.int "null ns_per_run rows are skipped" 0
    (List.length c.Analysis.Baseline.missing)

let test_baseline_detects_regression () =
  let baseline = parse_summary (summary_json ~e1:10. ~ns:"1000.0") in
  let current = parse_summary (summary_json ~e1:15. ~ns:"1010.0") in
  let c =
    Analysis.Baseline.diff ~tolerance_pct:25. ~baseline ~current ()
  in
  check Alcotest.bool "injected +50%% regression flagged" true
    (Analysis.Baseline.regressed c);
  (match c.Analysis.Baseline.regressions with
  | [ d ] ->
      check Alcotest.string "the experiment regressed" "sweep/e1-point"
        d.Analysis.Baseline.entry_name;
      check Alcotest.bool "pct is +50" true
        (Float.abs (d.Analysis.Baseline.pct -. 50.) < 1e-9)
  | _ -> Alcotest.fail "expected exactly one regression");
  check Alcotest.bool "report renders" true
    (List.length (Analysis.Baseline.render c) >= 2)

let test_baseline_improvement_and_missing () =
  let baseline = parse_summary (summary_json ~e1:10. ~ns:"1000.0") in
  let current =
    parse_summary
      {|{"schema":"dynspread-bench/v1","seed":42,
         "benchmarks":[],
         "experiments":[{"name":"sweep/e1-point","seconds":4.0}]}|}
  in
  let c =
    Analysis.Baseline.diff ~tolerance_pct:25. ~baseline ~current ()
  in
  check Alcotest.int "faster run listed as improvement" 1
    (List.length c.Analysis.Baseline.improvements);
  (* b1 vanished from the current run: that is a failure, not a pass. *)
  check Alcotest.bool "missing baseline entry regresses" true
    (Analysis.Baseline.regressed c);
  check
    (Alcotest.list Alcotest.string)
    "missing entry named" [ "b1" ]
    (List.map snd c.Analysis.Baseline.missing)

let test_baseline_noise_floor () =
  (* A 9 ms experiment tripling is scheduler noise, not a regression —
     but only while both sides stay under the floor. *)
  let baseline = parse_summary (summary_json ~e1:0.009 ~ns:"1000.0") in
  let current = parse_summary (summary_json ~e1:0.034 ~ns:"1000.0") in
  let floor = function
    | Analysis.Baseline.Benchmark -> 0.
    | Analysis.Baseline.Experiment -> 0.05
  in
  let c =
    Analysis.Baseline.diff ~floor ~tolerance_pct:25. ~baseline ~current ()
  in
  check Alcotest.bool "sub-floor swing is not a regression" false
    (Analysis.Baseline.regressed c);
  check Alcotest.int "floored entry counts as within" 2
    c.Analysis.Baseline.within;
  (* Crossing the floor re-arms the gate: 9 ms -> 90 ms is real. *)
  let current' = parse_summary (summary_json ~e1:0.09 ~ns:"1000.0") in
  let c' =
    Analysis.Baseline.diff ~floor ~tolerance_pct:25. ~baseline
      ~current:current' ()
  in
  check Alcotest.bool "crossing the floor still regresses" true
    (Analysis.Baseline.regressed c')

let test_baseline_shard_count () =
  (* Pre-SoA summaries carry no "shards" field and were all sequential:
     they must parse as shards = 1, and an explicit count round-trips. *)
  let old = parse_summary (summary_json ~e1:10. ~ns:"1000.0") in
  check Alcotest.int "absent shards field reads as sequential" 1
    old.Analysis.Baseline.shards;
  let sharded =
    parse_summary
      {|{"schema":"dynspread-bench/v1","seed":42,"shards":4,
         "benchmarks":[],"experiments":[]}|}
  in
  check Alcotest.int "explicit shard count round-trips" 4
    sharded.Analysis.Baseline.shards

let test_baseline_rejects_other_schemas () =
  (match
     Obs.Json.of_string {|{"schema":"something-else/v9"}|}
     |> Result.get_ok |> Analysis.Baseline.of_json
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted");
  match
    Obs.Json.of_string {|{"benchmarks":[]}|}
    |> Result.get_ok |> Analysis.Baseline.of_json
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema-less document accepted"

let suite =
  [
    ("span nesting and export", `Quick, test_span_nesting);
    ("span folded paths", `Quick, test_span_folded_paths);
    ("span closes on raise", `Quick, test_span_with_span_on_raise);
    ("span counters accumulate", `Quick, test_span_counters_accumulate);
    ("span limit drops, export says so", `Quick, test_span_limit_drops);
    ("span worker lanes absorb", `Quick, test_span_worker_lanes);
    ("null profiler is inert", `Quick, test_span_null_is_inert);
    ("profile format from path", `Quick, test_span_format_of_path);
    ("engine emits round/phase spans", `Quick,
     test_engine_round_phase_spans);
    ("sweep map_span lanes and order", `Quick,
     test_sweep_map_span_lanes_and_order);
    ("prometheus exposition format", `Quick, test_expo_exposition_format);
    ("exposition of empty registry", `Quick, test_expo_empty_registry);
    ("merge: empty registries", `Quick, test_merge_empty_registries);
    ("merge: disjoint names", `Quick, test_merge_disjoint_names);
    ("merge: histogram append order", `Quick,
     test_merge_histogram_append_order);
    ("observe_span records on raise", `Quick,
     test_observe_span_records_on_raise);
    ("sink close drains pending lines", `Quick,
     test_sink_close_drains_pending);
    ("sink killed mid-trace: no torn line", `Quick,
     test_sink_killed_mid_trace_has_no_torn_line);
    ("baseline within tolerance", `Quick, test_baseline_within_tolerance);
    ("baseline detects regression", `Quick,
     test_baseline_detects_regression);
    ("baseline improvement and missing", `Quick,
     test_baseline_improvement_and_missing);
    ("baseline noise floor", `Quick, test_baseline_noise_floor);
    ("baseline shard count", `Quick, test_baseline_shard_count);
    ("baseline rejects other schemas", `Quick,
     test_baseline_rejects_other_schemas);
  ]
