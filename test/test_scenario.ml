(* Tests for the scenario subsystem: the NDJSON trace codec and its
   error discipline, record -> replay round-trips across every
   oblivious family (graphs and run reports, bit for bit), the
   contact-sequence importer's documented normalizations, scenario-spec
   validation, and the spec runner's jobs-independence. *)

let check = Alcotest.check

let graphs_equal sched_a sched_b ~rounds =
  let ok = ref true in
  for r = 1 to rounds do
    if
      not
        (Dynet.Graph.same_edges
           (Adversary.Schedule.get sched_a r)
           (Adversary.Schedule.get sched_b r))
    then ok := false
  done;
  !ok

(* {2 Trace codec} *)

let test_roundtrip_families () =
  (* Recording runs each schedule's cursor to round 25, so the
     comparison reads a second, freshly constructed copy. *)
  List.iter2
    (fun (name, sched) (_, fresh) ->
      let trace = Scenario.Record.of_schedule ~rounds:25 sched in
      let reparsed =
        match Scenario.Trace_io.of_string (Scenario.Trace_io.to_string trace) with
        | Ok t -> t
        | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
      in
      let replayed = Scenario.Replay.schedule reparsed in
      check Alcotest.bool
        (name ^ ": replayed graphs match the original schedule")
        true
        (graphs_equal fresh replayed ~rounds:25))
    (Adversary.Oblivious.all_named ~n:10 ~seed:3)
    (Adversary.Oblivious.all_named ~n:10 ~seed:3)

let test_roundtrip_compositions () =
  let compositions () =
    let base = Adversary.Oblivious.tree_rotator ~seed:7 ~n:9 in
    let stabilized = Adversary.Schedule.stabilized ~sigma:4 base in
    let overlaid =
      Adversary.Schedule.overlay base
        (Adversary.Oblivious.fresh_random ~seed:8 ~n:9 ~p:0.1)
    in
    [ ("stabilized", stabilized); ("overlay", overlaid) ]
  in
  List.iter2
    (fun (name, sched) (_, fresh) ->
      let trace = Scenario.Record.of_schedule ~rounds:20 sched in
      let replayed = Scenario.Replay.schedule trace in
      check Alcotest.bool (name ^ " composition round-trips") true
        (graphs_equal fresh replayed ~rounds:20))
    (compositions ()) (compositions ())

let test_encoding_is_byte_deterministic () =
  let sched = Adversary.Oblivious.rewiring ~seed:5 ~n:8 ~extra:8 ~rate:0.3 in
  let s1 =
    Scenario.Trace_io.to_string (Scenario.Record.of_schedule ~rounds:15 sched)
  in
  let sched' = Adversary.Oblivious.rewiring ~seed:5 ~n:8 ~extra:8 ~rate:0.3 in
  let s2 =
    Scenario.Trace_io.to_string (Scenario.Record.of_schedule ~rounds:15 sched')
  in
  check Alcotest.string "same schedule, same bytes" s1 s2;
  (* parse -> re-encode is the identity on the bytes too *)
  match Scenario.Trace_io.of_string s1 with
  | Ok t -> check Alcotest.string "reparse re-encodes identically" s1
              (Scenario.Trace_io.to_string t)
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_codec_errors () =
  let fails ?(msg_has = "") s =
    match Scenario.Trace_io.of_string s with
    | Ok _ -> Alcotest.failf "accepted bad trace: %s" s
    | Error e ->
        if msg_has <> "" && not (Astring.String.is_infix ~affix:msg_has e)
        then Alcotest.failf "error %S does not mention %S" e msg_has
  in
  let header = {|{"schema":"dynspread-trace/v1","n":4,"provenance":"t"}|} in
  fails ~msg_has:"line 1" {|{"schema":"other/v9","n":4,"provenance":"t"}|};
  fails ~msg_has:"line 1" {|{"n":4,"provenance":"t"}|};
  fails ~msg_has:"line 2"
    (header ^ "\n" ^ {|{"round":2,"add":[],"del":[]}|});
  (* non-contiguous rounds *)
  fails ~msg_has:"line 3"
    (header ^ "\n" ^ {|{"round":1,"add":[[0,1]],"del":[]}|} ^ "\n"
     ^ {|{"round":3,"add":[],"del":[]}|});
  fails (header ^ "\n" ^ {|{"round":1,"add":[[0]],"del":[]}|});
  fails (header ^ "\n" ^ {|{"round":1,"add":"x","del":[]}|});
  fails "";
  fails "not json at all"

let test_validate_catches_semantic_breaks () =
  let header = {|{"schema":"dynspread-trace/v1","n":4,"provenance":"t"}|} in
  let parse s =
    match Scenario.Trace_io.of_string s with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let invalid expected s =
    match Scenario.Trace_io.validate (parse s) with
    | Ok _ -> Alcotest.failf "validate accepted: %s" s
    | Error e -> check Alcotest.string "validate error" expected e
  in
  let not_canonical =
    "round 1: add pairs must be canonical (u < v), strictly sorted, \
     duplicate-free"
  in
  (* add of an already-present edge *)
  invalid "trace round 2: adding present edge (0, 1)"
    (header ^ "\n" ^ {|{"round":1,"add":[[0,1],[1,2],[2,3]],"del":[]}|}
     ^ "\n" ^ {|{"round":2,"add":[[0,1]],"del":[]}|});
  (* del of an absent edge *)
  invalid "trace round 1: deleting absent edge (0, 3)"
    (header ^ "\n" ^ {|{"round":1,"add":[[0,1],[1,2],[2,3]],"del":[[0,3]]}|});
  (* endpoint out of range *)
  invalid "trace round 1: endpoint out of range in (0, 9)"
    (header ^ "\n" ^ {|{"round":1,"add":[[0,9]],"del":[]}|});
  (* self-loop: caught by the canonical-form check before replay *)
  invalid not_canonical
    (header ^ "\n" ^ {|{"round":1,"add":[[2,2]],"del":[]}|});
  (* non-canonical pair order *)
  invalid not_canonical
    (header ^ "\n" ^ {|{"round":1,"add":[[1,0]],"del":[]}|});
  (* a good trace validates, with the right stats *)
  let good =
    parse
      (header ^ "\n" ^ {|{"round":1,"add":[[0,1],[1,2],[2,3]],"del":[]}|}
       ^ "\n" ^ {|{"round":2,"add":[],"del":[[1,2]]}|})
  in
  match Scenario.Trace_io.validate good with
  | Error e -> Alcotest.failf "good trace rejected: %s" e
  | Ok st ->
      check Alcotest.int "TC is the summed adds" 3
        st.Scenario.Trace_io.stat_tc;
      check Alcotest.int "max edges" 3 st.Scenario.Trace_io.stat_max_edges;
      check Alcotest.bool "round 2 is disconnected" true
        (st.Scenario.Trace_io.first_disconnected = Some 2)

(* The tails past several wraps of the trace, each read forward on one
   schedule: Loop re-steps the cycle from the empty graph at every
   wrap, Hold hands back the last graph itself, and Fail raises at the
   first round past the trace however far ahead it is asked. *)
let test_replay_past_end () =
  let r_max = 5 in
  let sched = Adversary.Oblivious.tree_rotator ~seed:2 ~n:6 in
  let trace = Scenario.Record.of_schedule ~rounds:r_max sched in
  let recorded =
    let fresh = Adversary.Oblivious.tree_rotator ~seed:2 ~n:6 in
    Array.init r_max (fun i ->
        Dynet.Graph.edges (Adversary.Schedule.get fresh (i + 1)))
  in
  let replay past_end = Scenario.Replay.schedule ~past_end trace in
  let loop = replay Scenario.Replay.Loop
  and hold = replay Scenario.Replay.Hold
  and fail = replay Scenario.Replay.Fail in
  let last = ref (Dynet.Graph.empty ~n:6) in
  for r = 1 to 3 * r_max do
    let base = ((r - 1) mod r_max) + 1 in
    check
      Alcotest.(array int)
      (Printf.sprintf "Loop round %d has round %d's keys" r base)
      recorded.(base - 1)
      (Dynet.Graph.edges (Adversary.Schedule.get loop r));
    let g = Adversary.Schedule.get hold r in
    if r <= r_max then begin
      last := g;
      check
        Alcotest.(array int)
        (Printf.sprintf "Fail serves recorded round %d" r)
        recorded.(r - 1)
        (Dynet.Graph.edges (Adversary.Schedule.get fail r))
    end
    else begin
      (* dynlint: allow physical-eq — Hold's contract is the last
         recorded graph itself, not a copy of it *)
      let same = g == !last in
      check Alcotest.bool (Printf.sprintf "Hold round %d is the last graph" r)
        true same;
      check Alcotest.bool
        (Printf.sprintf "Fail at round %d names round %d of %d" r (r_max + 1)
           r_max)
        true
        (match Adversary.Schedule.get (replay Scenario.Replay.Fail) r with
        | exception Engine.Engine_error.Schedule_exhausted { round; available }
          ->
            round = r_max + 1 && available = r_max
        | _ -> false)
    end
  done

(* Replay does not require a validated trace: out-of-order and
   non-canonical pairs apply as if one at a time, and the first
   inconsistent pair (in list order, adds before dels) names itself. *)
let test_replay_unvalidated_deltas () =
  let base =
    [
      { Scenario.Trace_io.round = 1;
        add = [ (3, 4); (1, 0); (2, 1); (0, 4) ]; del = [] };
      { round = 2; add = [ (2, 3); (1, 3) ]; del = [ (4, 0); (2, 1) ] };
    ]
  in
  let replay extra =
    Scenario.Replay.schedule (Scenario.Trace_io.make ~n:5 (base @ extra))
  in
  let pairs g =
    let acc = ref [] in
    Dynet.Graph.iter_pairs (fun u v -> acc := (u, v) :: !acc) g;
    List.rev !acc
  in
  let edges = Alcotest.(list (pair int int)) in
  let ok = replay [] in
  check edges "unsorted round 1" [ (0, 1); (0, 4); (1, 2); (3, 4) ]
    (pairs (Adversary.Schedule.get ok 1));
  check edges "unsorted round 2" [ (0, 1); (1, 3); (2, 3); (3, 4) ]
    (pairs (Adversary.Schedule.get ok 2));
  let fails name msg extra =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Adversary.Schedule.get (replay extra) 3))
  in
  fails "duplicated add" "trace round 3: adding present edge (2, 0)"
    [ { round = 3; add = [ (0, 2); (4, 1); (2, 0) ]; del = [] } ];
  fails "present-edge add" "trace round 3: adding present edge (4, 3)"
    [ { round = 3; add = [ (0, 2); (4, 3) ]; del = [ (9, 9) ] } ];
  fails "absent-edge delete" "trace round 3: deleting absent edge (2, 4)"
    [ { round = 3; add = [ (4, 2) ]; del = [ (4, 2); (0, 1); (2, 4) ] } ];
  fails "out-of-range add before a later present add"
    "trace round 3: endpoint out of range in (7, 1)"
    [ { round = 3; add = [ (0, 2); (7, 1); (3, 4) ]; del = [] } ]

(* {2 The engine recorder hook} *)

let test_on_graph_records_realized_schedule () =
  let n = 8 and k = 6 in
  let committed () =
    Adversary.Oblivious.rewiring ~seed:4 ~n ~extra:n ~rate:0.3
  in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let record engine =
    let module E = (val engine : Engine.Engine_sig.ENGINE) in
    let recorder = Scenario.Record.create ~n () in
    let result, _ =
      E.Unicast.run Gossip.Single_source.protocol
        ~ctx:(Engine.Ctx.make ~on_graph:(Scenario.Record.observe recorder) ())
        ~states:(Gossip.Single_source.init ~instance ())
        ~adversary:(Adversary.Schedule.unicast (committed ()))
        ~max_rounds:(Gossip.Runners.default_unicast_cap ~n ~k)
        ~stop:(Gossip.Single_source.all_complete ~k)
        ()
    in
    let rounds = Scenario.Record.recorded_rounds recorder in
    check Alcotest.int
      (E.name ^ ": one observation per executed round")
      result.Engine.Run_result.rounds rounds;
    let trace = Scenario.Record.to_trace recorder in
    check Alcotest.bool
      (E.name ^ ": recorded rounds replay the committed schedule")
      true
      (graphs_equal (committed ()) (Scenario.Replay.schedule trace) ~rounds);
    Scenario.Trace_io.to_string trace
  in
  let reference = record Engine.Reference.engine in
  List.iter
    (fun engine ->
      let module E = (val engine : Engine.Engine_sig.ENGINE) in
      check Alcotest.string
        (E.name ^ ": recording is byte-identical to reference's")
        reference (record engine))
    [ Engine.Soa.engine (); Engine.Soa.engine ~shards:2 () ]

(* {2 Record -> replay report identity (the golden guarantee)} *)

let spec_of_json_exn s =
  match Scenario.Spec.of_string s with
  | Ok spec -> spec
  | Error errs -> Alcotest.failf "spec rejected: %s" (String.concat "; " errs)

let reports_json reports =
  Array.to_list reports
  |> List.map (fun r -> Obs.Json.to_string (Obs.Report.to_json r))

let test_record_replay_report_identity () =
  (* Same name/algorithm/instance/seed; only the env representation
     differs: the builtin family vs its recording.  Reports must be
     byte-identical. *)
  let builtin =
    spec_of_json_exn
      {|{ "schema": "dynspread-scenario/v1", "name": "golden",
          "algorithm": "multi-source",
          "env": { "family": "rewiring", "rate": 0.25 },
          "n": 10, "k": 12, "s": 3, "seed": 21, "repeats": 2 }|}
  in
  let schedule =
    match
      Scenario.Runner.builtin_schedule ~env:builtin.Scenario.Spec.env
        ~sigma:builtin.Scenario.Spec.sigma ~n:10
        ~seed:builtin.Scenario.Spec.seed
    with
    | Some s -> s
    | None -> Alcotest.fail "rewiring is a committed family"
  in
  (* repeats > 1 shift the seed, so record each repeat's schedule; the
     golden path exercises repeat 0 through a file and checks that the
     repeat-1 reports differ (the seed is in the name). *)
  let trace = Scenario.Record.of_schedule ~rounds:600 schedule in
  let path = Filename.temp_file "dynspread_golden" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Scenario.Trace_io.save path trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" e);
      let replay =
        spec_of_json_exn
          (Printf.sprintf
             {|{ "schema": "dynspread-scenario/v1", "name": "golden",
                 "algorithm": "multi-source",
                 "env": { "family": "trace", "path": %S },
                 "n": 10, "k": 12, "s": 3, "seed": 21 }|}
             path)
      in
      let original =
        match Scenario.Runner.run { builtin with repeats = 1 } with
        | Ok r -> reports_json r
        | Error e -> Alcotest.failf "builtin run failed: %s" e
      in
      let replayed =
        match Scenario.Runner.run replay with
        | Ok r -> reports_json r
        | Error e -> Alcotest.failf "replay run failed: %s" e
      in
      check Alcotest.(list string)
        "replayed report is byte-identical to the original" original replayed)

let test_runner_jobs_deterministic () =
  let spec =
    spec_of_json_exn
      {|{ "schema": "dynspread-scenario/v1", "name": "jobs",
          "algorithm": "single-source",
          "env": { "family": "tree-rotator" },
          "n": 9, "k": 6, "seed": 3, "repeats": 4 }|}
  in
  let run jobs =
    match Scenario.Runner.run ~jobs spec with
    | Ok r -> reports_json r
    | Error e -> Alcotest.failf "run failed: %s" e
  in
  check Alcotest.(list string) "jobs=3 matches jobs=1" (run 1) (run 3)

let test_runner_faults_and_cutter () =
  (* A faulty run and an adaptive-adversary run both produce reports
     through the same path (values are seed-dependent; we check the
     wiring: completion metadata present, names stable). *)
  let spec =
    spec_of_json_exn
      {|{ "schema": "dynspread-scenario/v1", "name": "cutter",
          "algorithm": "multi-source",
          "env": { "family": "request-cutter", "cut_prob": 0.5 },
          "n": 10, "k": 8, "s": 2, "seed": 9,
          "faults": { "loss": 0.0 } }|}
  in
  match Scenario.Runner.run spec with
  | Error e -> Alcotest.failf "cutter run failed: %s" e
  | Ok reports ->
      check Alcotest.int "one repeat, one report" 1 (Array.length reports);
      check Alcotest.string "report name carries spec/algo/seed"
        "cutter/multi-source/seed=9" reports.(0).Obs.Report.name

(* The lower-bound adversary through the scenario runner: the same run
   as [dynspread run --protocol flooding --env lower-bound -n 32 -k 32],
   so every field but the name and the extra fields equals the golden
   CLI report. *)
let test_runner_lower_bound_matches_golden () =
  let spec =
    spec_of_json_exn
      {|{ "schema": "dynspread-scenario/v1", "name": "lb",
          "algorithm": "flooding", "env": { "family": "lower-bound" },
          "n": 32, "k": 32, "seed": 42 }|}
  in
  let golden =
    In_channel.with_open_bin "../examples/reports/flooding-lower-bound.json"
      In_channel.input_all
  in
  let shared json =
    match Obs.Json.of_string json with
    | Ok (Obs.Json.Obj fields) ->
        Obs.Json.to_string
          (Obs.Json.Obj
             (List.filter
                (fun (key, _) ->
                  not
                    (List.mem key
                       [ "name"; "n"; "k"; "s"; "seed"; "budget_n2_nk" ]))
                fields))
    | Ok _ | Error _ -> Alcotest.failf "not a JSON object: %s" json
  in
  match Scenario.Runner.run spec with
  | Error e -> Alcotest.failf "lower-bound run failed: %s" e
  | Ok reports ->
      let report = reports_json reports |> List.hd in
      check Alcotest.bool "rounds, ledger and timeline present" true
        (List.for_all
           (fun key -> Astring.String.is_infix ~affix:("\"" ^ key ^ "\"") report)
           [ "rounds"; "messages"; "tc"; "timeline" ]);
      check Alcotest.string "equal to the golden CLI report" (shared golden)
        (shared report)

(* {2 Contact-sequence importer} *)

let import_exn ?bucket ?repair content =
  match Scenario.Contacts.import ?bucket ?repair content with
  | Ok r -> r
  | Error e -> Alcotest.failf "import failed: %s" e

let test_import_normalizations () =
  let csv =
    "# comment line\n\
     0,alice,bob,20\n\
     5,bob,carol\n\
     \n\
     19,alice,bob,40\n\
     21,carol,dave,20\n\
     22,dave,dave,20\n\
     80,alice,dave,20\n\
     79,bob,carol,20\n\
     81,alice,bob,20\n"
  in
  let trace, st = import_exn ~bucket:20. csv in
  check Alcotest.int "4 distinct nodes" 4 st.Scenario.Contacts.nodes;
  check Alcotest.int "self-loop dropped" 1 st.Scenario.Contacts.self_loops;
  check Alcotest.int "same-bucket duplicate collapsed" 1
    st.Scenario.Contacts.duplicates;
  check Alcotest.int "one out-of-order row" 1
    st.Scenario.Contacts.out_of_order;
  (* buckets 0, 1, 3, 4 are occupied; bucket 2 is empty and skipped *)
  check Alcotest.int "4 imported rounds" 4
    st.Scenario.Contacts.imported_rounds;
  check Alcotest.int "1 empty bucket skipped" 1
    st.Scenario.Contacts.empty_buckets;
  check Alcotest.int "trace rounds = imported rounds" 4
    (Scenario.Trace_io.rounds trace);
  check Alcotest.int "node count compacted" 4 trace.Scenario.Trace_io.header.n;
  (* repair on by default: every round connected *)
  match Scenario.Trace_io.validate trace with
  | Error e -> Alcotest.failf "imported trace invalid: %s" e
  | Ok vst ->
      check Alcotest.bool "no disconnected rounds after repair" true
        (vst.Scenario.Trace_io.first_disconnected = None)

let test_import_repair_accounting () =
  (* two disjoint pairs: disconnected, repair must add exactly 1 edge *)
  let csv = "0,a,b\n1,c,d\n" in
  let _, st = import_exn csv in
  check Alcotest.int "one repaired round" 1
    st.Scenario.Contacts.repaired_rounds;
  check Alcotest.int "one repair edge" 1 st.Scenario.Contacts.repaired_edges;
  let trace, st' = import_exn ~repair:false csv in
  check Alcotest.int "no repair when disabled" 0
    st'.Scenario.Contacts.repaired_edges;
  match Scenario.Trace_io.validate trace with
  | Error e -> Alcotest.failf "unexpected: %s" e
  | Ok vst ->
      check Alcotest.bool "unrepaired trace reports the disconnection" true
        (vst.Scenario.Trace_io.first_disconnected = Some 1)

let test_import_node_id_gaps () =
  (* numeric labels with gaps compact to dense ids in first-seen order *)
  let trace, st = import_exn "0,100,7\n0,7,4519\n1,100,4519\n" in
  check Alcotest.int "3 nodes" 3 st.Scenario.Contacts.nodes;
  check Alcotest.int "n is compacted" 3 trace.Scenario.Trace_io.header.n

let test_import_errors () =
  let fails ?(msg_has = "") content =
    match Scenario.Contacts.import content with
    | Ok _ -> Alcotest.failf "import accepted: %s" content
    | Error e ->
        if msg_has <> "" && not (Astring.String.is_infix ~affix:msg_has e)
        then Alcotest.failf "error %S does not mention %S" e msg_has
  in
  fails ~msg_has:"line 1" "0,a\n";
  fails ~msg_has:"line 2" "0,a,b\nxx,a,b\n";
  fails ~msg_has:"line 1" "0,a,b,notadur\n";
  fails ~msg_has:"line 2" "0,a,b\n1,,b\n";
  fails ~msg_has:"no usable contacts" "# only a comment\n";
  fails ~msg_has:"no usable contacts" "0,a,a\n";
  (match Scenario.Contacts.import ~bucket:0. "0,a,b\n" with
  | Ok _ -> Alcotest.fail "bucket 0 accepted"
  | Error _ -> ());
  match Scenario.Contacts.import_file "/nonexistent/contacts.csv" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* {2 Vendored example artifacts} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_embedded_csv_matches_vendored_file () =
  check Alcotest.string "E17's embedded CSV is the vendored example file"
    (read_file "../examples/traces/office_contacts.csv")
    Scenario.Experiment.sample_contacts

let test_vendored_trace_matches_fresh_import () =
  let trace, _ =
    match
      Scenario.Contacts.import ~provenance:"import:office_contacts.csv"
        Scenario.Experiment.sample_contacts
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "import failed: %s" e
  in
  check Alcotest.string "office.trace.jsonl is exactly the fresh import"
    (read_file "../examples/traces/office.trace.jsonl")
    (Scenario.Trace_io.to_string trace)

(* Re-recording a shipped spec reproduces its vendored trace byte for
   byte.  fresh_n16 (sigma = 1: fresh-random takes no stability) pins
   Graph_gen.random_connected.  markov_n16 (sigma = 2) pins
   Stability. *)
let test_vendored_traces_match_fresh_record () =
  List.iter
    (fun (spec_file, trace_file) ->
      let spec =
        match Scenario.Spec.load ("../examples/traces/" ^ spec_file) with
        | Ok s -> s
        | Error errs ->
            Alcotest.failf "%s invalid: %s" spec_file
              (String.concat "; " errs)
      in
      let schedule =
        Scenario.Runner.builtin_schedule ~env:spec.Scenario.Spec.env
          ~sigma:spec.Scenario.Spec.sigma
          ~n:(Option.get spec.Scenario.Spec.n)
          ~seed:spec.Scenario.Spec.seed
        |> Option.get
      in
      let trace =
        Scenario.Record.of_schedule ~seed:spec.Scenario.Spec.seed
          ~provenance:
            ("oblivious:" ^ Scenario.Spec.env_family spec.Scenario.Spec.env)
          ~rounds:(Option.get spec.Scenario.Spec.max_rounds)
          schedule
      in
      check Alcotest.string
        (trace_file ^ " is exactly a fresh recording")
        (read_file ("../examples/traces/" ^ trace_file))
        (Scenario.Trace_io.to_string trace))
    [
      ("fresh_n16.scenario.json", "fresh_n16.trace.jsonl");
      ("markov_n16.scenario.json", "markov_n16.trace.jsonl");
    ]

let test_vendored_specs_validate () =
  List.iter
    (fun path ->
      match Scenario.Spec.load path with
      | Ok _ -> ()
      | Error errs ->
          Alcotest.failf "%s invalid: %s" path (String.concat "; " errs))
    [
      "../examples/p2p_churn.scenario.json";
      "../examples/traces/rotator.scenario.json";
      "../examples/traces/office.scenario.json";
      "../examples/traces/fresh_n16.scenario.json";
      "../examples/traces/markov_n16.scenario.json";
    ]

(* {2 Spec validation} *)

let test_spec_accumulates_errors () =
  match
    Scenario.Spec.of_string
      {|{ "schema": "dynspread-scenario/v1", "name": "",
          "algorithm": "quantum", "env": { "family": "static", "p": 7 },
          "k": 0, "seed": -1, "bogus": true }|}
  with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error errs ->
      let mentions affix =
        List.exists (fun e -> Astring.String.is_infix ~affix e) errs
      in
      check Alcotest.bool "several errors at once" true (List.length errs >= 5);
      check Alcotest.bool "names the bad algorithm" true (mentions "quantum");
      check Alcotest.bool "names the unknown field" true (mentions "bogus");
      check Alcotest.bool "flags the bad probability" true (mentions "\"p\"");
      check Alcotest.bool "flags k" true (mentions "\"k\"");
      check Alcotest.bool "flags the seed" true (mentions "\"seed\"")

let test_spec_combo_rules () =
  let rejected s affix =
    match Scenario.Spec.of_string s with
    | Ok _ -> Alcotest.failf "accepted: %s" s
    | Error errs ->
        check Alcotest.bool
          (Printf.sprintf "rejection mentions %S" affix)
          true
          (List.exists (fun e -> Astring.String.is_infix ~affix e) errs)
  in
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "flooding",
        "env": { "family": "request-cutter" }, "n": 8, "k": 4 }|}
    "request-cutter";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "oblivious-rw",
        "env": { "family": "tree-rotator" }, "n": 8, "k": 4,
        "faults": { "loss": 0.5 } }|}
    "fault";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "single-source",
        "env": { "family": "tree-rotator" }, "k": 4 }|}
    "\"n\"";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "single-source", "sigma": 3,
        "env": { "family": "request-cutter" }, "n": 8, "k": 4 }|}
    "sigma";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "flooding", "sigma": 2,
        "env": { "family": "fresh-random", "p": 0.25 }, "n": 8, "k": 4 }|}
    "sigma";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "flooding", "sigma": 2,
        "env": { "family": "trace", "path": "t.trace.jsonl" }, "k": 4 }|}
    "sigma";
  (* The lower-bound adversary: flooding only, no faults, no sigma. *)
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "single-source",
        "env": { "family": "lower-bound" }, "n": 8, "k": 4 }|}
    "algorithm";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "flooding",
        "env": { "family": "lower-bound" }, "n": 8, "k": 4,
        "faults": { "loss": 0.1 } }|}
    "\"faults\"";
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "flooding", "sigma": 2,
        "env": { "family": "lower-bound" }, "n": 8, "k": 4 }|}
    "sigma";
  (* Algorithm 2 caps each of its phases itself, so a spec round cap
     would be silently ignored. *)
  rejected
    {|{ "schema": "dynspread-scenario/v1", "name": "x",
        "algorithm": "oblivious-rw",
        "env": { "family": "tree-rotator" }, "n": 8, "k": 4,
        "max_rounds": 5 }|}
    "max_rounds"

let test_spec_to_json_roundtrip () =
  let spec =
    spec_of_json_exn
      {|{ "schema": "dynspread-scenario/v1", "name": "rt",
          "algorithm": "multi-source",
          "env": { "family": "edge-markovian", "p_up": 0.2, "p_down": 0.4 },
          "sigma": 2, "n": 12, "k": 9, "s": 3, "seed": 5, "repeats": 2,
          "max_rounds": 500 }|}
  in
  match Scenario.Spec.of_json (Scenario.Spec.to_json spec) with
  | Error errs ->
      Alcotest.failf "to_json not re-parseable: %s" (String.concat "; " errs)
  | Ok spec' ->
      check Alcotest.string "round-trips to the same JSON"
        (Obs.Json.to_string (Scenario.Spec.to_json spec))
        (Obs.Json.to_string (Scenario.Spec.to_json spec'))

(* A record built in code, as [dynspread run] builds one from its
   flags, is refused by [validate] with exactly the errors [of_json]
   gives for the same values in a file; a bare [{"family": f}] env
   parses to [f]'s entry in [default_envs]. *)
(* The CLI and the daemon resolve engine names through one function:
   soa takes any shard count, the others only one. *)
let test_runner_engine_of_name () =
  let name = function
    | Ok e ->
        let module E = (val e : Engine.Engine_sig.ENGINE) in
        "ok " ^ E.name
    | Error msg -> "error " ^ msg
  in
  List.iter
    (fun (engine, shards, want) ->
      check Alcotest.string
        (Printf.sprintf "%s with %d shards" engine shards)
        want
        (name (Scenario.Runner.engine_of_name engine ~shards)))
    [
      ("fastpath", 1, "ok soa");
      ("soa", 1, "ok soa");
      ("soa", 3, "ok soa-3");
      ("reference", 1, "ok " ^ Engine.Reference.name);
      ("fastpath", 2, "error shards 2 applies to the soa engine only");
      ("reference", 2, "error shards 2 applies to the soa engine only");
      ("soa", 0, "error shards 0 must be >= 1");
      ("bogus", 1, "error unknown engine \"bogus\"");
    ]

let test_spec_validate_matches_of_json () =
  let base =
    spec_of_json_exn
      {|{ "schema": "dynspread-scenario/v1", "name": "v",
          "algorithm": "multi-source", "env": { "family": "rewiring" },
          "n": 8, "k": 4, "faults": { "loss": 0.1 } }|}
  in
  (match Scenario.Spec.validate base with
  | Ok _ -> ()
  | Error errs ->
      Alcotest.failf "valid record refused: %s" (String.concat "; " errs));
  let faults = Option.get base.Scenario.Spec.faults in
  List.iter
    (fun (field, (t : Scenario.Spec.t)) ->
      let errs = function Ok _ -> [] | Error e -> e in
      let direct = errs (Scenario.Spec.validate t) in
      check Alcotest.bool (field ^ " refused") true
        (List.exists (fun e -> Astring.String.is_infix ~affix:field e) direct);
      check Alcotest.(list string) (field ^ ": same errors as of_json")
        (errs (Scenario.Spec.of_json (Scenario.Spec.to_json t)))
        direct)
    [
      ("\"k\"", { base with k = 0 });
      ("\"n\"", { base with n = Some 1 });
      ("\"sigma\"", { base with sigma = 0 });
      ("\"s\"", { base with s = 0 });
      ("\"seed\"", { base with seed = -1 });
      ("\"repeats\"", { base with repeats = 0 });
      ("\"max_rounds\"", { base with max_rounds = Some 0 });
      ("\"name\"", { base with name = "" });
      ("\"rate\"", { base with env = Rewiring { extra = None; rate = 1.5 } });
      ( "\"extra\"",
        { base with env = Rewiring { extra = Some (-1); rate = 0. } } );
      ( "\"p_up\"",
        { base with env = Edge_markovian { p_up = Some 2.; p_down = 0.3 } } );
      ("\"loss\"", { base with faults = Some { faults with loss = -0.5 } });
      ("\"restart\"", { base with faults = Some { faults with restart = 2. } });
      ( "\"max_delay\"",
        { base with faults = Some { faults with max_delay = -1 } } );
      ( "\"seed\"",
        { base with faults = Some { faults with fault_seed = Some (-2) } } );
      ("\"path\"", { base with env = Trace { path = "" } });
    ];
  List.iter
    (fun d ->
      let family = Scenario.Spec.env_family d in
      let t =
        spec_of_json_exn
          (Printf.sprintf
             {|{ "schema": "dynspread-scenario/v1", "name": "d",
                 "algorithm": "flooding", "env": { "family": %S },
                 "n": 8, "k": 4 }|}
             family)
      in
      check Alcotest.string (family ^ " defaults")
        (Obs.Json.to_string (Scenario.Spec.to_json { t with env = d }))
        (Obs.Json.to_string (Scenario.Spec.to_json t)))
    (List.filter
       (function Scenario.Spec.Request_cutter _ -> false | _ -> true)
       Scenario.Spec.default_envs)

(* {2 E17} *)

let test_e17_shape_check_passes () =
  let table = Scenario.Experiment.real_trace ~seed:42 () in
  let notes = String.concat "\n" [ Analysis.Table.render table ] in
  check Alcotest.bool "E17 shape check PASSes" true
    (Astring.String.is_infix ~affix:"PASS" notes
    && not (Astring.String.is_infix ~affix:"FAIL" notes));
  check Alcotest.int "three algorithms compared" 3
    (List.length (Analysis.Table.rows table))

let suite =
  [
    Alcotest.test_case "record/replay: every oblivious family" `Quick
      test_roundtrip_families;
    Alcotest.test_case "record/replay: stabilized and overlay" `Quick
      test_roundtrip_compositions;
    Alcotest.test_case "codec: byte-deterministic encoding" `Quick
      test_encoding_is_byte_deterministic;
    Alcotest.test_case "codec: parse errors carry line numbers" `Quick
      test_codec_errors;
    Alcotest.test_case "codec: validate catches semantic breaks" `Quick
      test_validate_catches_semantic_breaks;
    Alcotest.test_case "replay: unvalidated deltas, errors in order" `Quick
      test_replay_unvalidated_deltas;
    Alcotest.test_case "replay: Hold/Loop/Fail tails" `Quick
      test_replay_past_end;
    Alcotest.test_case "engine hook records the realized schedule" `Quick
      test_on_graph_records_realized_schedule;
    Alcotest.test_case "record -> replay report identity" `Quick
      test_record_replay_report_identity;
    Alcotest.test_case "runner: jobs-independent reports" `Quick
      test_runner_jobs_deterministic;
    Alcotest.test_case "runner: faults and request-cutter wiring" `Quick
      test_runner_faults_and_cutter;
    Alcotest.test_case "import: documented normalizations" `Quick
      test_import_normalizations;
    Alcotest.test_case "import: connectivity-repair accounting" `Quick
      test_import_repair_accounting;
    Alcotest.test_case "import: node-id gaps compact" `Quick
      test_import_node_id_gaps;
    Alcotest.test_case "import: deterministic errors" `Quick
      test_import_errors;
    Alcotest.test_case "vendored: embedded CSV = example file" `Quick
      test_embedded_csv_matches_vendored_file;
    Alcotest.test_case "vendored: trace file = fresh import" `Quick
      test_vendored_trace_matches_fresh_import;
    Alcotest.test_case "vendored: recorded traces = fresh record" `Quick
      test_vendored_traces_match_fresh_record;
    Alcotest.test_case "vendored: shipped specs validate" `Quick
      test_vendored_specs_validate;
    Alcotest.test_case "spec: accumulates every error" `Quick
      test_spec_accumulates_errors;
    Alcotest.test_case "spec: combination rules" `Quick test_spec_combo_rules;
    Alcotest.test_case "spec: to_json round-trip" `Quick
      test_spec_to_json_roundtrip;
    Alcotest.test_case "E17 real-trace shape check" `Quick
      test_e17_shape_check_passes;
    Alcotest.test_case "runner: lower-bound report = golden CLI report" `Quick
      test_runner_lower_bound_matches_golden;
    Alcotest.test_case "spec: validate = of_json on built records" `Quick
      test_spec_validate_matches_of_json;
    Alcotest.test_case "runner: engine names and shard rules" `Quick
      test_runner_engine_of_name;
  ]
