(* Tests for the differential fuzzer: generator determinism and
   validity, spec/trace round-trips of generated cases, clean
   differential batches (reference vs soa), the mutation smoke
   test (a seeded off-by-one must be found and shrunk small), the
   engines' stall detector agreeing bit-for-bit, and the committed
   regression corpus under test/corpus/. *)

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

let trace_string c = Scenario.Trace_io.to_string (Fuzz.Case.to_trace c)

(* {2 Generator} *)

let test_gen_deterministic () =
  List.iter
    (fun id ->
      let a = Fuzz.Gen.case ~seed:0 ~id and b = Fuzz.Gen.case ~seed:0 ~id in
      check Alcotest.string
        (Printf.sprintf "case %d: same schedule on regeneration" id)
        (trace_string a) (trace_string b);
      check Alcotest.string
        (Printf.sprintf "case %d: same label on regeneration" id)
        (Fuzz.Case.label a) (Fuzz.Case.label b))
    [ 0; 1; 17; 99 ];
  (* Different ids draw from disjoint streams: spot-check they differ
     somewhere (labels carry the derived seed). *)
  check Alcotest.bool "ids derive distinct case seeds" false
    (String.equal
       (Fuzz.Case.label (Fuzz.Gen.case ~seed:0 ~id:0))
       (Fuzz.Case.label (Fuzz.Gen.case ~seed:0 ~id:1)))

let test_gen_valid () =
  for id = 0 to 149 do
    let c = Fuzz.Gen.case ~seed:9 ~id in
    let msg fmt = Printf.sprintf ("case %d: " ^^ fmt) id in
    check Alcotest.bool (msg "every round connected") true
      (Fuzz.Case.connected c);
    check Alcotest.bool (msg "n in range") true
      (c.Fuzz.Case.n >= 2 && c.Fuzz.Case.n <= 10);
    check Alcotest.bool (msg "k in range") true
      (c.Fuzz.Case.k >= 1 && c.Fuzz.Case.k <= 6);
    check Alcotest.bool (msg "s in range") true
      (c.Fuzz.Case.s >= 1
      && c.Fuzz.Case.s <= min c.Fuzz.Case.n c.Fuzz.Case.k);
    check Alcotest.bool (msg "at least one round") true
      (Fuzz.Case.period c >= 1);
    match Scenario.Trace_io.validate (Fuzz.Case.to_trace c) with
    | Error e -> Alcotest.failf "case %d: invalid trace: %s" id e
    | Ok stats ->
        check Alcotest.(option int) (msg "no disconnected round") None
          stats.Scenario.Trace_io.first_disconnected
  done

let test_spec_roundtrip () =
  for id = 0 to 39 do
    let c = Fuzz.Gen.case ~seed:5 ~id in
    let spec = Fuzz.Case.to_spec c ~trace_path:"t.jsonl" in
    match Scenario.Spec.of_json (Scenario.Spec.to_json spec) with
    | Error errs ->
        Alcotest.failf "case %d: spec does not round-trip: %s" id
          (String.concat "; " errs)
    | Ok spec' -> (
        match Fuzz.Case.of_spec spec' ~trace:(Fuzz.Case.to_trace c) with
        | Error e -> Alcotest.failf "case %d: of_spec failed: %s" id e
        | Ok c' ->
            let report case =
              (Fuzz.Diff.execute ~engine:Engine.Soa.default_engine case)
                .Fuzz.Diff.report
            in
            check Alcotest.string
              (Printf.sprintf "case %d: rebuilt case runs identically" id)
              (report c) (report c'))
  done

let test_engine_pair () =
  (* The pairing dimension is part of the case stream: deterministic
     per (seed, id), a-side always the Reference oracle, and all three
     b-sides drawn within a small window. *)
  let name_of (module E : Engine.Engine_sig.ENGINE) = E.name in
  let seen = Hashtbl.create 8 in
  for id = 0 to 99 do
    let a, b = Fuzz.Gen.engine_pair ~seed:0 ~id in
    let a', b' = Fuzz.Gen.engine_pair ~seed:0 ~id in
    check Alcotest.(pair string string)
      (Printf.sprintf "case %d: same pairing on regeneration" id)
      (name_of a, name_of b)
      (name_of a', name_of b');
    check Alcotest.string
      (Printf.sprintf "case %d: checked against the reference engine" id)
      Engine.Reference.name (name_of a);
    Hashtbl.replace seen (name_of b) ()
  done;
  List.iter
    (fun b ->
      check Alcotest.bool (b ^ " drawn within 100 cases") true
        (Hashtbl.mem seen b))
    [ "soa"; "soa-2"; "soa-4" ]

(* {2 The differential property} *)

let test_differential_batch () =
  let metrics = Obs.Metrics.create () in
  let outcome = Fuzz.Campaign.run ~jobs:2 ~metrics ~runs:60 ~seed:1 () in
  check Alcotest.int "no mismatches between reference and soa" 0
    (List.length outcome.Fuzz.Campaign.mismatches);
  check Alcotest.int "metrics: cases" 60
    (Obs.Metrics.counter metrics "fuzz/cases");
  check Alcotest.int "metrics: mismatches" 0
    (Obs.Metrics.counter metrics "fuzz/mismatches")

let test_mutant_control () =
  let outcome =
    Fuzz.Campaign.run
      ~flooding_b:(Fuzz.Mutant.flooding ~bug:false)
      ~jobs:2 ~runs:40 ~seed:2 ()
  in
  check Alcotest.int "the faithful protocol copy diffs clean" 0
    (List.length outcome.Fuzz.Campaign.mismatches)

let test_mutation_smoke () =
  let metrics = Obs.Metrics.create () in
  let mutant = Fuzz.Mutant.flooding ~bug:true in
  let outcome =
    Fuzz.Campaign.run ~flooding_b:mutant ~jobs:2 ~metrics ~shrink_budget:200
      ~runs:60 ~seed:0 ()
  in
  check Alcotest.bool "the seeded off-by-one is found within 60 cases" true
    (outcome.Fuzz.Campaign.mismatches <> []);
  check Alcotest.bool "shrinking spent work" true
    (Obs.Metrics.counter metrics "fuzz/shrink_steps" > 0);
  List.iter
    (fun (m : Fuzz.Campaign.mismatch) ->
      let sh = m.Fuzz.Campaign.shrunk in
      let id = m.Fuzz.Campaign.case.Fuzz.Case.id in
      check Alcotest.bool
        (Printf.sprintf "case %d: shrunk to at most 8 rounds" id)
        true
        (Fuzz.Case.period sh <= 8);
      check Alcotest.bool
        (Printf.sprintf "case %d: shrunk to at most 8 nodes" id)
        true (sh.Fuzz.Case.n <= 8);
      (match Scenario.Trace_io.validate (Fuzz.Case.to_trace sh) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "case %d: shrunk trace invalid: %s" id e);
      check Alcotest.bool
        (Printf.sprintf "case %d: shrunk case still diverges under the mutant"
           id)
        true
        (Option.is_some
           (Fuzz.Diff.check ~flooding_b:mutant
              ~engine_a:Engine.Reference.engine
              ~engine_b:Engine.Soa.default_engine sh));
      check Alcotest.bool
        (Printf.sprintf "case %d: shrunk case agrees without the mutant" id)
        true
        (Option.is_none
           (Fuzz.Diff.check ~engine_a:Engine.Reference.engine
              ~engine_b:Engine.Soa.default_engine sh)))
    outcome.Fuzz.Campaign.mismatches

let test_soa_boundary_mutant () =
  (* The sharded engine's seeded mutant: shard 1's span starts one
     node late, silently dropping one node on the 0/1 boundary.  The
     campaign (the buggy soa-2 pinned against the Reference default)
     must find it and shrink the counterexamples small. *)
  let metrics = Obs.Metrics.create () in
  let buggy = Engine.Soa.make ~shards:2 ~boundary_bug:true () in
  let outcome =
    Fuzz.Campaign.run ~engine_b:buggy ~jobs:2
      ~metrics ~shrink_budget:200 ~runs:40 ~seed:6 ()
  in
  check Alcotest.bool
    "the shard-boundary off-by-one is found within 40 cases" true
    (outcome.Fuzz.Campaign.mismatches <> []);
  check Alcotest.bool "shrinking spent work" true
    (Obs.Metrics.counter metrics "fuzz/shrink_steps" > 0);
  List.iter
    (fun (m : Fuzz.Campaign.mismatch) ->
      let sh = m.Fuzz.Campaign.shrunk in
      let id = m.Fuzz.Campaign.case.Fuzz.Case.id in
      check Alcotest.bool
        (Printf.sprintf "case %d: shrunk to at most 8 nodes / 8 rounds" id)
        true
        (sh.Fuzz.Case.n <= 8 && Fuzz.Case.period sh <= 8);
      check Alcotest.bool
        (Printf.sprintf
           "case %d: shrunk case still diverges under the boundary bug" id)
        true
        (Option.is_some
           (Fuzz.Diff.check ~engine_a:Engine.Reference.engine ~engine_b:buggy
              sh));
      check Alcotest.bool
        (Printf.sprintf "case %d: shrunk case agrees with the clean soa-2"
           id)
        true
        (Option.is_none
           (Fuzz.Diff.check ~engine_a:Engine.Reference.engine
              ~engine_b:(Engine.Soa.engine ~shards:2 ())
              sh)))
    outcome.Fuzz.Campaign.mismatches

let test_corpus_saving () =
  let mutant = Fuzz.Mutant.flooding ~bug:true in
  let outcome =
    Fuzz.Campaign.run ~flooding_b:mutant ~jobs:2 ~shrink_budget:200 ~runs:30
      ~seed:0 ()
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "dynspread-fuzz-test"
  in
  let saved = Fuzz.Campaign.save_corpus ~dir outcome in
  check Alcotest.bool "something was saved" true (saved <> []);
  List.iter
    (fun spec_name ->
      let spec_path = Filename.concat dir spec_name in
      match Scenario.Spec.load spec_path with
      | Error errs ->
          Alcotest.failf "%s: saved spec invalid: %s" spec_name
            (String.concat "; " errs)
      | Ok spec -> (
          let trace_path =
            match spec.Scenario.Spec.env with
            | Scenario.Spec.Trace { path } -> Filename.concat dir path
            | _ -> Alcotest.failf "%s: saved spec has no trace env" spec_name
          in
          match Scenario.Trace_io.load trace_path with
          | Error e ->
              Alcotest.failf "%s: saved trace invalid: %s" spec_name e
          | Ok trace -> (
              match Fuzz.Case.of_spec spec ~trace with
              | Error e ->
                  Alcotest.failf "%s: of_spec failed: %s" spec_name e
              | Ok c ->
                  (* The real engines agree on the saved case — the
                     divergence needed the mutant. *)
                  check
                    Alcotest.(option string)
                    (spec_name ^ ": replays clean through both engines") None
                    (Fuzz.Diff.check ~engine_a:Engine.Reference.engine
                       ~engine_b:Engine.Soa.default_engine c))))
    saved

(* {2 Stall detection} *)

module Idle = struct
  type state = unit
  type msg = Gossip.Payload.t

  let classify = Gossip.Payload.classify
  let intent st ~round:_ = (st, None)
  let receive st ~round:_ ~inbox:_ = st
  let progress _ = 0
  let plane = None
end

module Idle_unicast = struct
  type state = unit
  type msg = Gossip.Payload.t

  let classify = Gossip.Payload.classify
  let send st ~round:_ ~neighbors:_ = (st, [])
  let receive st ~round:_ ~neighbors:_ ~inbox:_ = st
  let progress _ = 0
end

(* Every engine must cut a livelocked run short the same way, on each
   of its loops: the idle plane-less broadcast runs on the generic
   broadcast loop everywhere; flooding with a phase far longer than the
   spread stalls between phases, on SoA's plane kernel; the idle
   unicast protocol runs on the shared unicast loop, sharded under
   soa-2. *)
let test_stalled_engines_agree () =
  let window = 5 in
  let ctx = Engine.Ctx.make ~stall_after:window () in
  let cycle n = Adversary.Oblivious.static (Dynet.Graph_gen.cycle ~n) in
  let idle_broadcast engine =
    let module E = (val engine : Engine.Engine_sig.ENGINE) in
    fst
      (E.Broadcast.run
         (module Idle : Engine.Runner_broadcast.PROTOCOL
           with type state = unit
            and type msg = Gossip.Payload.t)
         ~ctx ~states:(Array.make 4 ())
         ~adversary:(Adversary.Schedule.broadcast (cycle 4))
         ~max_rounds:100
         ~stop:(fun _ -> false)
         ())
  in
  let long_phase_flooding engine =
    let n = 8 and k = 3 in
    let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
    let module E = (val engine : Engine.Engine_sig.ENGINE) in
    fst
      (E.Broadcast.run Gossip.Flooding.protocol ~ctx ~target_progress:(n * k)
         ~states:(Gossip.Flooding.init ~instance ~phase_len:20 ())
         ~adversary:(Adversary.Schedule.broadcast (cycle n))
         ~max_rounds:200
         ~stop:(Gossip.Flooding.all_complete ~k)
         ())
  in
  let idle_unicast engine =
    let module E = (val engine : Engine.Engine_sig.ENGINE) in
    fst
      (E.Unicast.run
         (module Idle_unicast : Engine.Runner_unicast.PROTOCOL
           with type state = unit
            and type msg = Gossip.Payload.t)
         ~ctx ~states:(Array.make 4 ())
         ~adversary:(Adversary.Schedule.unicast (cycle 4))
         ~max_rounds:100
         ~stop:(fun _ -> false)
         ())
  in
  let report r =
    Obs.Json.to_string (Obs.Report.to_json (Engine.Run_result.to_report r))
  in
  List.iter
    (fun (shape, run) ->
      let ra = run Engine.Reference.engine in
      (match ra.Engine.Run_result.outcome with
      | Engine.Run_result.Stalled { rounds_without_progress } ->
          check Alcotest.int
            (shape ^ ": stalled after the window")
            window rounds_without_progress
      | _ -> Alcotest.failf "%s: reference engine did not report Stalled" shape);
      List.iter
        (fun engine ->
          let module E = (val engine : Engine.Engine_sig.ENGINE) in
          check Alcotest.string
            (Printf.sprintf "%s: %s reports the stall like the reference" shape
               E.name)
            (report ra) (report (run engine)))
        [ Engine.Soa.engine (); Engine.Soa.engine ~shards:2 () ])
    [
      ("idle broadcast", idle_broadcast);
      ("long-phase flooding", long_phase_flooding);
      ("idle unicast", idle_unicast);
    ];
  check Alcotest.int "idle run stalls at round = window" window
    (idle_broadcast Engine.Reference.engine).Engine.Run_result.rounds

(* {2 The committed corpus} *)

let corpus_dir = "corpus"

let test_corpus_regression () =
  let entries =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scenario.json")
    |> List.sort String.compare
  in
  check Alcotest.bool "corpus is non-empty" true (entries <> []);
  let saw_stalled = ref false in
  List.iter
    (fun spec_name ->
      let spec =
        match Scenario.Spec.load (Filename.concat corpus_dir spec_name) with
        | Ok s -> s
        | Error errs ->
            Alcotest.failf "%s: %s" spec_name (String.concat "; " errs)
      in
      let trace_path =
        match spec.Scenario.Spec.env with
        | Scenario.Spec.Trace { path } -> Filename.concat corpus_dir path
        | _ -> Alcotest.failf "%s: corpus spec has no trace env" spec_name
      in
      let trace =
        match Scenario.Trace_io.load trace_path with
        | Ok t -> t
        | Error e -> Alcotest.failf "%s: %s" spec_name e
      in
      let c =
        match Fuzz.Case.of_spec spec ~trace with
        | Ok c -> c
        | Error e -> Alcotest.failf "%s: %s" spec_name e
      in
      let a = Fuzz.Diff.execute ~engine:Engine.Reference.engine c in
      let b = Fuzz.Diff.execute ~engine:Engine.Soa.default_engine c in
      check
        Alcotest.(option string)
        (spec_name ^ ": both engines agree") None (Fuzz.Diff.divergence a b);
      if contains a.Fuzz.Diff.report "\"outcome\":\"stalled\"" then
        saw_stalled := true)
    entries;
  check Alcotest.bool
    "the corpus covers the livelock corner (a stalled outcome)" true
    !saw_stalled

let suite =
  [
    Alcotest.test_case "gen: deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "gen: valid cases" `Quick test_gen_valid;
    Alcotest.test_case "gen: spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "gen: engine pairing dimension" `Quick
      test_engine_pair;
    Alcotest.test_case "diff: 60-case batch clean" `Quick
      test_differential_batch;
    Alcotest.test_case "mutant: faithful copy diffs clean" `Quick
      test_mutant_control;
    Alcotest.test_case "mutant: off-by-one found and shrunk" `Quick
      test_mutation_smoke;
    Alcotest.test_case "mutant: shard boundary found and shrunk" `Quick
      test_soa_boundary_mutant;
    Alcotest.test_case "corpus: save and reload" `Quick test_corpus_saving;
    Alcotest.test_case "engines: stall detector agrees" `Quick
      test_stalled_engines_agree;
    Alcotest.test_case "corpus: committed regressions replay clean" `Quick
      test_corpus_regression;
  ]
