(* Tests for the fault-injection layer: plan construction and
   validation, the Fault_plan.none identity property (a run with the
   null plan is bit-identical — ledger, trace, final states — to a run
   that never mentions faults), fault-seed reproducibility, scripted
   crash-round semantics, graceful-degradation accounting, and the
   Reliable ack/retransmit wrapper under message faults. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Helpers} *)

let rotator ~seed ~n =
  Adversary.Schedule.stabilized ~sigma:3
    (Adversary.Oblivious.tree_rotator ~seed ~n)

let all_classes =
  [
    Engine.Msg_class.Token; Engine.Msg_class.Completeness;
    Engine.Msg_class.Request; Engine.Msg_class.Walk; Engine.Msg_class.Center;
    Engine.Msg_class.Control;
  ]

(* Everything the ledger accounts for, as one comparable value. *)
let ledger_fingerprint (l : Engine.Ledger.t) =
  ( Engine.Ledger.total l,
    List.map (Engine.Ledger.count l) all_classes,
    Engine.Ledger.tc l,
    Engine.Ledger.removals l,
    Engine.Ledger.learnings l,
    Engine.Ledger.rounds l,
    Engine.Ledger.load_list l )

let run_single ?faults ~seed ~n ~k () =
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let obs = Obs.Sink.memory () in
  let result, states =
    Gossip.Runners.single_source ~instance
      ~env:(Gossip.Runners.Oblivious (rotator ~seed ~n))
      ?faults ~obs ()
  in
  (result, states, Obs.Sink.events obs)

let run_flooding ?faults ~seed ~n () =
  let instance = Gossip.Instance.one_per_node ~n in
  let obs = Obs.Sink.memory () in
  let result, states =
    Gossip.Runners.flooding ~instance ~schedule:(rotator ~seed ~n) ?faults
      ~obs ()
  in
  (result, states, Obs.Sink.events obs)

let fault_events_by_kind events kind =
  List.length
    (List.filter
       (function
         | Obs.Trace.Fault { kind = k; _ } -> k = kind | _ -> false)
       events)

(* {2 Plan construction and validation} *)

let test_plan_validation () =
  let invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  invalid "loss > 1" (fun () -> Faults.Plan.make ~loss:1.5 ~seed:1 ());
  invalid "loss < 0" (fun () -> Faults.Plan.make ~loss:(-0.1) ~seed:1 ());
  invalid "dup > 1" (fun () -> Faults.Plan.make ~dup:2. ~seed:1 ());
  invalid "crash < 0" (fun () -> Faults.Plan.make ~crash:(-1.) ~seed:1 ());
  invalid "restart > 1" (fun () -> Faults.Plan.make ~restart:1.01 ~seed:1 ());
  invalid "loss nan" (fun () -> Faults.Plan.make ~loss:Float.nan ~seed:1 ());
  invalid "negative delay" (fun () ->
      Faults.Plan.make ~max_delay:(-1) ~seed:1 ())

let test_plan_none_detection () =
  check Alcotest.bool "all-zero make is none" true
    (Faults.Plan.is_none (Faults.Plan.make ~seed:7 ()));
  (* restart alone can never fire: nothing ever crashes *)
  check Alcotest.bool "restart-only make is none" true
    (Faults.Plan.is_none (Faults.Plan.make ~restart:0.9 ~seed:7 ()));
  check Alcotest.bool "loss make is active" false
    (Faults.Plan.is_none (Faults.Plan.make ~loss:0.1 ~seed:7 ()));
  check Alcotest.bool "delay make is active" false
    (Faults.Plan.is_none (Faults.Plan.make ~max_delay:2 ~seed:7 ()));
  check Alcotest.bool "scripted is active" false
    (Faults.Plan.is_none (Faults.Plan.scripted ~crashes:[ (1, 0) ] ()));
  let run = Faults.Plan.start Faults.Plan.none ~n:4 in
  check Alcotest.bool "none run inactive" false (Faults.Plan.active run);
  check Alcotest.bool "none run never dooms" false (Faults.Plan.doomed run)

let test_counts_basics () =
  let c = Faults.Counts.create () in
  check Alcotest.bool "fresh is zero" true (Faults.Counts.is_zero c);
  c.Faults.Counts.drops <- 3;
  c.Faults.Counts.retransmits <- 1;
  check Alcotest.bool "bumped not zero" false (Faults.Counts.is_zero c);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "fields in declaration order"
    [
      ("drops", 3); ("dups", 0); ("delays", 0); ("crashes", 0);
      ("restarts", 0); ("retransmits", 1);
    ]
    (Faults.Counts.to_fields c)

(* {2 The none-identity property} *)

(* Runs with [Fault_plan.none] — passed explicitly or as an all-zero
   [make] — must be bit-identical to runs that never mention faults:
   same ledger, same trace stream, same final states, no fault
   report. *)
let prop_none_identity_unicast =
  QCheck.Test.make ~count:10 ~name:"Plan.none unicast run is bit-identical"
    QCheck.(pair (int_bound 1000) (int_range 6 12))
    (fun (seed, n) ->
      let plain = run_single ~seed ~n ~k:n () in
      let with_none = run_single ~faults:Faults.Plan.none ~seed ~n ~k:n () in
      let with_zero =
        run_single ~faults:(Faults.Plan.make ~loss:0. ~seed ()) ~seed ~n ~k:n
          ()
      in
      let fingerprint (result, states, events) =
        ( ledger_fingerprint result.Engine.Run_result.ledger,
          result.Engine.Run_result.rounds,
          result.Engine.Run_result.outcome,
          states,
          events )
      in
      let (result, _, _) = plain in
      result.Engine.Run_result.fault_counts = None
      && fingerprint plain = fingerprint with_none
      && fingerprint plain = fingerprint with_zero)

let prop_none_identity_broadcast =
  QCheck.Test.make ~count:10 ~name:"Plan.none broadcast run is bit-identical"
    QCheck.(pair (int_bound 1000) (int_range 6 12))
    (fun (seed, n) ->
      let plain = run_flooding ~seed ~n () in
      let with_none = run_flooding ~faults:Faults.Plan.none ~seed ~n () in
      let fingerprint (result, states, events) =
        ( ledger_fingerprint result.Engine.Run_result.ledger,
          result.Engine.Run_result.outcome,
          states,
          events )
      in
      let (result, _, _) = plain in
      result.Engine.Run_result.fault_counts = None
      && fingerprint plain = fingerprint with_none)

(* {2 Reproducibility and trace/count symmetry} *)

let faulty_plan ~fault_seed =
  Faults.Plan.make ~loss:0.2 ~dup:0.1 ~crash:0.01 ~max_delay:2
    ~seed:fault_seed ()

let test_fault_seed_reproducible () =
  let go () = run_single ~faults:(faulty_plan ~fault_seed:11) ~seed:5 ~n:10 ~k:10 () in
  let r1, s1, e1 = go () and r2, s2, e2 = go () in
  check Alcotest.bool "same ledger" true
    (ledger_fingerprint r1.Engine.Run_result.ledger
    = ledger_fingerprint r2.Engine.Run_result.ledger);
  check Alcotest.bool "same states" true (s1 = s2);
  check Alcotest.bool "same trace" true (e1 = e2);
  let counts r =
    match r.Engine.Run_result.fault_counts with
    | Some c -> Faults.Counts.to_fields c
    | None -> Alcotest.fail "faulty run must report fault counts"
  in
  check Alcotest.bool "same fault counts" true (counts r1 = counts r2);
  let r3, _, _ =
    run_single ~faults:(faulty_plan ~fault_seed:12) ~seed:5 ~n:10 ~k:10 ()
  in
  check Alcotest.bool "different fault seed, different faults" false
    (counts r1 = counts r3)

let test_trace_count_symmetry () =
  (* Every tallied fault is visible as a Fault trace event, kind by
     kind — the counts are a summary of the stream, not a second
     opinion. *)
  List.iter
    (fun (name, result, events) ->
      match result.Engine.Run_result.fault_counts with
      | None -> Alcotest.failf "%s: expected fault counts" name
      | Some c ->
          let pairs =
            [
              ("drop", c.Faults.Counts.drops);
              ("dup", c.Faults.Counts.dups);
              ("delay", c.Faults.Counts.delays);
              ("crash", c.Faults.Counts.crashes);
              ("restart", c.Faults.Counts.restarts);
            ]
          in
          List.iter
            (fun (kind, count) ->
              check Alcotest.int
                (Printf.sprintf "%s: %s events = count" name kind)
                count
                (fault_events_by_kind events kind))
            pairs)
    [
      (let r, _, e =
         run_single ~faults:(faulty_plan ~fault_seed:3) ~seed:9 ~n:10 ~k:10 ()
       in
       ("unicast", r, e));
      (let r, _, e =
         run_flooding ~faults:(faulty_plan ~fault_seed:4) ~seed:9 ~n:10 ()
       in
       ("broadcast", r, e));
    ]

(* {2 Scripted crash-round semantics} *)

let test_scripted_crash_semantics () =
  let n = 6 in
  let faults =
    Faults.Plan.scripted ~crashes:[ (1, 1) ] ~restarts:[ (4, 1) ] ()
  in
  let result, _, events = run_flooding ~faults ~seed:2 ~n () in
  let counts = Option.get result.Engine.Run_result.fault_counts in
  check Alcotest.int "one crash" 1 counts.Faults.Counts.crashes;
  check Alcotest.int "one restart" 1 counts.Faults.Counts.restarts;
  check Alcotest.int "crash event traced" 1
    (fault_events_by_kind events "crash");
  check Alcotest.int "restart event traced" 1
    (fault_events_by_kind events "restart");
  (* the crashed node's inbox was discarded while it was down: on a
     connected round graph some neighbor of node 1 broadcast in rounds
     1..3 (every node starts with a token), so drops must be seen *)
  check Alcotest.bool "crashed inbox discarded" true
    (counts.Faults.Counts.drops > 0);
  check Alcotest.int "drops traced one event per message"
    counts.Faults.Counts.drops
    (fault_events_by_kind events "drop");
  (* the restarted node lost its state but flooding re-teaches it *)
  check Alcotest.bool "run still completes" true
    result.Engine.Run_result.completed

let test_crashed_node_sends_nothing () =
  (* n = 2: crash node 1 for the whole run; only node 0 can ever send,
     so every Send event's src must be 0 while node 1 is down. *)
  let faults = Faults.Plan.scripted ~crashes:[ (1, 1) ] () in
  let instance = Gossip.Instance.one_per_node ~n:2 in
  let obs = Obs.Sink.memory () in
  let result, _ =
    Gossip.Runners.flooding ~instance
      ~schedule:(Adversary.Oblivious.static (Dynet.Graph_gen.path ~n:2))
      ~faults ~obs ~max_rounds:6 ()
  in
  let sends_from_1 =
    List.filter
      (function Obs.Trace.Send { src = 1; _ } -> true | _ -> false)
      (Obs.Sink.events obs)
  in
  check Alcotest.int "crashed node sent nothing" 0 (List.length sends_from_1);
  check Alcotest.bool "run cannot complete" false
    result.Engine.Run_result.completed

let test_all_crashed_aborts () =
  let n = 5 in
  let faults =
    Faults.Plan.scripted ~crashes:(List.init n (fun v -> (1, v))) ()
  in
  let result, _, _ = run_flooding ~faults ~seed:3 ~n () in
  (match result.Engine.Run_result.outcome with
  | Engine.Run_result.Aborted _ -> ()
  | _ -> Alcotest.fail "expected Aborted when every node is down for good");
  check Alcotest.bool "not completed" false result.Engine.Run_result.completed

(* {2 Graceful-degradation accounting} *)

let test_partial_coverage () =
  let n = 10 and k = 10 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let result, _ =
    Gossip.Runners.single_source ~instance
      ~env:(Gossip.Runners.Oblivious (rotator ~seed:4 ~n))
      ~max_rounds:1 ()
  in
  (match result.Engine.Run_result.outcome with
  | Engine.Run_result.Partial { achieved; target } ->
      check Alcotest.(option int) "target = n*k" (Some (n * k)) target;
      check Alcotest.bool "achieved at least the source's k" true
        (achieved >= k);
      let cov =
        Option.get (Engine.Run_result.coverage result.Engine.Run_result.outcome)
      in
      check Alcotest.bool "coverage in (0, 1)" true (cov > 0. && cov < 1.)
  | _ -> Alcotest.fail "a 1-round cap must yield Partial");
  check Alcotest.(option (float 1e-9)) "completed runs cover 1" (Some 1.)
    (Engine.Run_result.coverage Engine.Run_result.Completed)

(* {2 The Reliable wrapper} *)

let test_reliable_clean_matches_bare_rounds () =
  (* With no faults, acks ride along but the inner protocol sees the
     exact same deliveries: same rounds to completion as the bare run. *)
  let bare, _, _ = run_single ~seed:6 ~n:10 ~k:10 () in
  let instance = Gossip.Instance.single_source ~n:10 ~k:10 ~source:0 in
  let reliable, _, _ =
    Gossip.Runners.reliable_single_source ~instance
      ~env:(Gossip.Runners.Oblivious (rotator ~seed:6 ~n:10))
      ()
  in
  check Alcotest.bool "both complete" true
    (bare.Engine.Run_result.completed
    && reliable.Engine.Run_result.completed);
  check Alcotest.int "same rounds" bare.Engine.Run_result.rounds
    reliable.Engine.Run_result.rounds

let test_reliable_completes_under_loss () =
  let n = 12 and k = 12 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let faults = Faults.Plan.make ~loss:0.2 ~seed:21 () in
  let result, _, retransmits =
    Gossip.Runners.reliable_single_source ~instance
      ~env:(Gossip.Runners.Oblivious (rotator ~seed:8 ~n))
      ~faults ()
  in
  check Alcotest.bool "completes under 20% loss" true
    result.Engine.Run_result.completed;
  check Alcotest.bool "retransmitted to get there" true (retransmits > 0);
  let counts = Option.get result.Engine.Run_result.fault_counts in
  check Alcotest.int "retransmits folded into fault counts" retransmits
    counts.Faults.Counts.retransmits

(* Regression: duplicated or delayed requests used to queue two serves
   for the same asker, so bare multi-source emitted two tokens on one
   edge in one round — a Protocol_violation on essentially every faulty
   run.  Extras are now dropped at receive (the asker re-requests). *)
let test_multi_source_bare_survives_dup_delay () =
  List.iter
    (fun seed ->
      let n = 9 and k = 6 and s = 4 in
      let instance =
        Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed) ~n ~k ~s
      in
      let faults =
        Faults.Plan.make ~loss:0.2 ~dup:0.2 ~max_delay:2 ~seed ()
      in
      let result, _ =
        Gossip.Runners.multi_source ~instance
          ~env:(Gossip.Runners.Oblivious (rotator ~seed ~n))
          ~max_rounds:512 ~faults ()
      in
      check Alcotest.bool
        (Printf.sprintf "seed %d completes under dup + delay" seed)
        true result.Engine.Run_result.completed)
    [ 1; 2; 3; 4; 5 ]

let test_reliable_multi_completes_under_mixed_faults () =
  let n = 10 and k = 10 and s = 3 in
  let instance =
    Gossip.Instance.multi_source
      ~rng:(Dynet.Rng.make ~seed:31)
      ~n ~k ~s
  in
  let faults =
    Faults.Plan.make ~loss:0.15 ~dup:0.3 ~max_delay:2 ~seed:22 ()
  in
  let result, _, _ =
    Gossip.Runners.reliable_multi_source ~instance
      ~env:(Gossip.Runners.Oblivious (rotator ~seed:9 ~n))
      ~faults ()
  in
  check Alcotest.bool "completes under loss + dup + delay" true
    result.Engine.Run_result.completed

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "plan none detection" `Quick test_plan_none_detection;
    Alcotest.test_case "counts basics" `Quick test_counts_basics;
    qcheck prop_none_identity_unicast;
    qcheck prop_none_identity_broadcast;
    Alcotest.test_case "fault seed reproducible" `Quick
      test_fault_seed_reproducible;
    Alcotest.test_case "trace/count symmetry" `Quick test_trace_count_symmetry;
    Alcotest.test_case "scripted crash semantics" `Quick
      test_scripted_crash_semantics;
    Alcotest.test_case "crashed node sends nothing" `Quick
      test_crashed_node_sends_nothing;
    Alcotest.test_case "all crashed aborts" `Quick test_all_crashed_aborts;
    Alcotest.test_case "partial coverage" `Quick test_partial_coverage;
    Alcotest.test_case "reliable clean = bare rounds" `Quick
      test_reliable_clean_matches_bare_rounds;
    Alcotest.test_case "reliable completes under loss" `Quick
      test_reliable_completes_under_loss;
    Alcotest.test_case "bare multi-source under dup + delay" `Quick
      test_multi_source_bare_survives_dup_delay;
    Alcotest.test_case "reliable under mixed faults" `Quick
      test_reliable_multi_completes_under_mixed_faults;
  ]
