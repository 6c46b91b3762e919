(* The runtime-invariant layer (lib/check): corrupted state must trip
   Check.require when checks are on, the disabled layer must evaluate
   nothing, and full runs — clean and faulty — must pass the per-round
   engine invariants with checks enabled.

   Every test that enables the layer restores the disabled default on
   the way out so suite order never matters.  Cases that need the layer
   on are guarded on [Check.static_enabled] so the suite also passes
   under [--profile release], where the layer is compiled out. *)

let check = Alcotest.check

let with_checks f =
  Fun.protect
    ~finally:(fun () -> Check.set_enabled false)
    (fun () ->
      Check.set_enabled true;
      f ())

(* {2 The require primitive} *)

let test_require_trips () =
  if Check.static_enabled then
    with_checks (fun () ->
        Alcotest.check_raises "false predicate raises"
          (Check.Check_failed "broken invariant") (fun () ->
            Check.require ~what:"broken invariant" (fun () -> false));
        (* A true predicate is silent. *)
        Check.require ~what:"fine" (fun () -> true))

let test_disabled_evaluates_nothing () =
  Check.set_enabled false;
  Check.reset_eval_count ();
  let side_effect = ref false in
  Check.require ~what:"never evaluated" (fun () ->
      side_effect := true;
      false);
  check Alcotest.bool "predicate not run" false !side_effect;
  check Alcotest.int "eval count stays zero" 0 (Check.eval_count ())

let test_release_compiles_out () =
  (* In dev profile static_enabled is true; in release the whole layer
     is inert even after set_enabled true.  Both facts are the
     contract, so assert whichever side this build is on. *)
  if Check.static_enabled then begin
    with_checks (fun () ->
        check Alcotest.bool "enabled after set_enabled true" true
          (Check.enabled ()))
  end
  else begin
    Check.set_enabled true;
    check Alcotest.bool "release: set_enabled is a no-op" false
      (Check.enabled ());
    Check.reset_eval_count ();
    Check.require ~what:"release: never evaluated" (fun () -> false);
    check Alcotest.int "release: zero evals" 0 (Check.eval_count ())
  end

(* {2 Domain invariants on corrupted state} *)

let test_desynced_bitset_trips () =
  if Check.static_enabled then
    with_checks (fun () ->
        let bs = Dynet.Bitset.create 16 in
        let bs = Dynet.Bitset.add 3 bs in
        let bs = Dynet.Bitset.add 7 bs in
        let bs = Dynet.Bitset.add 11 bs in
        (* Correct cache is silent... *)
        Check.bitset_cached ~what:"synced" ~cached:3 bs;
        (* ...a desynced one trips. *)
        Alcotest.check_raises "cached=2 against 3 set bits"
          (Check.Check_failed "desynced") (fun () ->
            Check.bitset_cached ~what:"desynced" ~cached:2 bs))

let test_corrupted_ledger_trips () =
  if Check.static_enabled then
    with_checks (fun () ->
        let ledger = Engine.Ledger.create () in
        Engine.Ledger.record ledger Engine.Msg_class.Token 5;
        let physical_sends = 3 in
        (* The engines cross-check Ledger.total against their own send
           counter; a ledger recording more than was sent must trip. *)
        Alcotest.check_raises "ledger total <> physical sends"
          (Check.Check_failed "ledger conservation") (fun () ->
            Check.require ~what:"ledger conservation" (fun () ->
                Int.equal (Engine.Ledger.total ledger) physical_sends)))

let test_disconnected_graph_trips () =
  if Check.static_enabled then
    with_checks (fun () ->
        let connected = Dynet.Graph_gen.path ~n:6 in
        Check.connected ~what:"path is connected" connected;
        let disconnected =
          Dynet.Graph.make ~n:6
            [| Dynet.Edge_table.key ~n:6 0 1; Dynet.Edge_table.key ~n:6 2 3 |]
        in
        Alcotest.check_raises "two components"
          (Check.Check_failed "split graph") (fun () ->
            Check.connected ~what:"split graph" disconnected))

let test_conserved_arithmetic () =
  check Alcotest.bool "balanced books" true
    (Check.conserved ~created:10 ~consumed:6 ~dropped:3 ~in_flight:1);
  check Alcotest.bool "a lost copy" false
    (Check.conserved ~created:10 ~consumed:6 ~dropped:3 ~in_flight:0)

(* {2 Full runs under --check} *)

let run_single_source ?faults ~seed () =
  let n = 12 and k = 8 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let env =
    Gossip.Runners.Oblivious (Adversary.Oblivious.tree_rotator ~seed ~n)
  in
  let result, states = Gossip.Runners.single_source ~instance ~env ?faults () in
  (result, states)

let test_clean_run_passes_checks () =
  if Check.static_enabled then
    with_checks (fun () ->
        Check.reset_eval_count ();
        let result, states = run_single_source ~seed:42 () in
        check Alcotest.bool "completed" true
          result.Engine.Run_result.completed;
        check Alcotest.bool "all nodes complete" true
          (Array.for_all Gossip.Single_source.is_complete states);
        (* The per-round engine invariants actually ran. *)
        check Alcotest.bool "invariants were evaluated" true
          (Check.eval_count () > 0))

let test_faulty_run_passes_checks () =
  if Check.static_enabled then
    with_checks (fun () ->
        (* Loss and delay exercise the dropped and in-flight legs of
           the conservation equation; the invariants must still hold. *)
        let faults = Faults.Plan.make ~loss:0.2 ~max_delay:2 ~seed:9 () in
        let result, _ = run_single_source ~faults ~seed:43 () in
        check Alcotest.bool "reliable wrapper still completes" true
          result.Engine.Run_result.completed)

let test_disabled_run_is_untouched () =
  Check.set_enabled false;
  Check.reset_eval_count ();
  let result, _ = run_single_source ~seed:44 () in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.int "zero predicate evaluations" 0 (Check.eval_count ())

let suite =
  [
    Alcotest.test_case "require trips on false" `Quick test_require_trips;
    Alcotest.test_case "disabled evaluates nothing" `Quick
      test_disabled_evaluates_nothing;
    Alcotest.test_case "release gating" `Quick test_release_compiles_out;
    Alcotest.test_case "desynced bitset count trips" `Quick
      test_desynced_bitset_trips;
    Alcotest.test_case "corrupted ledger trips" `Quick
      test_corrupted_ledger_trips;
    Alcotest.test_case "disconnected graph trips" `Quick
      test_disconnected_graph_trips;
    Alcotest.test_case "conservation arithmetic" `Quick
      test_conserved_arithmetic;
    Alcotest.test_case "clean run under --check" `Quick
      test_clean_run_passes_checks;
    Alcotest.test_case "faulty run under --check" `Quick
      test_faulty_run_passes_checks;
    Alcotest.test_case "disabled run evaluates nothing" `Quick
      test_disabled_run_is_untouched;
  ]
