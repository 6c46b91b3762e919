(* The serve subsystem: NDJSON framing, rpc codecs, cooperative
   cancellation at the engine seam, scheduler semantics (fairness,
   backpressure, cancel in every state, pool-size independence), and
   an in-process daemon driven end to end over its unix socket. *)

let check = Alcotest.check

(* {2 Helpers} *)

let spec_string ?(name = "serve-flood") ?(algorithm = "flooding") ?(n = 16)
    ?(k = 6) ?(seed = 7) ?(repeats = 2) () =
  Printf.sprintf
    {|{ "schema": "dynspread-scenario/v1", "name": "%s",
        "algorithm": "%s",
        "env": { "family": "rewiring", "rate": 0.25 },
        "n": %d, "k": %d, "seed": %d, "repeats": %d }|}
    name algorithm n k seed repeats

(* The Section-2 lower-bound adversary, an adaptive env the daemon runs
   like any other spec. *)
let lower_bound_spec =
  {|{ "schema": "dynspread-scenario/v1", "name": "lb",
      "algorithm": "flooding", "env": { "family": "lower-bound" },
      "n": 32, "k": 32, "seed": 42 }|}

let spec_of_string s =
  match Scenario.Spec.of_string s with
  | Ok spec -> spec
  | Error es -> Alcotest.failf "spec invalid: %s" (String.concat "; " es)

let json_of s =
  match Obs.Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable json: %s" e

let prepared_of ?base_dir s : Scenario.Runner.prepared =
  match Scenario.Runner.prepare ?base_dir (spec_of_string s) with
  | Ok p -> p
  | Error e -> Alcotest.failf "prepare failed: %s" e

let report_line r = Obs.Json.to_string (Obs.Report.to_json r)

let report_field line name =
  match Obs.Json.member name (json_of line) with
  | Some v -> v
  | None -> Alcotest.failf "report lacks %S: %s" name line

let report_outcome line =
  match report_field line "outcome" with
  | Obs.Json.String s -> s
  | _ -> Alcotest.failf "non-string outcome: %s" line

let report_int line name =
  match Obs.Json.to_int (report_field line name) with
  | Some n -> n
  | None -> Alcotest.failf "non-int %S: %s" name line

let wait_until ?(timeout = 20.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* {2 Frame splitter} *)

let test_frame_reassembly () =
  let sp = Serve.Frame.splitter () in
  let feed chunk =
    match Serve.Frame.feed sp chunk with
    | Ok frames -> frames
    | Error e -> Alcotest.failf "feed failed: %s" e
  in
  check (Alcotest.list Alcotest.string) "partial frame" [] (feed {|{"a"|});
  check
    (Alcotest.list Alcotest.string)
    "two frames close" [ {|{"a":1}|}; {|{"b":2}|} ]
    (feed ":1}\n{\"b\":2}\n{");
  check Alcotest.int "pending bytes" 1 (Serve.Frame.pending sp);
  check
    (Alcotest.list Alcotest.string)
    "crlf stripped" [ {|{"c":3}|} ]
    (feed "\"c\":3}\r\n");
  check
    (Alcotest.list Alcotest.string)
    "empty lines dropped" [ {|{"d":4}|} ]
    (feed "\n\n{\"d\":4}\n\n")

let test_frame_poison () =
  let sp = Serve.Frame.splitter () in
  (match
     Serve.Frame.feed sp (String.make (Serve.Frame.default_max_frame + 1) 'x')
   with
  | Ok _ -> Alcotest.fail "oversize frame accepted"
  | Error _ -> ());
  match Serve.Frame.feed sp "{}\n" with
  | Ok _ -> Alcotest.fail "poisoned splitter recovered"
  | Error _ -> ()

(* {2 Rpc codec} *)

let test_rpc_roundtrip () =
  let sub =
    {
      Serve.Rpc.tag = Some "t1";
      spec = json_of (spec_string ());
      base_dir = Some "/tmp";
      engine = Some "soa";
      shards = Some 2;
      events = true;
    }
  in
  let requests =
    [
      Serve.Rpc.Submit sub;
      Serve.Rpc.Status { job = Some 3 };
      Serve.Rpc.Status { job = None };
      Serve.Rpc.Cancel { job = 7 };
      Serve.Rpc.Subscribe { job = 7; events = false };
      Serve.Rpc.Shutdown;
      Serve.Rpc.Ping;
    ]
  in
  List.iter
    (fun r ->
      let line = Serve.Rpc.request_to_line r in
      match Serve.Rpc.request_of_line line with
      | Ok r' -> check Alcotest.bool ("request " ^ line) true (r = r')
      | Error e -> Alcotest.failf "request did not round-trip: %s" e)
    requests;
  let responses =
    [
      Serve.Rpc.Accepted { job = 1; tag = Some "t"; queue_depth = 2 };
      Serve.Rpc.Rejected { tag = None; reason = "queue full"; queue_depth = 9 };
      Serve.Rpc.Error { reason = "bad frame" };
      Serve.Rpc.Status_view
        {
          jobs =
            [ { Serve.Rpc.job = 1; name = "x"; state = "running"; reports = 0 } ];
          queue_depth = 1;
          running = 1;
        };
      Serve.Rpc.Cancel_ok { job = 4; was = "queued" };
      Serve.Rpc.Subscribed { job = 4; events = true };
      Serve.Rpc.Event { job = 4; line = {|{"round":1}|} };
      Serve.Rpc.Report { job = 4; index = 0; line = {|{"rounds":3}|} };
      Serve.Rpc.Done
        { job = 4; outcome = "failed"; reports = 1; reason = Some "boom" };
      Serve.Rpc.Shutting_down;
      Serve.Rpc.Pong;
    ]
  in
  List.iter
    (fun r ->
      let line = Serve.Rpc.response_to_line r in
      match Serve.Rpc.response_of_line line with
      | Ok r' -> check Alcotest.bool ("response " ^ line) true (r = r')
      | Error e -> Alcotest.failf "response did not round-trip: %s" e)
    responses

let test_rpc_rejects () =
  let bad =
    [
      {|{"op":"ping"}|} (* missing version *);
      {|{"rpc":"dynspread-rpc/v0","op":"ping"}|} (* wrong version *);
      {|{"rpc":"dynspread-rpc/v1","op":"warp"}|} (* unknown op *);
      {|[1,2,3]|} (* not an object *);
      {|not json|};
    ]
  in
  List.iter
    (fun line ->
      match Serve.Rpc.request_of_line line with
      | Ok _ -> Alcotest.failf "accepted bad frame: %s" line
      | Error _ -> ())
    bad

(* {2 Cancellation at the engine seam} *)

let engines =
  [
    ("fastpath", None);
    ("reference", Some Engine.Reference.engine);
    ("soa", Some (Engine.Soa.engine ~shards:1 ()));
    ("soa-2", Some (Engine.Soa.engine ~shards:2 ()));
  ]

(* Each engine × each run shape: flooding takes SoA's plane kernel,
   multi-source the shared unicast loop.  [n] is large enough that a
   full run outlasts the mid-run cuts below. *)
let cancel_cases f =
  List.iter
    (fun (algorithm, n) ->
      List.iter
        (fun (tag, engine) -> f ~tag:(algorithm ^ "/" ^ tag) ~engine ~algorithm ~n)
        engines)
    [ ("flooding", 256); ("multi-source", 64) ]

let test_cancel_before_start () =
  cancel_cases (fun ~tag ~engine ~algorithm ~n:_ ->
      let p = prepared_of (spec_string ~algorithm ~n:32 ~k:4 ()) in
      let line =
        report_line
          (Scenario.Runner.run_repeat ?engine p ~seed:p.seeds.(0)
             ~cancel:(fun () -> true))
      in
      check Alcotest.string (tag ^ ": outcome") "cancelled"
        (report_outcome line);
      check Alcotest.int (tag ^ ": zero rounds") 0 (report_int line "rounds"))

let test_cancel_lower_bound_before_start () =
  List.iter
    (fun (tag, engine) ->
      let p = prepared_of lower_bound_spec in
      let line =
        report_line
          (Scenario.Runner.run_repeat ?engine p ~seed:p.seeds.(0)
             ~cancel:(fun () -> true))
      in
      check Alcotest.string (tag ^ ": outcome") "cancelled"
        (report_outcome line);
      check Alcotest.int (tag ^ ": zero rounds") 0 (report_int line "rounds"))
    engines

(* Cancel after [polls] round-boundary checks; coverage at the later
   cut must dominate the earlier one (the informed set only grows). *)
let cancelled_after ?engine p polls =
  let c = ref 0 in
  let cancel () =
    incr c;
    !c > polls
  in
  report_line (Scenario.Runner.run_repeat ?engine p ~seed:p.seeds.(0) ~cancel)

let test_cancel_mid_run () =
  cancel_cases (fun ~tag ~engine ~algorithm ~n ->
      let p = prepared_of (spec_string ~algorithm ~n ~k:4 ()) in
      let full =
        report_line (Scenario.Runner.run_repeat ?engine p ~seed:p.seeds.(0))
      in
      let full_rounds = report_int full "rounds" in
      check Alcotest.bool (tag ^ ": run outlasts the cut") true
        (full_rounds > 3);
      let early = cancelled_after ?engine p 2 in
      let late = cancelled_after ?engine p 4 in
      check Alcotest.string (tag ^ ": early cancelled") "cancelled"
        (report_outcome early);
      check Alcotest.string (tag ^ ": late cancelled") "cancelled"
        (report_outcome late);
      check Alcotest.bool
        (tag ^ ": partial rounds")
        true
        (report_int late "rounds" < full_rounds);
      let a_early = report_int early "achieved"
      and a_late = report_int late "achieved"
      and target = report_int late "target" in
      check Alcotest.bool (tag ^ ": some coverage") true (a_early >= 1);
      check Alcotest.bool (tag ^ ": monotone coverage") true
        (a_early <= a_late && a_late <= target))

let test_cancel_completion_wins () =
  let p = prepared_of (spec_string ~n:16 ~k:4 ()) in
  (* A poll that never fires: the run must complete normally. *)
  let line =
    report_line
      (Scenario.Runner.run_repeat p ~seed:p.seeds.(0) ~cancel:(fun () -> false))
  in
  check Alcotest.string "completed" "completed" (report_outcome line)

let test_cancel_oblivious_rw () =
  (* Algorithm 2 threads the poll into both phases: a cancel in phase 1
     ends the run there (phase 2 never starts), one in phase 2 stops
     phase 2 at its next boundary; either way the report keeps the
     Algorithm-2 fields. *)
  List.iter
    (fun (tag, engine) ->
      let p =
        prepared_of (spec_string ~algorithm:"oblivious-rw" ~n:24 ~k:8 ())
      in
      let full =
        report_line (Scenario.Runner.run_repeat ?engine p ~seed:p.seeds.(0))
      in
      let phase1 = report_int full "phase1_rounds" in
      check Alcotest.bool (tag ^ ": both phases run") true
        (phase1 > 2 && report_int full "phase2_rounds" > 2);
      let pre =
        report_line
          (Scenario.Runner.run_repeat ?engine p ~seed:p.seeds.(0)
             ~cancel:(fun () -> true))
      in
      check Alcotest.string (tag ^ ": pre-cancelled") "cancelled"
        (report_outcome pre);
      check Alcotest.(list int)
        (tag ^ ": pre-cancelled runs no round")
        [ 0; 0; 0 ]
        (List.map (report_int pre) [ "rounds"; "phase1_rounds"; "phase2_rounds" ]);
      check Alcotest.bool (tag ^ ": rw fields kept") true
        (report_int pre "centers" >= 1);
      let in_phase1 = cancelled_after ?engine p 2 in
      check Alcotest.string (tag ^ ": phase-1 cut") "cancelled"
        (report_outcome in_phase1);
      check Alcotest.(list int)
        (tag ^ ": phase 2 never starts")
        [ 2; 0 ]
        (List.map (report_int in_phase1) [ "phase1_rounds"; "phase2_rounds" ]);
      (* Phase 1 polls once per round it runs; phase 2 then gets two. *)
      let in_phase2 = cancelled_after ?engine p (phase1 + 2) in
      check Alcotest.string (tag ^ ": phase-2 cut") "cancelled"
        (report_outcome in_phase2);
      check Alcotest.(list int)
        (tag ^ ": phase 2 cut after two rounds")
        [ phase1; 2 ]
        (List.map (report_int in_phase2) [ "phase1_rounds"; "phase2_rounds" ]))
    engines

(* {2 Scheduler} *)

let with_sched ?(workers = 2) ?(queue_cap = 128) f =
  let m = Mutex.create () in
  let log = ref [] in
  let notify n =
    Mutex.lock m;
    log := n :: !log;
    Mutex.unlock m
  in
  let dump () =
    Mutex.lock m;
    let l = List.rev !log in
    Mutex.unlock m;
    l
  in
  let sched = Serve.Scheduler.create ~workers ~queue_cap ~notify () in
  (* [`Cancel] flags any still-running blocker so teardown is prompt;
     tests that care about completion wait for their [Finished]
     notifications before returning. *)
  Fun.protect
    ~finally:(fun () -> Serve.Scheduler.shutdown ~mode:`Cancel sched)
    (fun () -> f sched dump)

let admit ?(client = 1) sched prepared =
  match
    Serve.Scheduler.submit sched ~client ~name:"t" ~prepared ~events:false ()
  with
  | Serve.Scheduler.Admitted { job; _ } -> job
  | Serve.Scheduler.Refused { reason; _ } ->
      Alcotest.failf "unexpected refusal: %s" reason

let finished dump job =
  List.find_map
    (function
      | Serve.Scheduler.Finished { job = j; outcome; reports } when j = job ->
          Some (outcome, reports)
      | _ -> None)
    (dump ())

let wait_finished dump job =
  wait_until
    (Printf.sprintf "job %d to finish" job)
    (fun () -> finished dump job <> None);
  match finished dump job with
  | Some f -> f
  | None -> assert false

let job_reports dump job =
  List.filter_map
    (function
      | Serve.Scheduler.Report { job = j; index; line } when j = job ->
          Some (index, line)
      | _ -> None)
    (dump ())

(* A long job the tests park on one worker: hundreds of repeats of a
   small instance, so it occupies the pool for seconds if left alone
   but stops at the next boundary once cancelled. *)
let blocker_spec = spec_string ~name:"blocker" ~n:128 ~k:4 ~repeats:2000 ()

let wait_running sched job =
  wait_until
    (Printf.sprintf "job %d to start" job)
    (fun () ->
      match Serve.Scheduler.job_state sched job with
      | Some ("running", _) -> true
      | _ -> false)

let test_sched_pool_size_independent () =
  let p = prepared_of (spec_string ~name:"indep" ~n:24 ~k:6 ~repeats:3 ()) in
  let expected =
    Array.to_list
      (Array.mapi
         (fun i seed -> (i, report_line (Scenario.Runner.run_repeat p ~seed)))
         p.seeds)
  in
  let via ~workers =
    with_sched ~workers (fun sched dump ->
        let job = admit sched p in
        let outcome, reports = wait_finished dump job in
        check Alcotest.string "outcome" "completed"
          (Serve.Scheduler.outcome_name outcome);
        check Alcotest.int "report count" 3 reports;
        job_reports dump job)
  in
  let lines = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string) in
  check lines "1 worker matches run_repeat" expected (via ~workers:1);
  check lines "3 workers match run_repeat" expected (via ~workers:3)

let test_sched_cancel_queued () =
  with_sched ~workers:1 (fun sched dump ->
      let blocker = admit sched (prepared_of blocker_spec) in
      wait_running sched blocker;
      let victim = admit sched (prepared_of (spec_string ~name:"victim" ())) in
      (match Serve.Scheduler.cancel sched victim with
      | Some was -> check Alcotest.string "was queued" "queued" was
      | None -> Alcotest.fail "victim unknown to the scheduler");
      (* Unblock the worker so it reaches the cancelled entry. *)
      ignore (Serve.Scheduler.cancel sched blocker);
      let outcome, reports = wait_finished dump victim in
      check Alcotest.string "victim cancelled" "cancelled"
        (Serve.Scheduler.outcome_name outcome);
      check Alcotest.int "zero reports" 0 reports;
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        "no report lines" [] (job_reports dump victim))

let test_sched_cancel_finished_noop () =
  with_sched ~workers:1 (fun sched dump ->
      let job = admit sched (prepared_of (spec_string ~repeats:1 ())) in
      let outcome, reports = wait_finished dump job in
      check Alcotest.string "completed" "completed"
        (Serve.Scheduler.outcome_name outcome);
      (match Serve.Scheduler.cancel sched job with
      | Some was -> check Alcotest.string "found completed" "completed" was
      | None -> Alcotest.fail "job unknown to the scheduler");
      match Serve.Scheduler.job_state sched job with
      | Some (state, n) ->
          check Alcotest.string "state untouched" "completed" state;
          check Alcotest.int "reports untouched" reports n
      | None -> Alcotest.fail "job vanished")

let test_sched_backpressure () =
  with_sched ~workers:1 ~queue_cap:1 (fun sched _dump ->
      let blocker = admit sched (prepared_of blocker_spec) in
      wait_running sched blocker;
      let queued = admit sched (prepared_of (spec_string ())) in
      (match
         Serve.Scheduler.submit sched ~client:1 ~name:"t"
           ~prepared:(prepared_of (spec_string ()))
           ~events:false ()
       with
      | Serve.Scheduler.Refused { reason; queue_depth } ->
          check Alcotest.bool "reason is not empty" true
            (String.length reason > 0);
          check Alcotest.int "depth at cap" 1 queue_depth
      | Serve.Scheduler.Admitted _ ->
          Alcotest.fail "admission above the queue cap");
      ignore (Serve.Scheduler.cancel sched queued);
      ignore (Serve.Scheduler.cancel sched blocker))

let test_sched_fair_rotation () =
  with_sched ~workers:1 (fun sched dump ->
      let blocker = admit ~client:0 sched (prepared_of blocker_spec) in
      wait_running sched blocker;
      let small name = prepared_of (spec_string ~name ~repeats:1 ()) in
      let a1 = admit ~client:1 sched (small "a1") in
      let a2 = admit ~client:1 sched (small "a2") in
      let b1 = admit ~client:2 sched (small "b1") in
      let b2 = admit ~client:2 sched (small "b2") in
      ignore (Serve.Scheduler.cancel sched blocker);
      List.iter (fun j -> ignore (wait_finished dump j)) [ a1; a2; b1; b2 ];
      let started =
        List.filter_map
          (function
            | Serve.Scheduler.Started { job } -> Some job | _ -> None)
          (dump ())
      in
      (* Client 1's backlog of two must not run before client 2 gets
         a turn: the rotation alternates 1, 2, 1, 2. *)
      check
        (Alcotest.list Alcotest.int)
        "round-robin across clients"
        [ blocker; a1; b1; a2; b2 ]
        started)

(* {2 The daemon end to end} *)

(* A run that stops on an adversary violation fails its job with the
   text the CLI prints for it, not the exception's constructor. *)
let test_sched_failure_text () =
  let trace = Filename.temp_file "present-add" ".trace.jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  Out_channel.with_open_bin trace (fun oc ->
      output_string oc
        {|{"schema":"dynspread-trace/v1","n":4,"provenance":"t"}
{"round":1,"add":[[0,1],[1,2],[2,3]],"del":[]}
{"round":2,"add":[[0,1]],"del":[]}
|});
  let spec =
    Printf.sprintf
      {|{ "schema": "dynspread-scenario/v1", "name": "present-add",
          "algorithm": "flooding",
          "env": { "family": "trace", "path": %S },
          "k": 4, "seed": 1 }|}
      trace
  in
  with_sched ~workers:1 (fun sched dump ->
      let job = admit sched (prepared_of spec) in
      match wait_finished dump job with
      | Serve.Scheduler.Failed msg, _ ->
          check Alcotest.string "failure text"
            "adversary violation: trace round 2: adding present edge (0, 1)"
            msg;
          check Alcotest.bool "no constructor name" false
            (Astring.String.is_infix ~affix:"Adversary_violation" msg)
      | outcome, _ ->
          Alcotest.failf "job ended %s"
            (Serve.Scheduler.outcome_name outcome))

let sock_path () =
  let f = Filename.temp_file "dynspread-serve" ".sock" in
  Sys.remove f;
  f

let with_server ?(workers = 2) ?(queue_cap = 128) f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = sock_path () in
  let stop = Atomic.make 0 in
  let config =
    {
      Serve.Server.socket = Some path;
      listen = None;
      metrics = None;
      workers;
      queue_cap;
      stop;
    }
  in
  let d = Domain.spawn (fun () -> Serve.Server.run config) in
  Fun.protect
    ~finally:(fun () ->
      (* Prefer the rpc drain; fall back to the signal path (the loop
         polls [stop] on its select tick). *)
      (try
         let c = Serve.Client.connect (Serve.Client.Unix_path path) in
         Serve.Client.shutdown c;
         Serve.Client.close c
       with Serve.Client.Io_error _ -> Atomic.set stop 1);
      ignore (Domain.join d))
    (fun () ->
      wait_until "the daemon socket" (fun () -> Sys.file_exists path);
      f path)

let connect path = Serve.Client.connect (Serve.Client.Unix_path path)

let submit_frame ?tag ?base_dir ?(events = false) raw =
  {
    Serve.Rpc.tag;
    spec = json_of raw;
    base_dir;
    engine = None;
    shards = None;
    events;
  }

(* Submit [raw] to a fresh daemon and check its report lines equal a
   direct [Scenario.Runner.run] of the same spec, byte for byte.  Both
   sides must give [reports] reports, one per repeat the spec asks
   for, a count the caller states rather than one read off either
   run. *)
let daemon_matches_direct ?base_dir ~reports ~what raw =
  let expected =
    match Scenario.Runner.run ?base_dir (spec_of_string raw) with
    | Ok rs -> Array.to_list (Array.map report_line rs)
    | Error e -> Alcotest.failf "direct run failed: %s" e
  in
  check Alcotest.int "direct report count" reports (List.length expected);
  with_server (fun path ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let got = ref [] in
          match
            Serve.Client.submit_await c (submit_frame ?base_dir raw)
              ~on_event:(fun _ -> ())
              ~on_report:(fun _ line -> got := line :: !got)
          with
          | Error e -> Alcotest.failf "submit failed: %s" e
          | Ok (fin : Serve.Client.finished) ->
              check Alcotest.string "outcome" "completed" fin.outcome;
              check Alcotest.int "report count" reports fin.reports;
              check
                (Alcotest.list Alcotest.string)
                what expected (List.rev !got)))

let test_server_byte_identity () =
  daemon_matches_direct ~reports:3 ~what:"byte-identical to scenario run"
    (spec_string ~name:"e2e" ~n:16 ~k:8 ~repeats:3 ())

let test_server_pipelined_submits () =
  with_server ~workers:4 (fun path ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let total = 64 in
          for i = 1 to total do
            Serve.Client.send c
              (Serve.Rpc.Submit
                 (submit_frame ~tag:(string_of_int i)
                    (spec_string
                       ~name:(Printf.sprintf "burst-%d" i)
                       ~n:8 ~k:4 ~seed:i ~repeats:1 ())))
          done;
          let accepted = ref 0 and completed = ref 0 and done_ = ref 0 in
          while !done_ < total do
            match Serve.Client.recv c with
            | Serve.Rpc.Accepted _ -> incr accepted
            | Serve.Rpc.Done { outcome; _ } ->
                incr done_;
                if outcome = "completed" then incr completed
            | Serve.Rpc.Report _ | Serve.Rpc.Event _ -> ()
            | Serve.Rpc.Rejected { reason; _ } ->
                Alcotest.failf "burst submit rejected: %s" reason
            | Serve.Rpc.Error { reason } ->
                Alcotest.failf "protocol error: %s" reason
            | _ -> ()
          done;
          check Alcotest.int "all accepted" total !accepted;
          check Alcotest.int "all completed" total !completed))

let test_server_backpressure () =
  with_server ~workers:1 ~queue_cap:1 (fun path ->
      let a = connect path and b = connect path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          Serve.Client.send a (Serve.Rpc.Submit (submit_frame blocker_spec));
          let blocker =
            match Serve.Client.recv a with
            | Serve.Rpc.Accepted { job; _ } -> job
            | r ->
                Alcotest.failf "expected accepted, got %s"
                  (Serve.Rpc.response_to_line r)
          in
          wait_until "the blocker to start" (fun () ->
              match Serve.Client.status b ~job:blocker () with
              | [ v ], _, _ -> v.Serve.Rpc.state = "running"
              | _ -> false);
          Serve.Client.send a
            (Serve.Rpc.Submit (submit_frame (spec_string ~name:"q1" ())));
          Serve.Client.send a
            (Serve.Rpc.Submit (submit_frame (spec_string ~name:"q2" ())));
          let rec next_admission () =
            match Serve.Client.recv a with
            | Serve.Rpc.Accepted { job; _ } -> Ok job
            | Serve.Rpc.Rejected { reason; queue_depth; _ } ->
                Error (reason, queue_depth)
            | Serve.Rpc.Report _ | Serve.Rpc.Event _ | Serve.Rpc.Done _ ->
                next_admission ()
            | r ->
                Alcotest.failf "unexpected frame: %s"
                  (Serve.Rpc.response_to_line r)
          in
          let queued =
            match next_admission () with
            | Ok job -> job
            | Error (reason, _) ->
                Alcotest.failf "first queued submit refused: %s" reason
          in
          (match next_admission () with
          | Error (reason, queue_depth) ->
              check Alcotest.bool "reason is not empty" true
                (String.length reason > 0);
              check Alcotest.int "depth at cap" 1 queue_depth
          | Ok _ -> Alcotest.fail "admission above the queue cap");
          ignore (Serve.Client.cancel b ~job:queued);
          ignore (Serve.Client.cancel b ~job:blocker)))

let test_server_cancel_mid_run () =
  with_server ~workers:1 (fun path ->
      let a = connect path and b = connect path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          Serve.Client.send a (Serve.Rpc.Submit (submit_frame blocker_spec));
          let job =
            match Serve.Client.recv a with
            | Serve.Rpc.Accepted { job; _ } -> job
            | r ->
                Alcotest.failf "expected accepted, got %s"
                  (Serve.Rpc.response_to_line r)
          in
          wait_until "the job to start" (fun () ->
              match Serve.Client.status b ~job () with
              | [ v ], _, _ -> v.Serve.Rpc.state = "running"
              | _ -> false);
          (match Serve.Client.cancel b ~job with
          | Ok was -> check Alcotest.string "was running" "running" was
          | Error e -> Alcotest.failf "cancel refused: %s" e);
          let rec await () =
            match Serve.Client.recv a with
            | Serve.Rpc.Done { outcome; reports; _ } -> (outcome, reports)
            | Serve.Rpc.Report _ | Serve.Rpc.Event _ -> await ()
            | r ->
                Alcotest.failf "unexpected frame: %s"
                  (Serve.Rpc.response_to_line r)
          in
          let outcome, reports = await () in
          check Alcotest.string "cancelled" "cancelled" outcome;
          check Alcotest.bool "partial reports" true (reports < 2000)))

let test_server_cancel_unknown_job () =
  with_server (fun path ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.cancel c ~job:999 with
          | Error reason ->
              check Alcotest.bool "diagnostic names the job" true
                (String.length reason > 0)
          | Ok was -> Alcotest.failf "cancelled a phantom job (was %s)" was))

let test_server_malformed_frame () =
  with_server (fun path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let line = "{\"nope\":1}\n" in
          ignore (Unix.write_substring fd line 0 (String.length line));
          let buf = Buffer.create 256 in
          let b = Bytes.create 1 in
          let rec read_reply () =
            match Unix.read fd b 0 1 with
            | 0 -> Buffer.contents buf
            | _ ->
                if Bytes.get b 0 = '\n' then Buffer.contents buf
                else begin
                  Buffer.add_char buf (Bytes.get b 0);
                  read_reply ()
                end
          in
          (match Serve.Rpc.response_of_line (read_reply ()) with
          | Ok (Serve.Rpc.Error { reason }) ->
              check Alcotest.bool "diagnostic mentions the protocol" true
                (String.length reason > 0)
          | Ok r ->
              Alcotest.failf "expected an error frame, got %s"
                (Serve.Rpc.response_to_line r)
          | Error e -> Alcotest.failf "unparsable reply: %s" e);
          (* A malformed frame is answered, not hung up on: the same
             session must still serve well-formed requests. *)
          let ping = Serve.Rpc.request_to_line Serve.Rpc.Ping ^ "\n" in
          Buffer.clear buf;
          ignore (Unix.write_substring fd ping 0 (String.length ping));
          match Serve.Rpc.response_of_line (read_reply ()) with
          | Ok Serve.Rpc.Pong -> ()
          | Ok r ->
              Alcotest.failf "expected pong after the error, got %s"
                (Serve.Rpc.response_to_line r)
          | Error e -> Alcotest.failf "unparsable pong: %s" e))

let test_server_corpus_replay () =
  daemon_matches_direct ~base_dir:"corpus" ~reports:1
    ~what:"corpus bytes identical through the daemon"
    (In_channel.with_open_bin
       (Filename.concat "corpus" "faulty-flooding.scenario.json")
       In_channel.input_all)

let test_server_lower_bound () =
  daemon_matches_direct ~reports:1
    ~what:"lower-bound bytes identical through the daemon"
    lower_bound_spec

let test_bind_unix_stale_vs_live () =
  let path = sock_path () in
  let live = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind live (Unix.ADDR_UNIX path);
  Unix.listen live 8;
  (match Serve.Server.bind_unix path with
  | exception Serve.Server.Startup_error _ -> ()
  | fd ->
      Unix.close fd;
      Alcotest.fail "bound over a live daemon");
  (* Close without unlinking: the path is now a stale socket and must
     be reclaimed. *)
  Unix.close live;
  check Alcotest.bool "stale path survives" true (Sys.file_exists path);
  let fd = Serve.Server.bind_unix path in
  Unix.close fd;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "frame: chunk reassembly" `Quick test_frame_reassembly;
    Alcotest.test_case "frame: oversize poisons" `Quick test_frame_poison;
    Alcotest.test_case "rpc: codecs round-trip" `Quick test_rpc_roundtrip;
    Alcotest.test_case "rpc: bad frames rejected" `Quick test_rpc_rejects;
    Alcotest.test_case "cancel: before start, every engine" `Quick
      test_cancel_before_start;
    Alcotest.test_case "cancel: mid-run partial coverage" `Quick
      test_cancel_mid_run;
    Alcotest.test_case "cancel: completion wins" `Quick
      test_cancel_completion_wins;
    Alcotest.test_case "scheduler: reports independent of pool size" `Quick
      test_sched_pool_size_independent;
    Alcotest.test_case "scheduler: cancel while queued" `Quick
      test_sched_cancel_queued;
    Alcotest.test_case "scheduler: cancel after completion" `Quick
      test_sched_cancel_finished_noop;
    Alcotest.test_case "scheduler: bounded-queue backpressure" `Quick
      test_sched_backpressure;
    Alcotest.test_case "scheduler: fair rotation across clients" `Quick
      test_sched_fair_rotation;
    Alcotest.test_case "server: reports byte-identical" `Quick
      test_server_byte_identity;
    Alcotest.test_case "server: 64 pipelined submits" `Quick
      test_server_pipelined_submits;
    Alcotest.test_case "server: backpressure rejection" `Quick
      test_server_backpressure;
    Alcotest.test_case "server: cancel mid-run" `Quick
      test_server_cancel_mid_run;
    Alcotest.test_case "server: cancel unknown job" `Quick
      test_server_cancel_unknown_job;
    Alcotest.test_case "server: malformed frame" `Quick
      test_server_malformed_frame;
    Alcotest.test_case "server: corpus replay byte-identical" `Quick
      test_server_corpus_replay;
    Alcotest.test_case "server: stale socket reclaimed, live refused" `Quick
      test_bind_unix_stale_vs_live;
    Alcotest.test_case "cancel: oblivious-rw in either phase" `Quick
      test_cancel_oblivious_rw;
    Alcotest.test_case "cancel: lower-bound before start, every engine" `Quick
      test_cancel_lower_bound_before_start;
    Alcotest.test_case "server: lower-bound byte-identical" `Quick
      test_server_lower_bound;
    Alcotest.test_case "scheduler: failure reads as the CLI prints it" `Quick
      test_sched_failure_text;
  ]
