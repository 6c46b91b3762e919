(* Tests for the mega-scale SoA engine stack: shard-range geometry
   and the Shard_pool barrier protocol, the delta-gated CSR adjacency,
   byte-identical reports against the Reference oracle across
   topologies / algorithms / shard counts and for every runner of
   Gossip.Runners, the seeded shard-boundary mutant being observable,
   the reliable runners' retransmit trace, and the allocation-free
   steady state of the plane round loop. *)

let check = Alcotest.check

let report r =
  Obs.Json.to_string (Obs.Report.to_json (Engine.Run_result.to_report r))

let soa_engines =
  [
    ("soa", Engine.Soa.engine ());
    ("soa-2", Engine.Soa.engine ~shards:2 ());
    ("soa-4", Engine.Soa.engine ~shards:4 ());
  ]

(* {2 Shard ranges} *)

let test_ranges_geometry () =
  List.iter
    (fun (n, shards, align) ->
      let label fmt =
        Printf.sprintf ("n=%d shards=%d align=%d: " ^^ fmt) n shards align
      in
      let spans = Engine.Shard_pool.ranges ~n ~shards ~align () in
      check Alcotest.int (label "one span per shard") shards
        (Array.length spans);
      let pos = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          check Alcotest.int (label "spans are contiguous") !pos lo;
          check Alcotest.bool (label "span is ordered") true (lo <= hi);
          check Alcotest.bool (label "span is clamped to n") true (hi <= n);
          if hi < n then
            check Alcotest.int (label "interior boundary is aligned") 0
              (hi mod align);
          pos := hi)
        spans;
      check Alcotest.int (label "spans cover [0, n)") n !pos)
    [
      (10, 1, 1); (10, 3, 1); (7, 4, 1); (0, 3, 1); (1, 8, 1);
      (100, 4, Dynet.Bitset.bpw); (5, 8, Dynet.Bitset.bpw);
      (1000, 7, Dynet.Bitset.bpw); (124, 2, Dynet.Bitset.bpw);
    ]

let test_pool_owns_every_index () =
  let n = 103 in
  let spans = Engine.Shard_pool.ranges ~n ~shards:4 () in
  let owner = Array.make n (-1) in
  let passes = Array.make 4 0 in
  Engine.Shard_pool.with_pool ~spans (fun pool ->
      check Alcotest.int "pool shard count" 4 (Engine.Shard_pool.shards pool);
      Engine.Shard_pool.run pool (fun ~shard ~lo ~hi ->
          for i = lo to hi - 1 do
            owner.(i) <- shard
          done);
      (* A second barrier round trip through the same pool: the wakeup /
         done-count protocol must rearm. *)
      Engine.Shard_pool.run pool (fun ~shard ~lo:_ ~hi:_ ->
          passes.(shard) <- passes.(shard) + 1));
  Array.iteri
    (fun i s ->
      if s < 0 then Alcotest.failf "index %d never owned by any shard" i;
      let lo, hi = spans.(s) in
      if not (lo <= i && i < hi) then
        Alcotest.failf "index %d written by shard %d outside [%d, %d)" i s lo
          hi)
    owner;
  Array.iteri
    (fun s p ->
      check Alcotest.int
        (Printf.sprintf "shard %d ran the second barrier exactly once" s)
        1 p)
    passes

let test_pool_lowest_failure_wins () =
  let spans = Engine.Shard_pool.ranges ~n:40 ~shards:4 () in
  match
    Engine.Shard_pool.with_pool ~spans (fun pool ->
        Engine.Shard_pool.run pool (fun ~shard ~lo:_ ~hi:_ ->
            if shard >= 2 then failwith (string_of_int shard)))
  with
  | () -> Alcotest.fail "worker failure did not propagate"
  | exception Failure s ->
      check Alcotest.string "lowest failing shard re-raised first" "2" s

(* {2 CSR adjacency} *)

let sorted_row csr v =
  let out = ref [] in
  Dynet.Csr.iter_row csr v (fun w -> out := w :: !out);
  List.sort compare !out

let test_csr_matches_graph () =
  let n = 23 in
  let rng = Dynet.Rng.make ~seed:11 in
  let g = Dynet.Graph_gen.random_connected rng ~n ~p:0.2 in
  let csr = Dynet.Csr.create ~n in
  check Alcotest.bool "first update repacks" true (Dynet.Csr.update csr g);
  check Alcotest.int "entries = 2 x edges"
    (2 * Dynet.Graph.edge_count g)
    (Dynet.Csr.entries csr);
  for v = 0 to n - 1 do
    let expect =
      Dynet.Graph.neighbors g v |> Array.to_list |> List.sort compare
    in
    check
      Alcotest.(list int)
      (Printf.sprintf "node %d: CSR row equals graph adjacency" v)
      expect (sorted_row csr v);
    check Alcotest.int
      (Printf.sprintf "node %d: degree agrees" v)
      (Dynet.Graph.degree g v) (Dynet.Csr.degree csr v)
  done

let test_csr_delta_gated () =
  let n = 16 in
  let g = Dynet.Graph_gen.cycle ~n in
  let csr = Dynet.Csr.create ~n in
  check Alcotest.bool "initial repack" true (Dynet.Csr.update csr g);
  check Alcotest.int "one rebuild" 1 (Dynet.Csr.rebuilds csr);
  (* Same physical graph — the Stability fast path. *)
  check Alcotest.bool "same physical graph served for free" false
    (Dynet.Csr.update csr g);
  (* Structurally identical but physically fresh graph — the
     delta-counts gate. *)
  let g' = Dynet.Graph.make ~n (Array.copy (Dynet.Graph.edges g)) in
  check Alcotest.bool "structurally unchanged graph served for free" false
    (Dynet.Csr.update csr g');
  check Alcotest.int "still one rebuild" 1 (Dynet.Csr.rebuilds csr);
  (* Real churn repacks and the rows follow. *)
  let h = Dynet.Graph_gen.star ~n in
  check Alcotest.bool "churn repacks" true (Dynet.Csr.update csr h);
  check Alcotest.int "two rebuilds" 2 (Dynet.Csr.rebuilds csr);
  check Alcotest.int "hub degree after repack" (n - 1)
    (Dynet.Csr.degree csr 0)

(* {2 Plane copy-on-write fences} *)

let expect_invalid_arg label f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_plane_extract_is_detached () =
  (* The word-plane boundary is always crossed by copying: an
     extracted row must not alias the plane, or later in-place round
     updates would rewrite supposedly immutable protocol state. *)
  let p = Dynet.Plane.create ~rows:3 ~width:100 in
  Dynet.Plane.set p 1 7;
  Dynet.Plane.set p 1 63;
  let bs = Dynet.Plane.extract_row p 1 in
  check Alcotest.int "extracted cardinal" 2 (Dynet.Bitset.cardinal bs);
  Dynet.Plane.set p 1 8;
  Dynet.Plane.row_clear p 1;
  check Alcotest.bool "plane mutation invisible to the extracted copy" true
    (Dynet.Bitset.mem bs 7 && Dynet.Bitset.mem bs 63
    && Dynet.Bitset.cardinal bs = 2);
  let bs' = Dynet.Bitset.add 99 bs in
  check Alcotest.bool "persistent add on the copy leaves the plane clear"
    false
    (Dynet.Plane.mem p 1 99 || Dynet.Bitset.mem bs 99);
  check Alcotest.bool "the added element landed in the new value" true
    (Dynet.Bitset.mem bs' 99)

let test_bitset_store_word_pad_hygiene () =
  (* Writing a full machine word into the last (partial) word of a
     bitset must mask the pad bits, or popcounts and equality drift
     once planes exchange whole words. *)
  let width = 10 in
  let bs = Dynet.Bitset.create width in
  Dynet.Bitset.store_word bs 0 (-1);
  check Alcotest.int "pad bits masked on store" width
    (Dynet.Bitset.cardinal bs);
  let p = Dynet.Plane.create ~rows:2 ~width in
  Dynet.Plane.load_row p 0 bs;
  check Alcotest.int "plane row popcount agrees" width
    (Dynet.Plane.row_popcount p 0);
  check Alcotest.bool "round-trips through extract_row" true
    (Dynet.Bitset.equal bs (Dynet.Plane.extract_row p 0));
  expect_invalid_arg "width-mismatched load_row" (fun () ->
      Dynet.Plane.load_row p 0 (Dynet.Bitset.create (width + 1)))

(* {2 Byte-identical reports against the Reference oracle} *)

(* Each engine run gets a freshly constructed schedule: the
   constructors are pure in their seed, so every run sees the same
   committed sequence, and no run pays to replay a Markov family's
   cursor from round 1. *)
let named_schedule ~n ~seed name =
  List.assoc name (Adversary.Oblivious.all_named ~n ~seed)

let test_flooding_identical () =
  let n = 33 in
  let instance = Gossip.Instance.single_source ~n ~k:5 ~source:0 in
  List.iter
    (fun (sname, _) ->
      let schedule () = named_schedule ~n ~seed:3 sname in
      let baseline, _ =
        Gossip.Runners.flooding ~instance ~schedule:(schedule ())
          ~engine:Engine.Reference.engine ()
      in
      List.iter
        (fun (ename, engine) ->
          let r, _ =
            Gossip.Runners.flooding ~instance ~schedule:(schedule ()) ~engine
              ()
          in
          check Alcotest.string
            (Printf.sprintf "%s on %s matches the reference report" ename
               sname)
            (report baseline) (report r))
        soa_engines)
    (Adversary.Oblivious.all_named ~n ~seed:3)

(* Flooding without the SoA capability: SoA falls back to the generic
   broadcast loop, whose fault-free path is otherwise reached in
   production only by the hard-wired runners. *)
module Planeless_flooding = struct
  include (val Gossip.Flooding.protocol : Engine.Runner_broadcast.PROTOCOL
             with type state = Gossip.Flooding.state
              and type msg = Gossip.Payload.t)

  let plane = None
end

let test_planeless_flooding_identical () =
  let n = 17 and k = 4 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let flood engine protocol schedule =
    let module E = (val engine : Engine.Engine_sig.ENGINE) in
    let r, _ =
      E.Broadcast.run protocol ~target_progress:(n * k)
        ~states:(Gossip.Flooding.init ~instance ())
        ~adversary:(Adversary.Schedule.broadcast schedule)
        ~max_rounds:(n * k)
        ~stop:(Gossip.Flooding.all_complete ~k)
        ()
    in
    r
  in
  List.iter
    (fun (sname, _) ->
      let schedule () = named_schedule ~n ~seed:6 sname in
      let baseline =
        flood Engine.Reference.engine Gossip.Flooding.protocol (schedule ())
      in
      List.iter
        (fun (ename, engine) ->
          check Alcotest.string
            (Printf.sprintf
               "plane-less flooding on %s under %s matches reference" sname
               ename)
            (report baseline)
            (report
               (flood engine (module Planeless_flooding) (schedule ()))))
        (List.filteri (fun i _ -> i < 2) soa_engines))
    (Adversary.Oblivious.all_named ~n ~seed:6)

let test_unicast_identical () =
  let n = 21 in
  let envs =
    [
      ( "rewiring",
        fun () ->
          Gossip.Runners.Oblivious
            (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:3 ~rate:0.3) );
      ( "request-cutting",
        fun () -> Gossip.Runners.Request_cutting { seed = 9; cut_prob = 0.25 }
      );
    ]
  in
  List.iter
    (fun (envname, env) ->
      let single = Gossip.Instance.single_source ~n ~k:4 ~source:0 in
      let multi = Gossip.Instance.one_per_node ~n in
      let base_s, _ =
        Gossip.Runners.single_source ~instance:single ~env:(env ())
          ~engine:Engine.Reference.engine ()
      in
      let base_m, _ =
        Gossip.Runners.multi_source ~instance:multi ~env:(env ())
          ~engine:Engine.Reference.engine ()
      in
      List.iter
        (fun (ename, engine) ->
          let r_s, _ =
            Gossip.Runners.single_source ~instance:single ~env:(env ())
              ~engine ()
          in
          check Alcotest.string
            (Printf.sprintf "single-source/%s under %s matches reference"
               envname ename)
            (report base_s) (report r_s);
          let r_m, _ =
            Gossip.Runners.multi_source ~instance:multi ~env:(env ())
              ~engine ()
          in
          check Alcotest.string
            (Printf.sprintf "multi-source/%s under %s matches reference"
               envname ename)
            (report base_m) (report r_m))
        soa_engines)
    envs

let test_faulty_runs_identical () =
  (* Faulty broadcast runs take the generic broadcast loop; faulty
     unicast runs go through the shared sharded loop, whose fault
     delivery draws replay in global send order — so both stay
     identical to the oracle at every shard count.  The second
     broadcast plan drives every fault path of the delivery layer:
     drops, duplicates, delays and crash/restart. *)
  let n = 12 in
  let instance = Gossip.Instance.single_source ~n ~k:3 ~source:0 in
  let schedule = Adversary.Oblivious.fresh_random ~seed:4 ~n ~p:0.4 in
  List.iter
    (fun (pname, faults, kinds, engines) ->
      let base, _ =
        Gossip.Runners.flooding ~instance ~schedule ~faults
          ~engine:Engine.Reference.engine ()
      in
      let counts =
        match base.Engine.Run_result.fault_counts with
        | Some c -> Faults.Counts.to_fields c
        | None -> []
      in
      List.iter
        (fun kind ->
          check Alcotest.bool
            (Printf.sprintf "plan %s injects %s" pname kind)
            true
            (List.assoc_opt kind counts |> Option.value ~default:0 > 0))
        kinds;
      List.iter
        (fun (ename, engine) ->
          let r, _ =
            Gossip.Runners.flooding ~instance ~schedule ~faults ~engine ()
          in
          check Alcotest.string
            (Printf.sprintf "faulty flooding (%s) under %s matches reference"
               pname ename)
            (report base) (report r))
        engines)
    [
      ("loss", Faults.Plan.make ~seed:7 ~loss:0.1 (), [ "drops" ], soa_engines);
      ( "loss, dup, delay, crash",
        Faults.Plan.make ~seed:7 ~loss:0.1 ~dup:0.1 ~max_delay:2 ~crash:0.05
          ~restart:0.5 (),
        [ "drops"; "dups"; "delays"; "crashes"; "restarts" ],
        List.filteri (fun i _ -> i < 2) soa_engines );
    ];
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  let env () =
    Gossip.Runners.Oblivious
      (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:3 ~rate:0.3)
  in
  let faults =
    Faults.Plan.make ~seed:11 ~loss:0.1 ~dup:0.1 ~max_delay:2 ~crash:0.05
      ~restart:0.5 ()
  in
  let base, _ =
    Gossip.Runners.multi_source ~instance ~env:(env ()) ~faults
      ~engine:Engine.Reference.engine ()
  in
  List.iter
    (fun (ename, engine) ->
      let r, _ =
        Gossip.Runners.multi_source ~instance ~env:(env ()) ~faults ~engine ()
      in
      check Alcotest.string
        (Printf.sprintf "faulty multi-source under %s matches reference" ename)
        (report base) (report r))
    soa_engines

let test_boundary_mutant_observable () =
  (* The seeded off-by-one (shard 1 starts one node late) must change
     behaviour — it is the fuzz harness's detection canary, so a
     silently-absorbed mutant would mean the harness tests nothing. *)
  let n = 10 in
  let instance = Gossip.Instance.single_source ~n ~k:3 ~source:0 in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n) in
  let clean, _ =
    Gossip.Runners.flooding ~instance ~schedule
      ~engine:(Engine.Soa.engine ~shards:2 ())
      ()
  in
  let buggy, _ =
    Gossip.Runners.flooding ~instance ~schedule
      ~engine:(Engine.Soa.make ~shards:2 ~boundary_bug:true ())
      ()
  in
  check Alcotest.bool "the boundary mutant changes the report" false
    (String.equal (report clean) (report buggy))

(* {2 Every runner on every engine}

   Each runner of [Gossip.Runners] runs through the [ENGINE] seam, so
   Reference, soa-1 and soa-2 must agree on its report — and on what
   the runner returns beside it: the retransmit count of the reliable
   runners, the adversary's component history of the lower-bound
   runners, and Algorithm 2's whole result (every field of
   [Oblivious_rw.result] is in its report). *)

let runner_cases =
  let history lb =
    String.concat ";"
      (List.map
         (fun (r, c) -> Printf.sprintf "%d:%d" r c)
         (Adversary.Broadcast_lb.history lb))
  in
  let rewiring n =
    Gossip.Runners.Oblivious
      (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:3 ~rate:0.3)
  in
  let faults =
    Faults.Plan.make ~seed:3 ~loss:0.15 ~dup:0.1 ~max_delay:2 ()
  in
  [
    ( "reliable single-source",
      fun engine ->
        let r, _, rt =
          Gossip.Runners.reliable_single_source
            ~instance:(Gossip.Instance.single_source ~n:12 ~k:6 ~source:0)
            ~env:(rewiring 12) ~engine ~faults ()
        in
        report r ^ string_of_int rt );
    ( "reliable multi-source",
      fun engine ->
        let r, _, rt =
          Gossip.Runners.reliable_multi_source
            ~instance:(Gossip.Instance.one_per_node ~n:12)
            ~env:(rewiring 12) ~engine ~faults ()
        in
        report r ^ string_of_int rt );
    ( "random push",
      fun engine ->
        fst
          (Gossip.Runners.random_push
             ~instance:(Gossip.Instance.single_source ~n:14 ~k:4 ~source:0)
             ~env:(rewiring 14) ~seed:9 ~engine ())
        |> report );
    ( "leader election",
      fun engine ->
        fst
          (Gossip.Runners.leader_election ~n:14
             ~env:(Gossip.Runners.Request_cutting { seed = 4; cut_prob = 0.3 })
             ~engine ())
        |> report );
    ( "coded broadcast",
      fun engine ->
        fst
          (Gossip.Runners.coded_broadcast
             ~instance:(Gossip.Instance.one_per_node ~n:12)
             ~schedule:(Adversary.Oblivious.fresh_random ~seed:6 ~n:12 ~p:0.3)
             ~seed:7 ~engine ())
        |> report );
    ( "flooding vs lower bound",
      fun engine ->
        let r, _, lb =
          Gossip.Runners.flooding_vs_lower_bound
            ~instance:(Gossip.Instance.one_per_node ~n:12)
            ~seed:8 ~engine ()
        in
        report r ^ history lb );
    ( "greedy vs lower bound",
      fun engine ->
        let r, _, lb =
          Gossip.Runners.greedy_vs_lower_bound
            ~instance:(Gossip.Instance.one_per_node ~n:12)
            ~policy:Gossip.Greedy_bcast.Random_token ~seed:8 ~max_rounds:60
            ~engine ()
        in
        report r ^ history lb );
    ( "oblivious-rw (forced)",
      fun engine ->
        let n = 24 in
        Gossip.Runners.oblivious_rw
          ~instance:
            (Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed:2) ~n
               ~k:24 ~s:24)
          ~schedule:(Adversary.Oblivious.fresh_random ~seed:3 ~n ~p:0.25)
          ~seed:4 ~const_f:0.1 ~force_rw:true ~engine ()
        |> Gossip.Oblivious_rw.to_report ~name:"rw" ~k:24
        |> Obs.Report.to_json |> Obs.Json.to_string );
  ]

let test_every_runner_identical () =
  List.iter
    (fun (name, run) ->
      let base = run Engine.Reference.engine in
      List.iter
        (fun (ename, engine) ->
          check Alcotest.string
            (Printf.sprintf "%s under %s matches reference" name ename)
            base (run engine))
        (List.filteri (fun i _ -> i < 2) soa_engines))
    runner_cases

let test_runner_boundary_mutant_observable () =
  (* The mutant may also break a runner outright: Algorithm 2's
     hand-off rejects a phase 1 that lost the skipped node's tokens. *)
  let buggy = Engine.Soa.make ~shards:2 ~boundary_bug:true () in
  let diverging =
    List.filter
      (fun (_, run) ->
        match run buggy with
        | report -> not (String.equal (run Engine.Reference.engine) report)
        | exception Invalid_argument _ -> true)
      runner_cases
  in
  check Alcotest.bool "the boundary mutant changes some runner's report" true
    (diverging <> [])

let test_retransmit_trace_deterministic () =
  (* The wrapper records retransmissions in node state and the runner
     emits them from its stop predicate, so the trace is the same at
     any shard count, and it carries exactly the returned count. *)
  let n = 16 in
  let traced engine =
    let sink = Obs.Sink.memory () in
    let _, _, retransmits =
      Gossip.Runners.reliable_multi_source
        ~instance:(Gossip.Instance.one_per_node ~n)
        ~env:
          (Gossip.Runners.Oblivious
             (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:3 ~rate:0.3))
        ~faults:(Faults.Plan.make ~seed:2 ~loss:0.2 ())
        ~engine ~obs:sink ()
    in
    ( List.map
        (fun ev -> Obs.Json.to_string (Obs.Trace.to_json ev))
        (Obs.Sink.events sink),
      retransmits )
  in
  let events1, retransmits = traced (Engine.Soa.engine ()) in
  let events4, _ = traced (Engine.Soa.engine ~shards:4 ()) in
  check Alcotest.(list string) "soa-1 and soa-4 traces" events1 events4;
  check Alcotest.bool "the plan forces retransmissions" true (retransmits > 0);
  let is_retransmit line =
    Astring.String.is_infix ~affix:{|"kind":"retransmit"|} line
  in
  check Alcotest.int "one retransmit event per retransmission" retransmits
    (List.length (List.filter is_retransmit events1))

let test_retransmit_count_survives_restarts () =
  (* A crash-restart resets the wrapper's state, so the count must be
     taken round by round: under a crash plan it still equals the
     trace's retransmit events, on every engine, and in the report's
     fault counts. *)
  let n = 16 in
  let counted engine =
    let sink = Obs.Sink.memory () in
    let result, _, retransmits =
      Gossip.Runners.reliable_multi_source
        ~instance:(Gossip.Instance.one_per_node ~n)
        ~env:
          (Gossip.Runners.Oblivious
             (Adversary.Oblivious.rewiring ~seed:5 ~n ~extra:3 ~rate:0.3))
        ~faults:
          (Faults.Plan.make ~seed:2 ~loss:0.2 ~crash:0.05 ~restart:0.5 ())
        ~max_rounds:400 ~engine ~obs:sink ()
    in
    let events =
      List.filter
        (fun ev ->
          Astring.String.is_infix ~affix:{|"kind":"retransmit"|}
            (Obs.Json.to_string (Obs.Trace.to_json ev)))
        (Obs.Sink.events sink)
    in
    let restarts =
      List.length
        (List.filter
           (fun ev ->
             Astring.String.is_infix ~affix:{|"kind":"restart"|}
               (Obs.Json.to_string (Obs.Trace.to_json ev)))
           (Obs.Sink.events sink))
    in
    let folded =
      match result.Engine.Run_result.fault_counts with
      | Some c -> c.Faults.Counts.retransmits
      | None -> -1
    in
    (retransmits, List.length events, restarts, folded)
  in
  List.iter
    (fun (name, engine) ->
      let retransmits, events, restarts, folded = counted engine in
      check Alcotest.bool (name ^ ": the plan restarts nodes") true
        (restarts > 0);
      check Alcotest.int (name ^ ": count = retransmit events") events
        retransmits;
      check Alcotest.int (name ^ ": count folded into fault counts")
        retransmits folded)
    [
      ("reference", Engine.Reference.engine);
      ("soa-1", Engine.Soa.engine ());
      ("soa-4", Engine.Soa.engine ~shards:4 ());
    ]

(* {2 Steady-state allocation}

   Differential minor-heap measurement shared by the three allocation
   tests below: run the same configuration twice — once for 100
   rounds, once for 1100 — and charge the difference to the extra
   1000 rounds, so setup, teardown and the common prefix cancel out.
   The result's timeline is one [(round, total, learnings)] entry per
   round by contract, materialised in one burst after the loop; its
   cost is measured the same way and subtracted, so the figure
   isolates the round loop itself.  [Gc.minor_words] counts the
   calling domain only, which is exactly the coordinating domain the
   multi-shard tests want to pin (shard 0 always runs there). *)

let per_round_minor_words engine ~instance ~graph =
  let adversary ~round:_ ~prev:_ ~states:_ ~intents:_ = graph in
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let minor_words rounds =
    let go () =
      ignore
        (E.Broadcast.run Gossip.Flooding.protocol
           ~states:(Gossip.Flooding.init ~instance ())
           ~adversary ~max_rounds:rounds
           ~stop:(fun _ -> false)
           ())
    in
    go ();
    (* warm-up *)
    Gc.full_major ();
    let before = Gc.minor_words () in
    go ();
    Gc.minor_words () -. before
  in
  let timeline_words rounds =
    Gc.full_major ();
    let before = Gc.minor_words () in
    ignore
      (Sys.opaque_identity (List.init rounds (fun i -> (i + 1, i, i))));
    Gc.minor_words () -. before
  in
  let short = minor_words 100 and long = minor_words 1100 in
  let tshort = timeline_words 100 and tlong = timeline_words 1100 in
  (long -. short -. (tlong -. tshort)) /. 1000.

let test_round_loop_allocation_free () =
  (* A one-per-node instance on a small cycle saturates within a few
     dozen rounds; with [stop] never firing, every round after that is
     pure steady state (everyone broadcasts, nobody learns): the plane
     kernel must not allocate on the minor heap per round. *)
  let n = 8 in
  let per_round =
    per_round_minor_words (Engine.Soa.engine ())
      ~instance:(Gossip.Instance.one_per_node ~n)
      ~graph:(Dynet.Graph_gen.cycle ~n)
  in
  if per_round > 0.25 then
    Alcotest.failf
      "steady-state flooding rounds allocate %.2f minor words/round beyond \
       the timeline"
      per_round

let test_multi_shard_merge_allocation_free () =
  (* The same saturated steady state at shards = 4 (spans are
     unaligned, so even n = 8 splits into four real two-node shards):
     the measurement now also covers the barrier round trips and the
     ascending-shard staging-row merge between phases, none of which
     may allocate per round on the coordinating domain. *)
  let n = 8 in
  let per_round =
    per_round_minor_words
      (Engine.Soa.engine ~shards:4 ())
      ~instance:(Gossip.Instance.one_per_node ~n)
      ~graph:(Dynet.Graph_gen.cycle ~n)
  in
  if per_round > 0.25 then
    Alcotest.failf
      "multi-shard steady-state rounds allocate %.2f minor words/round on \
       the coordinating domain"
      per_round

let test_push_path_allocation_bounded () =
  (* A single source on a long path spreads one node per round, so
     every measured round keeps the broadcaster count under n/4 and
     the engine picks the push-side delivery (push_job, staging-row
     merge, apply_job) instead of pull.  The push path can never be
     learning-free — a connected round with an uninformed node always
     teaches one (any cut has a crossing edge) — so its sanctioned
     budget is that one learning's allocation: the restated node
     state plus [Plane.extract_row]'s detached mask, a small constant.
     A regression that allocates per node or per edge inside the
     delivery jobs shows up thousands of words over this bound at
     n = 4600. *)
  let n = 4600 in
  List.iter
    (fun shards ->
      let per_round =
        per_round_minor_words
          (Engine.Soa.engine ~shards ())
          ~instance:(Gossip.Instance.single_source ~n ~k:1 ~source:0)
          ~graph:(Dynet.Graph_gen.path ~n)
      in
      if per_round > 64. then
        Alcotest.failf
          "push-path rounds at shards=%d allocate %.1f minor words/round; \
           the budget is one learning's restate + extracted row (a small \
           constant)"
          shards per_round)
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "ranges: contiguous, aligned, clamped" `Quick
      test_ranges_geometry;
    Alcotest.test_case "pool: every index owned, barrier rearms" `Quick
      test_pool_owns_every_index;
    Alcotest.test_case "pool: lowest-shard failure wins" `Quick
      test_pool_lowest_failure_wins;
    Alcotest.test_case "csr: rows match graph adjacency" `Quick
      test_csr_matches_graph;
    Alcotest.test_case "csr: delta-gated rebuilds" `Quick
      test_csr_delta_gated;
    Alcotest.test_case "plane: extract_row is detached" `Quick
      test_plane_extract_is_detached;
    Alcotest.test_case "plane: store_word pad hygiene" `Quick
      test_bitset_store_word_pad_hygiene;
    Alcotest.test_case "soa: flooding byte-identical at shards 1/2/4" `Quick
      test_flooding_identical;
    Alcotest.test_case "soa: plane-less flooding byte-identical at shards 1/2"
      `Quick test_planeless_flooding_identical;
    Alcotest.test_case "soa: unicast byte-identical at shards 1/2/4" `Quick
      test_unicast_identical;
    Alcotest.test_case "soa: faulty runs identical" `Quick
      test_faulty_runs_identical;
    Alcotest.test_case "soa: boundary mutant is observable" `Quick
      test_boundary_mutant_observable;
    Alcotest.test_case "soa: round loop allocation-free" `Quick
      test_round_loop_allocation_free;
    Alcotest.test_case "soa: multi-shard merge allocation-free" `Quick
      test_multi_shard_merge_allocation_free;
    Alcotest.test_case "soa: push path allocation bounded" `Quick
      test_push_path_allocation_bounded;
    Alcotest.test_case "soa: every runner byte-identical to reference" `Quick
      test_every_runner_identical;
    Alcotest.test_case "soa: boundary mutant observable on the runners"
      `Quick test_runner_boundary_mutant_observable;
    Alcotest.test_case "soa: retransmit trace identical at shards 1/4"
      `Quick test_retransmit_trace_deterministic;
    Alcotest.test_case "soa: retransmit count survives crash-restarts"
      `Quick test_retransmit_count_survives_restarts;
  ]
