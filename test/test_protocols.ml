(* End-to-end protocol tests: correctness (Definition 1.2: everyone
   ends with every token) across the protocol × environment matrix, and
   the message/round bound assertions of Theorems 3.1 and 3.4–3.6. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let stable sched = Adversary.Schedule.stabilized ~sigma:3 sched

let environments ~n ~seed =
  [
    ( "static-random",
      Gossip.Runners.Oblivious
        (Adversary.Oblivious.static
           (Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed) ~n ~p:0.15))
    );
    ("static-path",
     Gossip.Runners.Oblivious (Adversary.Oblivious.static (Dynet.Graph_gen.path ~n)));
    ("static-star",
     Gossip.Runners.Oblivious (Adversary.Oblivious.static (Dynet.Graph_gen.star ~n)));
    ( "rotator-3stable",
      Gossip.Runners.Oblivious
        (stable (Adversary.Oblivious.tree_rotator ~seed:(seed + 1) ~n)) );
    ( "rewiring-3stable",
      Gossip.Runners.Oblivious
        (stable
           (Adversary.Oblivious.rewiring ~seed:(seed + 2) ~n ~extra:n ~rate:0.3))
    );
    ( "markovian-3stable",
      Gossip.Runners.Oblivious
        (stable
           (Adversary.Oblivious.edge_markovian ~seed:(seed + 3) ~n
              ~p_up:(2. /. float_of_int n) ~p_down:0.4)) );
    ( "cutter-50",
      Gossip.Runners.Request_cutting { seed = seed + 4; cut_prob = 0.5 } );
  ]

(* {2 Single-source correctness matrix} *)

let test_single_source_matrix () =
  let n = 16 and k = 24 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:3 in
  List.iter
    (fun (name, env) ->
      let result, states = Gossip.Runners.single_source ~instance ~env () in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: completed" name)
        true result.Engine.Run_result.completed;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: all nodes complete" name)
        true
        (Array.for_all Gossip.Single_source.is_complete states);
      (* Each node receives each token exactly once (type-1 bound). *)
      Alcotest.check Alcotest.int
        (Printf.sprintf "%s: token messages = k(n-1)" name)
        (k * (n - 1))
        (Engine.Ledger.count result.Engine.Run_result.ledger
           Engine.Msg_class.Token);
      (* Completeness announcements: at most one per ordered pair. *)
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: announcements <= n(n-1)" name)
        true
        (Engine.Ledger.count result.Engine.Run_result.ledger
           Engine.Msg_class.Completeness
        <= n * (n - 1));
      (* Learnings are exactly k(n-1). *)
      Alcotest.check Alcotest.int
        (Printf.sprintf "%s: learnings" name)
        (k * (n - 1))
        (Engine.Ledger.learnings result.Engine.Run_result.ledger))
    (environments ~n ~seed:100)

(* Theorem 3.1: requests <= (tokens delivered) + (edge deletions), so
   total <= O(n^2 + nk) + TC with an explicit constant. *)
let test_single_source_competitive_bound () =
  let n = 20 and k = 40 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  List.iter
    (fun (name, env) ->
      let result, _ = Gossip.Runners.single_source ~instance ~env () in
      let ledger = result.Engine.Run_result.ledger in
      let requests = Engine.Ledger.count ledger Engine.Msg_class.Request in
      let tokens = Engine.Ledger.count ledger Engine.Msg_class.Token in
      let removals = Engine.Ledger.removals ledger in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: requests <= tokens + deletions" name)
        true
        (requests <= tokens + removals);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: competitive cost within 2x budget" name)
        true
        (Engine.Ledger.competitive_cost ledger ~alpha:1.
        <= 2. *. Gossip.Bounds.single_source_budget ~n ~k))
    (environments ~n ~seed:200)

(* Theorem 3.4: O(nk) rounds on 3-edge-stable graphs.  The proof's
   constant is small; we assert 2nk + O(n). *)
let test_single_source_round_bound_when_stable () =
  List.iter
    (fun (n, k, seed) ->
      let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
      let env =
        Gossip.Runners.Oblivious
          (stable (Adversary.Oblivious.tree_rotator ~seed ~n))
      in
      let result, _ = Gossip.Runners.single_source ~instance ~env () in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "n=%d k=%d: rounds <= 2nk + 2n" n k)
        true
        (result.Engine.Run_result.completed
        && result.Engine.Run_result.rounds <= (2 * n * k) + (2 * n)))
    [ (8, 8, 1); (12, 20, 2); (16, 8, 3); (20, 30, 4) ]

let test_single_source_rejects_multi_source_instance () =
  let rng = Dynet.Rng.make ~seed:5 in
  let instance = Gossip.Instance.multi_source ~rng ~n:8 ~k:8 ~s:2 in
  Alcotest.check_raises "multi-source rejected"
    (Invalid_argument "Single_source.init: instance must have exactly one source")
    (fun () -> ignore (Gossip.Single_source.init ~instance ()))

let test_single_source_trivial_cases () =
  (* k = 1 and n = 2: smallest possible instances. *)
  let instance = Gossip.Instance.single_source ~n:2 ~k:1 ~source:0 in
  let env =
    Gossip.Runners.Oblivious
      (Adversary.Oblivious.static (Dynet.Graph_gen.path ~n:2))
  in
  let result, states = Gossip.Runners.single_source ~instance ~env () in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "both complete" true
    (Array.for_all Gossip.Single_source.is_complete states);
  check Alcotest.int "one token message" 1
    (Engine.Ledger.count result.Engine.Run_result.ledger Engine.Msg_class.Token)

let prop_single_source_random_envs =
  QCheck.Test.make ~name:"single-source: completes on random stable envs"
    ~count:25
    (QCheck.triple (QCheck.int_range 4 20) (QCheck.int_range 1 25) QCheck.small_nat)
    (fun (n, k, seed) ->
      let instance = Gossip.Instance.single_source ~n ~k ~source:(seed mod n) in
      let env =
        Gossip.Runners.Oblivious
          (stable
             (Adversary.Oblivious.rewiring ~seed ~n ~extra:(n / 2) ~rate:0.4))
      in
      let result, states = Gossip.Runners.single_source ~instance ~env () in
      result.Engine.Run_result.completed
      && Array.for_all Gossip.Single_source.is_complete states
      && Engine.Ledger.count result.Engine.Run_result.ledger
           Engine.Msg_class.Token
         = k * (n - 1))

(* {2 Multi-source correctness matrix} *)

let test_multi_source_matrix () =
  let n = 16 and k = 24 and s = 5 in
  let rng = Dynet.Rng.make ~seed:77 in
  let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
  List.iter
    (fun (name, env) ->
      let result, states = Gossip.Runners.multi_source ~instance ~env () in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: completed" name)
        true result.Engine.Run_result.completed;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: everyone knows k tokens" name)
        true
        (Array.for_all (fun st -> Gossip.Multi_source.known_count st = k) states);
      (* Tokens: each non-initial (node, token) pair delivered once. *)
      Alcotest.check Alcotest.int
        (Printf.sprintf "%s: token messages" name)
        ((n * k) - k)
        (Engine.Ledger.count result.Engine.Run_result.ledger
           Engine.Msg_class.Token);
      (* Announcements: one per (node, neighbor, source) triple max. *)
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: announcements <= n^2 s" name)
        true
        (Engine.Ledger.count result.Engine.Run_result.ledger
           Engine.Msg_class.Completeness
        <= n * n * s))
    (environments ~n ~seed:300)

let test_multi_source_single_source_degenerate () =
  (* s = 1 multi-source behaves like single-source. *)
  let n = 12 and k = 16 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:4 in
  let env =
    Gossip.Runners.Oblivious
      (stable (Adversary.Oblivious.tree_rotator ~seed:9 ~n))
  in
  let result, states = Gossip.Runners.multi_source ~instance ~env () in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "all complete wrt the source" true
    (Array.for_all (fun st -> Gossip.Multi_source.complete_wrt st 4) states)

let test_multi_source_round_bound_when_stable () =
  List.iter
    (fun (n, k, s, seed) ->
      let rng = Dynet.Rng.make ~seed in
      let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
      let env =
        Gossip.Runners.Oblivious
          (stable (Adversary.Oblivious.tree_rotator ~seed:(seed * 3) ~n))
      in
      let result, _ = Gossip.Runners.multi_source ~instance ~env () in
      (* Theorem 3.6's O(nk); generous constant covering per-source
         handover slack. *)
      Alcotest.check Alcotest.bool
        (Printf.sprintf "n=%d k=%d s=%d: rounds <= 3nk + 2n" n k s)
        true
        (result.Engine.Run_result.completed
        && result.Engine.Run_result.rounds <= (3 * n * k) + (2 * n)))
    [ (10, 12, 3, 1); (14, 20, 5, 2); (12, 12, 12, 3) ]

let test_multi_source_n_gossip () =
  (* The open problem's special case: one token per node. *)
  let n = 14 in
  let instance = Gossip.Instance.one_per_node ~n in
  let env =
    Gossip.Runners.Oblivious
      (stable (Adversary.Oblivious.rewiring ~seed:8 ~n ~extra:n ~rate:0.2))
  in
  let result, states = Gossip.Runners.multi_source ~instance ~env () in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "everyone knows everything" true
    (Array.for_all (fun st -> Gossip.Multi_source.known_count st = n) states)

let prop_multi_source_random =
  QCheck.Test.make ~name:"multi-source: completes on random stable envs"
    ~count:20
    (QCheck.quad (QCheck.int_range 4 16) (QCheck.int_range 2 20)
       (QCheck.int_range 1 6) QCheck.small_nat)
    (fun (n, k, s, seed) ->
      let s = min s (min k n) in
      let rng = Dynet.Rng.make ~seed:(seed + 1) in
      let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
      let env =
        Gossip.Runners.Oblivious
          (stable (Adversary.Oblivious.tree_rotator ~seed:(seed + 2) ~n))
      in
      let result, states = Gossip.Runners.multi_source ~instance ~env () in
      result.Engine.Run_result.completed
      && Array.for_all
           (fun st -> Gossip.Multi_source.known_count st = k)
           states)

(* {2 Flooding} *)

let test_flooding_matrix () =
  let n = 12 in
  let instance = Gossip.Instance.one_per_node ~n in
  let k = n in
  List.iter
    (fun (name, schedule) ->
      let result, states = Gossip.Runners.flooding ~instance ~schedule () in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: completed" name)
        true result.Engine.Run_result.completed;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: everyone knows all" name)
        true
        (Array.for_all (fun st -> Gossip.Flooding.known_count st = k) states);
      (* Upper bound: at most n broadcasts per round, nk rounds. *)
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: <= n^2 k broadcasts" name)
        true
        (Engine.Ledger.total result.Engine.Run_result.ledger <= n * n * k);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: <= nk rounds" name)
        true
        (result.Engine.Run_result.rounds <= n * k))
    (Adversary.Oblivious.all_named ~n ~seed:55)

let test_flooding_single_source_phases () =
  let n = 10 and k = 5 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n) in
  let result, _ = Gossip.Runners.flooding ~instance ~schedule () in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  (* On a static path each token needs n-1 rounds of its phase. *)
  check Alcotest.bool "finishes within k phases" true
    (result.Engine.Run_result.rounds <= n * k)

let test_flooding_against_lower_bound_completes () =
  (* Flooding completes even against the strongly adaptive adversary:
     any knowers/non-knowers cut is crossed in a connected graph. *)
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  let result, states, _ =
    Gossip.Runners.flooding_vs_lower_bound ~instance ~seed:12 ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "everyone knows all" true
    (Array.for_all (fun st -> Gossip.Flooding.known_count st = n) states)

let test_lower_bound_enforces_floor () =
  (* Theorem 2.3's shape: against the adversary, flooding's amortized
     cost is >= the n^2/log^2 n floor (and of course >= the trivial n). *)
  let n = 24 in
  let instance = Gossip.Instance.one_per_node ~n in
  let result, _, _ =
    Gossip.Runners.flooding_vs_lower_bound ~instance ~seed:21 ()
  in
  let amortized =
    Engine.Ledger.amortized result.Engine.Run_result.ledger ~k:n
  in
  check Alcotest.bool "amortized >= lb floor" true
    (amortized >= Gossip.Bounds.lb_amortized ~n);
  check Alcotest.bool "amortized <= flooding upper" true
    (amortized <= Gossip.Bounds.flooding_amortized ~n)

let test_lower_bound_component_history () =
  (* Lemma 2.1's shape: free-edge components stay O(log n) small. *)
  let n = 24 in
  let instance = Gossip.Instance.one_per_node ~n in
  let _, _, lb = Gossip.Runners.flooding_vs_lower_bound ~instance ~seed:31 () in
  let history = Adversary.Broadcast_lb.history lb in
  check Alcotest.bool "non-empty history" true (history <> []);
  let max_components =
    List.fold_left (fun acc (_, c) -> max acc c) 0 history
  in
  check Alcotest.bool "components stay O(log n)" true
    (float_of_int max_components <= 4. *. Gossip.Bounds.logn n)

let test_greedy_policies_progress_against_lb () =
  (* The heuristics never beat the floor either; with a finite cap they
     pay at least lb_amortized per token-equivalent delivered. *)
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  List.iter
    (fun (name, policy) ->
      let result, _, _ =
        Gossip.Runners.greedy_vs_lower_bound ~instance ~policy ~seed:41
          ~max_rounds:(n * n) ()
      in
      let ledger = result.Engine.Run_result.ledger in
      let learnings = Engine.Ledger.learnings ledger in
      if learnings > 0 then begin
        let per_token =
          float_of_int (Engine.Ledger.total ledger)
          /. float_of_int learnings
          *. float_of_int (n - 1)
        in
        Alcotest.check Alcotest.bool
          (Printf.sprintf "%s: >= floor" name)
          true
          (per_token >= Gossip.Bounds.lb_amortized ~n)
      end)
    [
      ("round-robin", Gossip.Greedy_bcast.Round_robin);
      ("random-token", Gossip.Greedy_bcast.Random_token);
      ("lazy-0.3", Gossip.Greedy_bcast.Lazy 0.3);
    ]

(* {2 Ablation variants and the push baseline} *)

let ablation_configs =
  [
    ("no-dedup",
     { Gossip.Single_source.priority = Gossip.Single_source.Paper_priority;
       dedup_pending = false });
    ("reversed-prio",
     { Gossip.Single_source.priority = Gossip.Single_source.Reversed_priority;
       dedup_pending = true });
    ("no-prio",
     { Gossip.Single_source.priority = Gossip.Single_source.No_priority;
       dedup_pending = true });
  ]

let test_ablation_variants_still_correct () =
  let n = 14 and k = 20 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun (env_name, env) ->
          let result, states =
            Gossip.Runners.single_source ~instance ~env ~config ()
          in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%s/%s: completed and correct" name env_name)
            true
            (result.Engine.Run_result.completed
            && Array.for_all Gossip.Single_source.is_complete states))
        [
          ( "rotator",
            Gossip.Runners.Oblivious
              (stable (Adversary.Oblivious.tree_rotator ~seed:5 ~n)) );
          ( "cutter",
            Gossip.Runners.Request_cutting { seed = 6; cut_prob = 0.5 } );
        ])
    ablation_configs

let test_no_dedup_duplicates_tokens () =
  (* Without pending-request dedup, the exact k(n-1) token count of
     Theorem 3.1 is lost under churn: duplicates appear. *)
  let n = 14 and k = 20 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let env = Gossip.Runners.Request_cutting { seed = 7; cut_prob = 0.6 } in
  let tokens config =
    let result, _ = Gossip.Runners.single_source ~instance ~env ~config () in
    Engine.Ledger.count result.Engine.Run_result.ledger Engine.Msg_class.Token
  in
  let paper = tokens Gossip.Single_source.default_config in
  let ablated =
    tokens
      { Gossip.Single_source.priority = Gossip.Single_source.Paper_priority;
        dedup_pending = false }
  in
  check Alcotest.int "paper: exactly k(n-1)" (k * (n - 1)) paper;
  check Alcotest.bool "no-dedup: duplicates" true (ablated > paper)

let test_random_push_completes_and_overpays () =
  let n = 12 and k = 12 in
  let instance = Gossip.Instance.one_per_node ~n in
  let env =
    Gossip.Runners.Oblivious
      (Adversary.Oblivious.static
         (Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed:8) ~n ~p:0.3))
  in
  let result, states = Gossip.Runners.random_push ~instance ~env ~seed:9 () in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "everyone knows everything" true
    (Array.for_all (fun st -> Gossip.Random_push.known_count st = k) states);
  (* Pushes are blind: strictly more token messages than the k(n-1)
     floor the request/response design achieves exactly. *)
  check Alcotest.bool "more than k(n-1) token messages" true
    (Engine.Ledger.count result.Engine.Run_result.ledger Engine.Msg_class.Token
    > k * (n - 1))

let test_random_push_deterministic () =
  let n = 10 in
  let instance = Gossip.Instance.one_per_node ~n in
  let run () =
    let env =
      Gossip.Runners.Oblivious
        (Adversary.Oblivious.fresh_random ~seed:11 ~n ~p:0.3)
    in
    let result, _ = Gossip.Runners.random_push ~instance ~env ~seed:12 () in
    Engine.Ledger.total result.Engine.Run_result.ledger
  in
  check Alcotest.int "reproducible" (run ()) (run ())

(* {2 Determinism} *)

let test_runs_are_reproducible () =
  let n = 12 and k = 16 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let run () =
    let env =
      Gossip.Runners.Oblivious
        (stable (Adversary.Oblivious.tree_rotator ~seed:123 ~n))
    in
    let result, _ = Gossip.Runners.single_source ~instance ~env () in
    ( result.Engine.Run_result.rounds,
      Engine.Ledger.total result.Engine.Run_result.ledger )
  in
  let a = run () and b = run () in
  check (Alcotest.pair Alcotest.int Alcotest.int) "identical runs" a b

let test_multi_source_random_order_correct () =
  (* The source-order ablation: random order forfeits Theorem 3.6's
     sequencing proof but stays correct, and token delivery stays
     exactly once per (node, token). *)
  let n = 14 and k = 21 in
  let rng = Dynet.Rng.make ~seed:91 in
  let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s:7 in
  let env =
    Gossip.Runners.Oblivious
      (stable (Adversary.Oblivious.tree_rotator ~seed:92 ~n))
  in
  let result, states =
    Gossip.Runners.multi_source ~instance ~env
      ~source_order:Gossip.Multi_source.Random_source ~seed:93 ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "everyone knows k" true
    (Array.for_all (fun st -> Gossip.Multi_source.known_count st = k) states);
  check Alcotest.int "tokens delivered once"
    ((n * k) - k)
    (Engine.Ledger.count result.Engine.Run_result.ledger Engine.Msg_class.Token)

(* Theorem 3.1's request accounting, property-tested across random
   instances, seeds, and churn levels: wasted requests never exceed the
   adversary's deletions. *)
let prop_requests_charged_to_deletions =
  QCheck.Test.make
    ~name:"single-source: requests <= tokens + deletions (Thm 3.1)" ~count:20
    (QCheck.quad (QCheck.int_range 4 18) (QCheck.int_range 1 30)
       (QCheck.int_range 0 80) QCheck.bool)
    (fun (n, k, seed, use_cutter) ->
      let instance = Gossip.Instance.single_source ~n ~k ~source:(seed mod n) in
      let env =
        if use_cutter then
          Gossip.Runners.Request_cutting { seed; cut_prob = 0.6 }
        else
          Gossip.Runners.Oblivious
            (stable (Adversary.Oblivious.tree_rotator ~seed ~n))
      in
      let result, _ = Gossip.Runners.single_source ~instance ~env () in
      let ledger = result.Engine.Run_result.ledger in
      result.Engine.Run_result.completed
      && Engine.Ledger.count ledger Engine.Msg_class.Request
         <= Engine.Ledger.count ledger Engine.Msg_class.Token
            + Engine.Ledger.removals ledger
      && Engine.Ledger.removals ledger <= Engine.Ledger.tc ledger)

(* The footnote-5 invariant on every schedule family: deletions never
   exceed insertions when starting from the empty graph. *)
let prop_removals_bounded_by_tc =
  QCheck.Test.make ~name:"every family: removals <= TC (footnote 5)" ~count:30
    (QCheck.pair (QCheck.int_range 4 20) QCheck.small_nat)
    (fun (n, seed) ->
      Adversary.Oblivious.all_named ~n ~seed
      |> List.for_all (fun (_, sched) ->
             let seq = Adversary.Schedule.prefix sched 15 in
             Dynet.Dyn_seq.total_removals seq <= Dynet.Dyn_seq.tc seq))

let test_result_and_ledger_pp_smoke () =
  let instance = Gossip.Instance.single_source ~n:6 ~k:3 ~source:0 in
  let env =
    Gossip.Runners.Oblivious
      (Adversary.Oblivious.static (Dynet.Graph_gen.cycle ~n:6))
  in
  let result, _ = Gossip.Runners.single_source ~instance ~env () in
  let rendered = Format.asprintf "%a" Engine.Run_result.pp result in
  check Alcotest.bool "pp mentions completion" true
    (Astring.String.is_infix ~affix:"completed" rendered);
  check Alcotest.bool "pp mentions the token class" true
    (Astring.String.is_infix ~affix:"token=" rendered)

(* A moderate-scale soak run exercising all three unicast protocols on
   one larger instance; catches accidental quadratic blowups in the
   protocol state handling that small tests would hide. *)
let test_moderate_scale_soak () =
  let n = 48 and k = 96 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  (* Both protocols run the same committed schedule, each from its own
     freshly constructed cursor. *)
  let env () =
    Gossip.Runners.Oblivious
      (stable (Adversary.Oblivious.rewiring ~seed:77 ~n ~extra:n ~rate:0.3))
  in
  let result, states =
    Gossip.Runners.single_source ~instance ~env:(env ()) ()
  in
  check Alcotest.bool "single-source completes at scale" true
    (result.Engine.Run_result.completed
    && Array.for_all Gossip.Single_source.is_complete states);
  let rng = Dynet.Rng.make ~seed:78 in
  let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s:12 in
  let result, states =
    Gossip.Runners.multi_source ~instance ~env:(env ()) ()
  in
  check Alcotest.bool "multi-source completes at scale" true
    (result.Engine.Run_result.completed
    && Array.for_all (fun st -> Gossip.Multi_source.known_count st = k) states);
  let r =
    Gossip.Runners.oblivious_rw ~instance
      ~schedule:(Adversary.Oblivious.fresh_random ~seed:79 ~n ~p:0.2)
      ~seed:80 ~const_f:0.05 ~force_rw:true ()
  in
  check Alcotest.bool "algorithm 2 completes at scale" true
    r.Gossip.Oblivious_rw.completed

let suite =
  [
    ("single-source: env matrix", `Quick, test_single_source_matrix);
    ("single-source: Theorem 3.1 bound", `Quick,
     test_single_source_competitive_bound);
    ("single-source: Theorem 3.4 rounds", `Quick,
     test_single_source_round_bound_when_stable);
    ("single-source: rejects multi-source", `Quick,
     test_single_source_rejects_multi_source_instance);
    ("single-source: trivial cases", `Quick, test_single_source_trivial_cases);
    qcheck prop_single_source_random_envs;
    ("multi-source: env matrix", `Quick, test_multi_source_matrix);
    ("multi-source: s=1 degenerates", `Quick,
     test_multi_source_single_source_degenerate);
    ("multi-source: Theorem 3.6 rounds", `Quick,
     test_multi_source_round_bound_when_stable);
    ("multi-source: n-gossip", `Quick, test_multi_source_n_gossip);
    ("multi-source: random source order stays correct", `Quick,
     test_multi_source_random_order_correct);
    qcheck prop_multi_source_random;
    ("flooding: env matrix", `Quick, test_flooding_matrix);
    ("flooding: single-source phases", `Quick, test_flooding_single_source_phases);
    ("flooding: completes vs adaptive adversary", `Quick,
     test_flooding_against_lower_bound_completes);
    ("lower bound: amortized floor", `Quick, test_lower_bound_enforces_floor);
    ("lower bound: component history", `Quick, test_lower_bound_component_history);
    ("lower bound: greedy victims pay the floor", `Quick,
     test_greedy_policies_progress_against_lb);
    ("ablation variants stay correct", `Quick,
     test_ablation_variants_still_correct);
    ("ablation: no-dedup duplicates tokens", `Quick,
     test_no_dedup_duplicates_tokens);
    ("random push completes and overpays", `Quick,
     test_random_push_completes_and_overpays);
    ("random push deterministic", `Quick, test_random_push_deterministic);
    ("determinism", `Quick, test_runs_are_reproducible);
    qcheck prop_requests_charged_to_deletions;
    qcheck prop_removals_bounded_by_tc;
    ("result/ledger pretty-printing", `Quick, test_result_and_ledger_pp_smoke);
    ("moderate-scale soak", `Slow, test_moderate_scale_soak);
  ]
