let pass_fail ok = if ok then "PASS" else "FAIL"

(* A dense oblivious environment: random connected graphs, fresh every
   round (heavy churn but good expansion — the regime Algorithm 2's
   random walks are analyzed in). *)
let dense_schedule ~seed ~n = Adversary.Oblivious.fresh_random ~seed ~n ~p:0.25

let stable sched = Adversary.Schedule.stabilized ~sigma:3 sched

(* Every experiment runs inside Obs.Span.observe_span; with ?metrics
   supplied, its wall-clock lands in an "experiment/<id>" histogram so
   the harness can report where simulator time goes. *)
let timed ?metrics id body = Obs.Span.observe_span ?metrics ~name:id body

(* {2 E1 — Table 1} *)

let table1 ?(ns = [ 24; 32 ]) ?jobs ?metrics ?prof ~seed () =
  timed ?metrics "experiment/e1-table1" @@ fun () ->
  (* Each (n, regime) cell of Table 1 is a self-contained point: all
     its RNG streams derive from (seed, n, k), so points can run on
     any domain in any order and the sequential merge below still
     reproduces the jobs = 1 table bit-for-bit. *)
  let points =
    List.concat_map
      (fun n ->
        List.map
          (fun (row : Gossip.Bounds.table1_row) -> (n, row))
          Gossip.Bounds.table1)
      ns
    |> Array.of_list
  in
  let run_point ~prof (n, (row : Gossip.Bounds.table1_row)) =
    let k = row.k_of_n ~n in
    let s = min n k in
    let rng = Dynet.Rng.make ~seed:(seed + n + k) in
    let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
    let schedule = dense_schedule ~seed:(seed + (3 * n) + k) ~n in
    let rw =
      Gossip.Runners.oblivious_rw ~instance ~schedule
        ~seed:(seed + (7 * n) + k) ~const_f:0.02 ~force_rw:true ~prof ()
    in
    let ms_result, _ =
      Gossip.Runners.multi_source ~instance
        ~env:
          (Gossip.Runners.Oblivious
             (dense_schedule ~seed:(seed + (11 * n) + k) ~n))
        ~prof ()
    in
    let rw_amortized =
      float_of_int rw.Gossip.Oblivious_rw.paper_messages /. float_of_int k
    in
    let ms_amortized =
      Engine.Ledger.amortized ms_result.Engine.Run_result.ledger ~k
    in
    ( rw_amortized < ms_amortized,
      [
        string_of_int n;
        row.label;
        string_of_int k;
        string_of_int s;
        Table.ffloat rw_amortized;
        Table.ffloat ms_amortized;
        row.paper_bound;
        (if rw.Gossip.Oblivious_rw.completed then "yes" else "NO");
      ] )
  in
  let results =
    Sweep.map_span ?jobs ?metrics ?prof ~name:"sweep/e1-point" run_point
      points
  in
  let wins = ref 0 and cases = ref 0 in
  let rows = ref [] in
  Array.iter
    (fun (win, cells) ->
      incr cases;
      if win then incr wins;
      rows := cells :: !rows)
    results;
  let shape =
    Printf.sprintf
      "shape check (%s): Algorithm 2 beats Multi-Source-Unicast on %d/%d \
       many-source cases"
      (pass_fail (!wins * 3 >= !cases * 2))
      !wins !cases
  in
  Table.make ~title:"E1 (Table 1): amortized messages per token, oblivious adversary"
    ~columns:
      [ "n"; "k regime"; "k"; "s"; "Alg2 amortized"; "MultiSrc amortized";
        "paper bound"; "done" ]
    ~notes:
      [
        shape;
        "Alg2 amortized = paper messages / k (center announcements excluded, \
         as in Theorem 3.8);";
        "many sources (s = n) is the regime where plain Multi-Source pays \
         Omega(n^2 s / k) and loses.";
      ]
    (List.rev !rows)

(* {2 E2 — local-broadcast lower bound} *)

let per_token_cost (result : Engine.Run_result.t) ~n =
  let learnings = Engine.Ledger.learnings result.ledger in
  if learnings = 0 then Float.infinity
  else
    float_of_int (Engine.Ledger.total result.ledger)
    /. float_of_int learnings
    *. float_of_int (n - 1)

let lower_bound ?(ns = [ 16; 24; 32 ]) ?metrics ~seed () =
  timed ?metrics "experiment/e2-lower-bound" @@ fun () ->
  let rows = ref [] in
  let all_above_floor = ref true in
  let flooding_below_ceiling = ref true in
  List.iter
    (fun n ->
      let instance = Gossip.Instance.one_per_node ~n in
      let k = n in
      let floor = Gossip.Bounds.lb_amortized ~n in
      let ceiling = Gossip.Bounds.flooding_amortized ~n in
      let add name result =
        let cost = per_token_cost result ~n in
        if cost < floor then all_above_floor := false;
        rows :=
          [
            string_of_int n;
            name;
            (if result.Engine.Run_result.completed then "yes" else "capped");
            Table.fint (Engine.Ledger.total result.Engine.Run_result.ledger);
            Table.fint (Engine.Ledger.learnings result.Engine.Run_result.ledger);
            Table.ffloat cost;
            Table.ffloat floor;
            Table.ffloat ceiling;
          ]
          :: !rows
      in
      let result, _, _ =
        Gossip.Runners.flooding_vs_lower_bound ~instance ~seed:(seed + n) ()
      in
      if per_token_cost result ~n > ceiling *. 1.05 then
        flooding_below_ceiling := false;
      add "flooding" result;
      List.iter
        (fun (name, policy) ->
          let result, _, _ =
            Gossip.Runners.greedy_vs_lower_bound ~instance ~policy
              ~seed:(seed + (2 * n)) ~max_rounds:(n * k) ()
          in
          add name result)
        [
          ("round-robin", Gossip.Greedy_bcast.Round_robin);
          ("random-token", Gossip.Greedy_bcast.Random_token);
          ("lazy p=0.2", Gossip.Greedy_bcast.Lazy 0.2);
        ])
    ns;
  Table.make
    ~title:
      "E2 (Theorem 2.3): amortized broadcasts per token vs the strongly \
       adaptive adversary (k = n, one token per node)"
    ~columns:
      [ "n"; "algorithm"; "done"; "messages"; "learnings"; "per-token";
        "floor n^2/log^2 n"; "ceiling n^2" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): every strategy pays at least the n^2/log^2 n \
           floor per token delivered"
          (pass_fail !all_above_floor);
        Printf.sprintf
          "shape check (%s): flooding stays within the n^2 ceiling (its \
           upper bound is tight)"
          (pass_fail !flooding_below_ceiling);
        "per-token = messages / learnings * (n-1): the cost of a full \
         dissemination equivalent.";
      ]
    (List.rev !rows)

(* {2 E3 — free-edge structure (Figure 1, Lemmas 2.1/2.2)} *)

let free_edges ?(n = 64) ?(trials = 25) ?metrics ~seed () =
  timed ?metrics "experiment/e3-free-edges" @@ fun () ->
  let k = n in
  (* Lemma 2.2 holds for a sufficiently large constant c; c = 2 is
     already enough at simulator sizes (c = 1 is marginal at n < 32). *)
  let threshold = Gossip.Bounds.sparse_broadcaster_threshold ~c:2. ~n () in
  let rows = ref [] in
  let sparse_always_one = ref true in
  let log_bound_holds = ref true in
  let broadcaster_counts =
    let rec doubling b acc = if b > n then List.rev acc else doubling (2 * b) (b :: acc) in
    doubling 1 []
  in
  List.iter
    (fun b ->
      let components = ref [] in
      for trial = 1 to trials do
        let rng = Dynet.Rng.make ~seed:(seed + (trial * 131) + b) in
        let lb = Adversary.Broadcast_lb.create ~rng ~n ~k in
        (* The hardest view for the adversary: the n-gossip start, where
           node v knows only its own token and every broadcaster
           announces it — coverage then rests on K'_v alone. *)
        let knows v i = i = v mod k in
        let chosen = Array.make n None in
        let picked = Dynet.Rng.sample_without_replacement rng b n in
        List.iter (fun v -> chosen.(v) <- Some (v mod k)) picked;
        ignore
          (Adversary.Broadcast_lb.next_graph lb
             { Adversary.Broadcast_lb.knows; chosen });
        match Adversary.Broadcast_lb.history lb with
        | [ (_, c) ] -> components := float_of_int c :: !components
        | _ -> ()
      done;
      let mean = Obs.Stats.mean !components in
      let max_c = Obs.Stats.maximum !components in
      if float_of_int b <= threshold && max_c > 1. then
        sparse_always_one := false;
      if max_c > 4. *. Gossip.Bounds.logn n then log_bound_holds := false;
      rows :=
        [
          string_of_int b;
          (if float_of_int b <= threshold then "sparse" else "dense");
          Table.ffloat mean;
          Table.ffloat max_c;
        ]
        :: !rows)
    broadcaster_counts;
  Table.make
    ~title:
      (Printf.sprintf
         "E3 (Fig. 1 / Lemmas 2.1-2.2): free-edge components vs broadcasters \
          (n = %d, %d trials each, sparse threshold n/(2 log n) = %.1f)"
         n trials threshold)
    ~columns:[ "broadcasters"; "regime"; "mean components"; "max components" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): sparse rounds always leave a single free \
           component - zero progress possible (Lemma 2.2)"
          (pass_fail !sparse_always_one);
        Printf.sprintf
          "shape check (%s): components stay O(log n) at every density \
           (Lemma 2.1)"
          (pass_fail !log_bound_holds);
      ]
    (List.rev !rows)

(* {2 E4 + E5 — single source} *)

(* E4's environment grid for one node count; every entry's schedule is
   derived from (seed, n) alone, so a point can rebuild it on whatever
   domain it lands on. *)
let single_source_envs ~seed ~n =
  [
    ( "static",
      Gossip.Runners.Oblivious
        (Adversary.Oblivious.static
           (Dynet.Graph_gen.random_connected
              (Dynet.Rng.make ~seed:(seed + n)) ~n ~p:0.15)),
      true );
    ( "rotator-3st",
      Gossip.Runners.Oblivious
        (stable (Adversary.Oblivious.tree_rotator ~seed:(seed + n + 1) ~n)),
      true );
    ( "rewiring-3st",
      Gossip.Runners.Oblivious
        (stable
           (Adversary.Oblivious.rewiring ~seed:(seed + n + 2) ~n ~extra:n
              ~rate:0.3)),
      true );
    ( "cutter-80",
      Gossip.Runners.Request_cutting { seed = seed + n + 3; cut_prob = 0.8 },
      false );
  ]

let single_source ?(ns = [ 16; 24; 32 ]) ?jobs ?metrics ?prof ~seed () =
  timed ?metrics "experiment/e4-single-source" @@ fun () ->
  let env_count = List.length (single_source_envs ~seed ~n:2) in
  let points =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun k -> List.init env_count (fun i -> (n, k, i)))
          [ n / 2; n; 4 * n ])
      ns
    |> Array.of_list
  in
  let run_point ~prof (n, k, i) =
    let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
    let budget = Gossip.Bounds.single_source_budget ~n ~k in
    let env_name, env, is_stable = List.nth (single_source_envs ~seed ~n) i in
    let result, _ = Gossip.Runners.single_source ~instance ~env ~prof () in
    let ledger = result.Engine.Run_result.ledger in
    let competitive = Engine.Ledger.competitive_cost ledger ~alpha:1. in
    let ratio = competitive /. budget in
    let rounds_ok =
      (not is_stable) || result.Engine.Run_result.rounds <= (2 * n * k) + (2 * n)
    in
    ( ratio <= 2.,
      rounds_ok,
      [
        string_of_int n;
        string_of_int k;
        env_name;
        Table.fint (Engine.Ledger.total ledger);
        Table.fint (Engine.Ledger.tc ledger);
        Table.ffloat competitive;
        Table.fratio ratio;
        string_of_int result.Engine.Run_result.rounds;
        Table.ffloat (Engine.Ledger.amortized_competitive ledger ~alpha:1. ~k);
      ] )
  in
  let results =
    Sweep.map_span ?jobs ?metrics ?prof ~name:"sweep/e4-point" run_point
      points
  in
  let rows = ref [] in
  let within_budget = ref true and within_rounds = ref true in
  Array.iter
    (fun (budget_ok, rounds_ok, cells) ->
      if not budget_ok then within_budget := false;
      if not rounds_ok then within_rounds := false;
      rows := cells :: !rows)
    results;
  Table.make
    ~title:
      "E4/E5 (Theorems 3.1/3.4): Single-Source-Unicast, 1-adversary-\
       competitive cost vs the O(n^2 + nk) budget"
    ~columns:
      [ "n"; "k"; "environment"; "messages"; "TC"; "msgs - TC"; "vs budget";
        "rounds"; "amort (comp.)" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): (messages - TC) <= 2 (n^2 + nk) in every \
           environment, including the adaptive cutter"
          (pass_fail !within_budget);
        Printf.sprintf
          "shape check (%s): rounds <= 2nk + 2n on every 3-edge-stable \
           environment (Theorem 3.4)"
          (pass_fail !within_rounds);
        "amort (comp.) -> O(n) as k grows past n: the optimal amortized \
         complexity of Section 3.1;";
        "KT0 variant (Section 1.3 remark): without free neighbor-ID \
         knowledge, add <= 2 TC hello messages - also chargeable to the \
         adversary.";
      ]
    (List.rev !rows)

(* {2 E6 — multi source} *)

let multi_source ?(n = 24) ?(k = 96) ?(ss = [ 1; 2; 4; 8; 16; 24 ]) ?metrics
    ~seed () =
  timed ?metrics "experiment/e6-multi-source" @@ fun () ->
  let rows = ref [] in
  let within_budget = ref true in
  List.iter
    (fun s ->
      let s = min s (min n k) in
      let rng = Dynet.Rng.make ~seed:(seed + s) in
      let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
      let env =
        Gossip.Runners.Oblivious
          (stable (Adversary.Oblivious.tree_rotator ~seed:(seed + (2 * s)) ~n))
      in
      let result, _ = Gossip.Runners.multi_source ~instance ~env () in
      let ledger = result.Engine.Run_result.ledger in
      let budget = Gossip.Bounds.multi_source_budget ~n ~k ~s in
      let competitive = Engine.Ledger.competitive_cost ledger ~alpha:1. in
      if competitive > 2. *. budget then within_budget := false;
      rows :=
        [
          string_of_int s;
          Table.fint (Engine.Ledger.total ledger);
          Table.fint (Engine.Ledger.count ledger Engine.Msg_class.Completeness);
          Table.fint (Engine.Ledger.count ledger Engine.Msg_class.Token);
          Table.ffloat competitive;
          Table.ffloat budget;
          Table.fratio (competitive /. budget);
          string_of_int result.Engine.Run_result.rounds;
        ]
        :: !rows)
    ss;
  Table.make
    ~title:
      (Printf.sprintf
         "E6 (Theorems 3.5/3.6): Multi-Source-Unicast vs the O(n^2 s + nk) \
          budget (n = %d, k = %d, 3-edge-stable rotator)"
         n k)
    ~columns:
      [ "s"; "messages"; "announcements"; "tokens"; "msgs - TC"; "budget";
        "ratio"; "rounds" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): competitive cost <= 2 (n^2 s + nk) at every \
           source count"
          (pass_fail !within_budget);
        "announcements grow with s (each node announces completeness per \
         source) - the n^2 s term;";
        "token messages stay ~ nk regardless of s.";
      ]
    (List.rev !rows)

(* {2 E7 — Theorem 3.8 scaling} *)

let rw_scaling ?(n = 32) ?(ks = [ 32; 64; 128; 256; 512 ]) ?jobs ?metrics
    ?prof ~seed () =
  timed ?metrics "experiment/e7-rw-scaling" @@ fun () ->
  let replicates = 4 in
  (* Points are (k, replicate): each Algorithm-2 run seeds from its own
     salt, so replicates parallelize as freely as the k sweep. *)
  let points =
    List.concat_map
      (fun k -> List.init replicates (fun i -> (k, i + 1)))
      ks
    |> Array.of_list
  in
  let run_point ~prof (k, rep) =
    let s = min n k in
    let salt = (rep * 7919) + k in
    let rng = Dynet.Rng.make ~seed:(seed + salt) in
    let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
    let schedule = dense_schedule ~seed:(seed + (2 * salt)) ~n in
    let r =
      Gossip.Runners.oblivious_rw ~instance ~schedule ~seed:(seed + (3 * salt))
        ~const_f:0.02 ~force_rw:true ~prof ()
    in
    let ledger = r.Gossip.Oblivious_rw.ledger in
    let count cls = float_of_int (Engine.Ledger.count ledger cls) in
    ( float_of_int r.Gossip.Oblivious_rw.paper_messages,
      float_of_int r.Gossip.Oblivious_rw.centers,
      count Engine.Msg_class.Completeness,
      count Engine.Msg_class.Token +. count Engine.Msg_class.Request,
      count Engine.Msg_class.Walk )
  in
  let results =
    Sweep.map_span ?jobs ?metrics ?prof ~name:"sweep/e7-point" run_point
      points
  in
  let rows = ref [] in
  let announce_pts = ref []
  and deliver_pts = ref []
  and amort_pts = ref [] in
  let amort_means = ref [] in
  let next = ref 0 in
  List.iter
    (fun k ->
      let acc_total = ref [] and acc_centers = ref [] in
      let acc_announce = ref [] and acc_deliver = ref [] and acc_walk = ref [] in
      (* Consume this k's replicates in rep order, prepending like the
         sequential loop did, so the mean folds over the same list and
         rounds identically. *)
      for _rep = 1 to replicates do
        let total, centers, announce, deliver, walk = results.(!next) in
        incr next;
        acc_total := total :: !acc_total;
        acc_centers := centers :: !acc_centers;
        acc_announce := announce :: !acc_announce;
        acc_deliver := deliver :: !acc_deliver;
        acc_walk := walk :: !acc_walk
      done;
      let mean = Obs.Stats.mean in
      let kf = float_of_int k in
      let total = mean !acc_total in
      let amort = total /. kf in
      announce_pts := (kf, mean !acc_announce) :: !announce_pts;
      deliver_pts := (kf, mean !acc_deliver) :: !deliver_pts;
      amort_pts := (kf, amort) :: !amort_pts;
      amort_means := amort :: !amort_means;
      rows :=
        [
          string_of_int k;
          Table.ffloat (mean !acc_centers);
          Table.ffloat (Gossip.Bounds.centers_f ~c:0.02 ~n ~k ());
          Table.ffloat (mean !acc_walk);
          Table.ffloat (mean !acc_announce);
          Table.ffloat (mean !acc_deliver);
          Table.ffloat total;
          Table.ffloat amort;
        ]
        :: !rows)
    ks;
  let announce_slope = Obs.Stats.loglog_slope (List.rev !announce_pts) in
  let deliver_slope = Obs.Stats.loglog_slope (List.rev !deliver_pts) in
  let amort_slope = Obs.Stats.loglog_slope (List.rev !amort_pts) in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | [ _ ] | [] -> true
  in
  let amort_decreasing = strictly_decreasing (List.rev !amort_means) in
  Table.make
    ~title:
      (Printf.sprintf
         "E7 (Theorem 3.8): Algorithm 2 scaling in k at fixed n = %d \
          (oblivious adversary, s = min(n, k) sources, mean of %d runs)"
         n replicates)
    ~columns:
      [ "k"; "centers"; "f formula"; "walk msgs"; "announce msgs";
        "deliver msgs"; "total"; "amortized" ]
    ~notes:
      [
        Printf.sprintf
          "measured log-log slopes in k: announcements %.2f (paper: the f \
           n^2 term, f ~ k^(1/4) -> slope 1/4), delivery %.2f (the nk term \
           -> slope 1), amortized %.2f (negative: subquadratic headline)"
          announce_slope deliver_slope amort_slope;
        Printf.sprintf
          "shape check (%s): announcements grow ~k^(1/4) (slope in (0, \
           0.6)), delivery ~k (slope in (0.8, 1.2)), amortized strictly \
           decreasing"
          (pass_fail
             (announce_slope > 0. && announce_slope < 0.6
             && deliver_slope > 0.8 && deliver_slope < 1.2
             && amort_decreasing));
        "the paper's total O(n^(5/2) k^(1/4) log^(5/4) n) uses the whp \
         worst-case walk length L; measured walks settle early, so the \
         delivery term dominates at simulator scale.";
      ]
    (List.rev !rows)

(* {2 E8 — static baseline} *)

let static_baseline ?(ns = [ 16; 32; 64 ]) ?metrics ~seed () =
  timed ?metrics "experiment/e8-static-baseline" @@ fun () ->
  let rows = ref [] in
  let amortized_optimal = ref true in
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          let graph =
            Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed:(seed + n))
              ~n ~p:0.2
          in
          let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
          let r = Gossip.Spanning_tree_static.run ~graph ~instance ~root:0 in
          let formula =
            (float_of_int (n * n) /. float_of_int k) +. float_of_int n
          in
          if k >= n && r.Gossip.Spanning_tree_static.amortized > 3. *. float_of_int n
          then amortized_optimal := false;
          rows :=
            [
              string_of_int n;
              string_of_int k;
              Table.fint r.Gossip.Spanning_tree_static.total_messages;
              Table.ffloat r.Gossip.Spanning_tree_static.amortized;
              Table.ffloat formula;
              string_of_int r.Gossip.Spanning_tree_static.rounds;
            ]
            :: !rows)
        [ n / 4; n; 4 * n; 16 * n ])
    ns;
  Table.make
    ~title:
      "E8 (Section 1 baseline): static spanning-tree dissemination, \
       O(n^2/k + n) amortized"
    ~columns:[ "n"; "k"; "messages"; "amortized"; "n^2/k + n"; "rounds" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): for k >= n the amortized cost is within 3x of \
           the optimal n"
          (pass_fail !amortized_optimal);
      ]
    (List.rev !rows)

(* {2 E9 — time vs messages} *)

let time_vs_messages ?(n = 24) ?metrics ~seed () =
  timed ?metrics "experiment/e9-time-vs-messages" @@ fun () ->
  let instance = Gossip.Instance.one_per_node ~n in
  let k = n in
  let flood_result, _ =
    Gossip.Runners.flooding ~instance
      ~schedule:(dense_schedule ~seed:(seed + 1) ~n)
      ()
  in
  let ms_result, _ =
    Gossip.Runners.multi_source ~instance
      ~env:(Gossip.Runners.Oblivious (dense_schedule ~seed:(seed + 1) ~n))
      ()
  in
  let rw =
    Gossip.Runners.oblivious_rw ~instance
      ~schedule:(dense_schedule ~seed:(seed + 1) ~n)
      ~seed:(seed + 2) ~const_f:0.05 ~force_rw:true ()
  in
  let flood_msgs = Engine.Ledger.total flood_result.Engine.Run_result.ledger in
  let ms_msgs = Engine.Ledger.total ms_result.Engine.Run_result.ledger in
  let rows =
    [
      [
        "flooding (local bcast)";
        string_of_int flood_result.Engine.Run_result.rounds;
        Table.fint flood_msgs;
        Table.ffloat (float_of_int flood_msgs /. float_of_int k);
      ];
      [
        "multi-source (unicast)";
        string_of_int ms_result.Engine.Run_result.rounds;
        Table.fint ms_msgs;
        Table.ffloat (float_of_int ms_msgs /. float_of_int k);
      ];
      [
        "algorithm 2 (unicast)";
        string_of_int
          (rw.Gossip.Oblivious_rw.phase1_rounds
          + rw.Gossip.Oblivious_rw.phase2_rounds);
        Table.fint rw.Gossip.Oblivious_rw.paper_messages;
        Table.ffloat
          (float_of_int rw.Gossip.Oblivious_rw.paper_messages /. float_of_int k);
      ];
    ]
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E9 (Section 1.2): time- vs message-efficiency on one instance \
          (n-gossip, n = %d, same oblivious schedule)"
         n)
    ~columns:[ "algorithm"; "rounds"; "messages"; "amortized" ]
    ~notes:
      [
        "the round-efficient strategy is not the message-efficient one: \
         message-frugal algorithms trade silence for time.";
      ]
    rows

(* {2 E10 — Algorithm 1 ablation} *)

let ablation ?metrics ~seed () =
  timed ?metrics "experiment/e10-ablation" @@ fun () ->
  let n = 20 and k = 40 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let replicates = 3 in
  let environments =
    [
      ( "rotator-3st",
        fun i ->
          Gossip.Runners.Oblivious
            (stable (Adversary.Oblivious.tree_rotator ~seed:(seed + i) ~n)) );
      ( "cutter-70",
        fun i ->
          Gossip.Runners.Request_cutting { seed = seed + i; cut_prob = 0.7 }
      );
    ]
  in
  let variants =
    [
      ("paper", `Single Gossip.Single_source.default_config);
      ( "no-dedup",
        `Single
          {
            Gossip.Single_source.priority = Gossip.Single_source.Paper_priority;
            dedup_pending = false;
          } );
      ( "reversed-prio",
        `Single
          {
            Gossip.Single_source.priority =
              Gossip.Single_source.Reversed_priority;
            dedup_pending = true;
          } );
      ( "no-prio",
        `Single
          {
            Gossip.Single_source.priority = Gossip.Single_source.No_priority;
            dedup_pending = true;
          } );
      ("random-push", `Push);
    ]
  in
  let rows = ref [] in
  (* per (environment, variant): mean messages/tokens/rounds *)
  let summary = Hashtbl.create 16 in
  List.iter
    (fun (env_name, env_of) ->
      List.iter
        (fun (variant_name, variant) ->
          let msgs = ref [] and tokens = ref [] and rounds = ref [] in
          let completed = ref true in
          for rep = 1 to replicates do
            let result =
              match variant with
              | `Single config ->
                  fst
                    (Gossip.Runners.single_source ~instance
                       ~env:(env_of (rep * 37)) ~config ())
              | `Push ->
                  fst
                    (Gossip.Runners.random_push ~instance
                       ~env:(env_of (rep * 37)) ~seed:(seed + rep) ())
            in
            if not result.Engine.Run_result.completed then completed := false;
            let ledger = result.Engine.Run_result.ledger in
            msgs := float_of_int (Engine.Ledger.total ledger) :: !msgs;
            tokens :=
              float_of_int (Engine.Ledger.count ledger Engine.Msg_class.Token)
              :: !tokens;
            rounds :=
              float_of_int result.Engine.Run_result.rounds :: !rounds
          done;
          let mean = Obs.Stats.mean in
          Hashtbl.replace summary (env_name, variant_name)
            (mean !msgs, mean !tokens, mean !rounds);
          rows :=
            [
              env_name;
              variant_name;
              Table.ffloat (mean !msgs);
              Table.ffloat (mean !tokens);
              Table.ffloat (mean !rounds);
              (if !completed then "yes" else "CAPPED");
            ]
            :: !rows)
        variants)
    environments;
  (* Multi-source source-order ablation on the same environments. *)
  let ms_instance =
    Gossip.Instance.multi_source
      ~rng:(Dynet.Rng.make ~seed:(seed + 999))
      ~n ~k ~s:(min n (k / 2))
  in
  List.iter
    (fun (env_name, env_of) ->
      List.iter
        (fun (variant_name, source_order) ->
          let msgs = ref [] and tokens = ref [] and rounds = ref [] in
          let completed = ref true in
          for rep = 1 to replicates do
            let result, _ =
              Gossip.Runners.multi_source ~instance:ms_instance
                ~env:(env_of ((rep * 53) + 7)) ~source_order
                ~seed:(seed + rep) ()
            in
            if not result.Engine.Run_result.completed then completed := false;
            let ledger = result.Engine.Run_result.ledger in
            msgs := float_of_int (Engine.Ledger.total ledger) :: !msgs;
            tokens :=
              float_of_int (Engine.Ledger.count ledger Engine.Msg_class.Token)
              :: !tokens;
            rounds := float_of_int result.Engine.Run_result.rounds :: !rounds
          done;
          let mean = Obs.Stats.mean in
          rows :=
            [
              env_name;
              variant_name;
              Table.ffloat (mean !msgs);
              Table.ffloat (mean !tokens);
              Table.ffloat (mean !rounds);
              (if !completed then "yes" else "CAPPED");
            ]
            :: !rows)
        [
          ("ms-min-source", Gossip.Multi_source.Min_source);
          ("ms-random-source", Gossip.Multi_source.Random_source);
        ])
    environments;
  let get env v = Hashtbl.find summary (env, v) in
  let msgs_of (m, _, _) = m and tokens_of (_, t, _) = t in
  let dedup_matters =
    (* Without dedup, duplicate deliveries appear under the cutter. *)
    tokens_of (get "cutter-70" "no-dedup")
    > tokens_of (get "cutter-70" "paper") +. 0.5
  in
  let push_pays =
    List.for_all
      (fun (env, _) -> msgs_of (get env "random-push") > 2. *. msgs_of (get env "paper"))
      environments
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E10 (ablation): Algorithm 1's design choices (n = %d, k = %d, \
          mean of %d runs)"
         n k replicates)
    ~columns:[ "environment"; "variant"; "messages"; "tokens"; "rounds"; "done" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): disabling pending-request dedup causes \
           duplicate token deliveries under the request cutter (paper \
           delivers each token exactly once)"
          (pass_fail dedup_matters);
        Printf.sprintf
          "shape check (%s): the unstructured random-push baseline costs \
           >2x the paper's request/response design in every environment"
          (pass_fail push_pays);
        "the priority-order variants stay correct but lose the futile-round \
         accounting behind Theorem 3.4's proof (Lemmas 3.2/3.3);";
        "ms-* rows ablate Multi-Source's min-source rule (Theorem 3.6's \
         sequencing argument): random source order stays correct too.";
      ]
    (List.rev !rows)

(* {2 E11 — the f trade-off inside Theorem 3.8} *)

let rw_tradeoff ?metrics ~seed () =
  timed ?metrics "experiment/e11-rw-tradeoff" @@ fun () ->
  let n = 32 and k = 128 in
  let s = min n k in
  let replicates = 3 in
  let rows = ref [] in
  let walks = ref [] and announces = ref [] in
  List.iter
    (fun const_f ->
      let acc_walk = ref [] and acc_announce = ref [] and acc_total = ref [] in
      let acc_centers = ref [] and acc_ph1 = ref [] in
      for rep = 1 to replicates do
        let salt = (rep * 613) + int_of_float (const_f *. 1000.) in
        let rng = Dynet.Rng.make ~seed:(seed + salt) in
        let instance = Gossip.Instance.multi_source ~rng ~n ~k ~s in
        let schedule = dense_schedule ~seed:(seed + (2 * salt)) ~n in
        let r =
          Gossip.Runners.oblivious_rw ~instance ~schedule
            ~seed:(seed + (3 * salt)) ~const_f ~force_rw:true ()
        in
        let ledger = r.Gossip.Oblivious_rw.ledger in
        let count cls = float_of_int (Engine.Ledger.count ledger cls) in
        acc_walk := count Engine.Msg_class.Walk :: !acc_walk;
        acc_announce := count Engine.Msg_class.Completeness :: !acc_announce;
        acc_total :=
          float_of_int r.Gossip.Oblivious_rw.paper_messages :: !acc_total;
        acc_centers := float_of_int r.Gossip.Oblivious_rw.centers :: !acc_centers;
        acc_ph1 := float_of_int r.Gossip.Oblivious_rw.phase1_rounds :: !acc_ph1
      done;
      let mean = Obs.Stats.mean in
      walks := mean !acc_walk :: !walks;
      announces := mean !acc_announce :: !announces;
      rows :=
        [
          Printf.sprintf "%.2f" const_f;
          Table.ffloat (mean !acc_centers);
          Table.ffloat (mean !acc_ph1);
          Table.ffloat (mean !acc_walk);
          Table.ffloat (mean !acc_announce);
          Table.ffloat (mean !acc_total);
        ]
        :: !rows)
    [ 0.01; 0.03; 0.1; 0.3; 1.0 ];
  let first xs = List.nth xs (List.length xs - 1) in
  let last xs = List.hd xs in
  (* !walks/!announces are in reverse sweep order. *)
  let walks_decrease = first !walks > last !walks in
  let announces_increase = first !announces < last !announces in
  Table.make
    ~title:
      (Printf.sprintf
         "E11 (Theorem 3.8's optimization): center density vs cost split \
          (n = %d, k = %d, mean of %d runs; f scales with the constant)"
         n k replicates)
    ~columns:
      [ "f constant"; "centers"; "ph1 rounds"; "walk msgs"; "announce msgs";
        "total" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): more centers shorten the gather (walk msgs and \
           phase-1 rounds fall) but inflate the scatter (announce msgs \
           rise) - the kL vs f n^2 trade-off the paper optimizes"
          (pass_fail (walks_decrease && announces_increase));
        "the paper balances kL = f n^2 at f = n^(1/2) k^(1/4) log^(5/4) n.";
      ]
    (List.rev !rows)

(* {2 E12 — coding vs token forwarding} *)

let coding_gap ?metrics ~seed () =
  timed ?metrics "experiment/e12-coding-gap" @@ fun () ->
  let rows = ref [] in
  let flood_pts = ref [] and coded_pts = ref [] in
  let coding_always_faster = ref true in
  List.iter
    (fun n ->
      let instance = Gossip.Instance.one_per_node ~n in
      let k = n in
      let schedule = dense_schedule ~seed:(seed + n) ~n in
      let flood, _ = Gossip.Runners.flooding ~instance ~schedule () in
      let coded, _ =
        Gossip.Runners.coded_broadcast ~instance
          ~schedule:(dense_schedule ~seed:(seed + n) ~n)
          ~seed:(seed + (2 * n)) ()
      in
      let fr = flood.Engine.Run_result.rounds in
      let cr = coded.Engine.Run_result.rounds in
      if cr * 2 > fr then coding_always_faster := false;
      flood_pts := (float_of_int n, float_of_int fr) :: !flood_pts;
      coded_pts := (float_of_int n, float_of_int cr) :: !coded_pts;
      (* Bit complexity: a flooding broadcast carries one token message
         (Section 1.3's small-message budget); a coded packet carries a
         k-bit coefficient vector plus the payload word. *)
      let token_msg_bits =
        Gossip.Payload.bits ~n ~k
          (Gossip.Payload.Token_msg (Gossip.Token.make ~src:0 ~idx:0 ~uid:0))
      in
      let coded_msg_bits = k + Gossip.Payload.token_bits in
      let flood_msgs = Engine.Ledger.total flood.Engine.Run_result.ledger in
      let coded_msgs = Engine.Ledger.total coded.Engine.Run_result.ledger in
      rows :=
        [
          string_of_int n;
          string_of_int k;
          string_of_int fr;
          string_of_int cr;
          Table.fratio (float_of_int fr /. float_of_int cr);
          Table.fint flood_msgs;
          Table.fint coded_msgs;
          Table.fint (flood_msgs * token_msg_bits);
          Table.fint (coded_msgs * coded_msg_bits);
        ]
        :: !rows)
    [ 12; 16; 24; 32 ];
  let flood_slope = Obs.Stats.loglog_slope (List.rev !flood_pts) in
  let coded_slope = Obs.Stats.loglog_slope (List.rev !coded_pts) in
  Table.make
    ~title:
      "E12 (Section 1.2): the token-forwarding barrier - phased flooding \
       vs network-coding gossip (n-gossip, identical oblivious schedules)"
    ~columns:
      [ "n"; "k"; "flooding rounds"; "coding rounds"; "speedup";
        "flood bcasts"; "coded bcasts"; "flood bits"; "coded bits" ]
    ~notes:
      [
        Printf.sprintf
          "measured round slopes in n (k = n): flooding %.2f (paper: nk -> \
           2), coding %.2f (paper: n + k -> 1)"
          flood_slope coded_slope;
        Printf.sprintf
          "shape check (%s): coding at least halves the rounds at every n \
           and grows at least a full exponent slower"
          (pass_fail (!coding_always_faster && coded_slope +. 0.5 < flood_slope));
        "coded packets carry k-bit coefficient vectors - outside the \
         O(log n)-bit token-forwarding model, which is why Theorem 2.3 \
         does not apply to them.";
      ]
    (List.rev !rows)

(* {2 E0 — environment characterization} *)

let environments ?(n = 32) ?(rounds = 40) ?metrics ~seed () =
  timed ?metrics "experiment/e0-environments" @@ fun () ->
  let rows =
    Adversary.Oblivious.all_named ~n ~seed
    |> List.map (fun (name, sched) ->
           let seq = Adversary.Schedule.prefix sched rounds in
           let churn = Dynet.Graph_metrics.churn_stats seq in
           let mid = Dynet.Dyn_seq.get seq (rounds / 2) in
           let deg = Dynet.Graph_metrics.degree_stats mid in
           let stable3 = Dynet.Dyn_seq.is_sigma_stable seq ~sigma:3 in
           [
             name;
             Table.ffloat churn.Dynet.Graph_metrics.mean_edges;
             Table.ffloat deg.Dynet.Graph_metrics.mean_degree;
             Table.ffloat (Dynet.Graph_metrics.clustering_coefficient mid);
             Table.ffloat (Dynet.Graph_metrics.mean_distance mid);
             Table.ffloat churn.Dynet.Graph_metrics.insertions_per_round;
             Printf.sprintf "%.2f" churn.Dynet.Graph_metrics.turnover;
             (if stable3 then "yes" else "no");
           ])
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E0 (context): oblivious environment families over %d rounds (n = %d)"
         rounds n)
    ~columns:
      [ "family"; "edges"; "mean deg"; "clustering"; "mean dist";
        "ins/round"; "turnover"; "3-stable" ]
    ~notes:
      [
        "turnover = steady-state insertions per round / mean edges: 0 is \
         static, ~1 replaces the whole graph every round;";
        "families are used raw here; the unicast experiments wrap them in \
         the sigma = 3 stability hold-down when Theorems 3.4/3.6 need it.";
      ]
    rows

(* {2 E13 — leader election under the competitive measure} *)

let leader_election ?metrics ~seed () =
  timed ?metrics "experiment/e13-leader-election" @@ fun () ->
  let rows = ref [] in
  let within = ref true in
  List.iter
    (fun n ->
      List.iter
        (fun (env_name, env) ->
          let result, states = Gossip.Runners.leader_election ~n ~env () in
          let ledger = result.Engine.Run_result.ledger in
          let improvements =
            Array.fold_left
              (fun acc st -> acc + Gossip.Leader_election.improvements st)
              0 states
          in
          let competitive = Engine.Ledger.competitive_cost ledger ~alpha:2. in
          (* Each send is chargeable to an improvement (times degree) or
             to an insertion; 2 n log^2 n covers the improvement side
             with slack at these sizes. *)
          let budget =
            2. *. float_of_int n *. Gossip.Bounds.logn n *. Gossip.Bounds.logn n
          in
          if competitive > budget then within := false;
          rows :=
            [
              string_of_int n;
              env_name;
              (if result.Engine.Run_result.completed then "yes" else "NO");
              string_of_int result.Engine.Run_result.rounds;
              Table.fint (Engine.Ledger.total ledger);
              Table.fint (Engine.Ledger.tc ledger);
              Table.ffloat competitive;
              string_of_int improvements;
            ]
            :: !rows)
        [
          ( "static",
            Gossip.Runners.Oblivious
              (Adversary.Oblivious.static
                 (Dynet.Graph_gen.random_connected
                    (Dynet.Rng.make ~seed:(seed + n)) ~n ~p:0.1)) );
          ( "rewiring",
            Gossip.Runners.Oblivious
              (Adversary.Oblivious.rewiring ~seed:(seed + n + 1) ~n ~extra:n
                 ~rate:0.3) );
          ( "tree-rotator",
            Gossip.Runners.Oblivious
              (Adversary.Oblivious.tree_rotator ~seed:(seed + n + 2) ~n) );
        ])
    [ 16; 32; 64 ];
  Table.make
    ~title:
      "E13 (beyond the paper, its Section-4 program): max-id leader \
       election under the adversary-competitive measure"
    ~columns:
      [ "n"; "environment"; "elected"; "rounds"; "messages"; "TC";
        "msgs - 2TC"; "improvements" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): the 2-competitive cost stays within 2 n log^2 n \
           in every environment - churn-driven resends are fully charged to \
           the adversary"
          (pass_fail !within);
        "each send pays for either a champion improvement at the sender or \
         a fresh edge insertion (<= 2 TC): the Algorithm-1 accounting \
         pattern transferred to a new problem.";
      ]
    (List.rev !rows)

(* {2 E14 — the adversary hierarchy} *)

let adaptivity ?(n = 32) ?budget ?metrics ~seed () =
  timed ?metrics "experiment/e14-adaptivity" @@ fun () ->
  let budget = Option.value budget ~default:n in
  let instance = Gossip.Instance.one_per_node ~n in
  let k = n in
  let run_policy policy_name policy =
    let run_against adv_name make_adversary =
      let states = Gossip.Greedy_bcast.init ~instance ~policy ~seed:(seed + 5) () in
      let result, _ =
        Engine.Runner_broadcast.run Gossip.Greedy_bcast.protocol ~states
          ~adversary:(make_adversary ()) ~max_rounds:budget
          ~stop:(Gossip.Greedy_bcast.all_complete ~k)
          ()
      in
      let ledger = result.Engine.Run_result.ledger in
      let learnings = Engine.Ledger.learnings ledger in
      let messages = Engine.Ledger.total ledger in
      ( [
          policy_name;
          adv_name;
          string_of_int messages;
          string_of_int learnings;
          Table.ffloat
            (if messages = 0 then 0.
             else float_of_int learnings /. float_of_int messages);
        ],
        learnings )
    in
    let token_of = function
      | Gossip.Payload.Token_msg tok -> Some tok.Gossip.Token.uid
      | Gossip.Payload.Completeness _ | Gossip.Payload.Request _
      | Gossip.Payload.Walk_msg _ | Gossip.Payload.Center_announce ->
          None
    in
    let oblivious_row, oblivious_learned =
      run_against "oblivious" (fun () ->
          Adversary.Schedule.broadcast
            (Adversary.Oblivious.tree_rotator ~seed:(seed + 1) ~n))
    in
    let weak_row, weak_learned =
      run_against "weakly adaptive" (fun () ->
          Adversary.Weak_bcast.make ~seed:(seed + 2) ~n)
    in
    let strong_row, strong_learned =
      run_against "strongly adaptive" (fun () ->
          let lb =
            Adversary.Broadcast_lb.create
              ~rng:(Dynet.Rng.make ~seed:(seed + 3))
              ~n ~k
          in
          Adversary.Broadcast_lb.to_engine lb ~knows:Gossip.Greedy_bcast.knows
            ~token_of)
    in
    ( [ oblivious_row; weak_row; strong_row ],
      oblivious_learned >= weak_learned && weak_learned >= strong_learned )
  in
  let rows_a, ordered_a =
    run_policy "random-token" Gossip.Greedy_bcast.Random_token
  in
  let rows_b, ordered_b = run_policy "lazy p=0.3" (Gossip.Greedy_bcast.Lazy 0.3) in
  Table.make
    ~title:
      (Printf.sprintf
         "E14 (Section 1.3 hierarchy): progress allowed per adversary class \
          (n = k = %d, %d-round budget, unstructured broadcasters)"
         n budget)
    ~columns:[ "policy"; "adversary"; "messages"; "learnings"; "learn/msg" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): for each policy, learnings(oblivious) >= \
           learnings(weak) >= learnings(strong) - each step of adaptivity \
           costs the algorithm progress"
          (pass_fail (ordered_a && ordered_b));
        "the weak adversary reacts to the previous round's broadcasters \
         (footnote 4); the strong one sees the current round's choices \
         (Section 2).";
      ]
    (rows_a @ rows_b)

(* {2 E15 — robustness tax: message loss} *)

let outcome_cell (result : Engine.Run_result.t) =
  match result.Engine.Run_result.outcome with
  | Engine.Run_result.Completed -> "completed"
  | Engine.Run_result.Partial _ as o -> (
      match Engine.Run_result.coverage o with
      | Some c -> Printf.sprintf "partial %.0f%%" (100. *. c)
      | None -> "partial")
  | Engine.Run_result.Stalled _ -> "stalled"
  | Engine.Run_result.Cancelled _ as o -> (
      match Engine.Run_result.coverage o with
      | Some c -> Printf.sprintf "cancelled %.0f%%" (100. *. c)
      | None -> "cancelled")
  | Engine.Run_result.Aborted _ -> "aborted"

let fault_count (result : Engine.Run_result.t) field =
  match result.Engine.Run_result.fault_counts with
  | None -> 0
  | Some c -> (
      match List.assoc_opt field (Faults.Counts.to_fields c) with
      | Some v -> v
      | None -> 0)

let inflation ~baseline v =
  if baseline = 0 then Float.nan else float_of_int v /. float_of_int baseline

let robustness_loss ?metrics ~seed () =
  timed ?metrics "experiment/e15-robustness-loss" @@ fun () ->
  let n = 16 and k = 16 and rates = [ 0.; 0.05; 0.1; 0.2; 0.5; 0.8 ] in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  (* The same 3-edge-stable environment for every run: the sweep
     varies only the fault plan, so cost deltas are the robustness
     tax and nothing else. *)
  let env () =
    Gossip.Runners.Oblivious
      (stable (Adversary.Oblivious.tree_rotator ~seed:(seed + 1) ~n))
  in
  let plan loss =
    Faults.Plan.make ~loss ~seed:(seed + int_of_float (1000. *. loss)) ()
  in
  let baseline_msgs = ref 0 in
  let reliable_all_complete = ref true in
  let coverage_dominates = ref true in
  let bare_degrades = ref false in
  let cov (r : Engine.Run_result.t) =
    Option.value
      (Engine.Run_result.coverage r.Engine.Run_result.outcome)
      ~default:0.
  in
  let rows = ref [] in
  List.iter
    (fun loss ->
      let faults = plan loss in
      let bare, _ =
        Gossip.Runners.single_source ~instance ~env:(env ()) ~faults ()
      in
      let reliable, _, retransmits =
        Gossip.Runners.reliable_single_source ~instance ~env:(env ()) ~faults
          ()
      in
      if loss = 0. then baseline_msgs := Engine.Run_result.messages bare;
      if loss <= 0.2 && not reliable.Engine.Run_result.completed then
        reliable_all_complete := false;
      if cov reliable < cov bare -. 1e-9 then coverage_dominates := false;
      if not bare.Engine.Run_result.completed then bare_degrades := true;
      let row variant (result : Engine.Run_result.t) retransmits =
        [
          Printf.sprintf "%.2f" loss;
          variant;
          outcome_cell result;
          Table.fint (Engine.Run_result.messages result);
          string_of_int result.Engine.Run_result.rounds;
          string_of_int (fault_count result "drops");
          string_of_int retransmits;
          Table.fratio
            (inflation ~baseline:!baseline_msgs
               (Engine.Run_result.messages result));
        ]
      in
      rows :=
        row "reliable" reliable retransmits :: row "bare" bare 0 :: !rows)
    rates;
  Table.make
    ~title:
      (Printf.sprintf
         "E15 (robustness tax): Single-Source-Unicast under message loss, \
          bare vs Reliable wrapper (n = %d, k = %d, 3-edge-stable rotator)"
         n k)
    ~columns:
      [ "loss"; "variant"; "outcome"; "messages"; "rounds"; "drops";
        "retransmits"; "msg inflation" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): the wrapper completes at every loss rate <= \
           0.2, never covers less than bare, and keeps making progress at \
           the extreme rate where bare collapses"
          (pass_fail
             (!reliable_all_complete && !coverage_dominates && !bare_degrades));
        "msg inflation = messages / clean-run bare messages: the price of \
         masking loss is acks + retransmissions, growing with the loss rate;";
        "bare Single-Source survives moderate loss by re-requesting (its \
         pending-request dedup resets on topology change) but deadlocks \
         under extreme loss - and then reports a Partial outcome with \
         coverage, not a bare failure bit.";
      ]
    (List.rev !rows)

(* {2 E16 — robustness tax: crash-restart} *)

let robustness_crash ?metrics ~seed () =
  timed ?metrics "experiment/e16-robustness-crash" @@ fun () ->
  let n = 16 and k = 16 and rates = [ 0.; 0.005; 0.01; 0.02 ] in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let schedule () =
    stable (Adversary.Oblivious.tree_rotator ~seed:(seed + 2) ~n)
  in
  let baseline_msgs = ref 0 and baseline_rounds = ref 0 in
  let clean_completes = ref true in
  let all_graceful = ref true in
  let crashes_seen = ref true in
  let rows = ref [] in
  List.iter
    (fun crash ->
      let faults =
        Faults.Plan.make ~crash
          ~seed:(seed + 17 + int_of_float (10000. *. crash))
          ()
      in
      let result, _ =
        Gossip.Runners.flooding ~instance ~schedule:(schedule ()) ~faults ()
      in
      if crash = 0. then begin
        baseline_msgs := Engine.Run_result.messages result;
        baseline_rounds := result.Engine.Run_result.rounds;
        if not result.Engine.Run_result.completed then clean_completes := false
      end
      else if fault_count result "crashes" = 0 then crashes_seen := false;
      (match Engine.Run_result.coverage result.Engine.Run_result.outcome with
      | Some c when c > 0. -> ()
      | _ -> all_graceful := false);
      rows :=
        [
          Printf.sprintf "%.3f" crash;
          outcome_cell result;
          Table.fint (Engine.Run_result.messages result);
          string_of_int result.Engine.Run_result.rounds;
          string_of_int (fault_count result "crashes");
          string_of_int (fault_count result "restarts");
          Table.fratio
            (inflation ~baseline:!baseline_msgs
               (Engine.Run_result.messages result));
          Table.fratio
            (inflation ~baseline:!baseline_rounds
               result.Engine.Run_result.rounds);
        ]
        :: !rows)
    rates;
  Table.make
    ~title:
      (Printf.sprintf
         "E16 (robustness tax): phased flooding under crash-restart with \
          state loss (n = %d, k = %d, 3-edge-stable rotator, restart p = \
          0.25)"
         n k)
    ~columns:
      [ "crash rate"; "outcome"; "messages"; "rounds"; "crashes"; "restarts";
        "msg inflation"; "round inflation" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): the clean run completes, every faulty run \
           reports a positive coverage (no silent failure), and every \
           positive crash rate injects crashes"
          (pass_fail (!clean_completes && !all_graceful && !crashes_seen));
        "a restarted node re-enters with its initial state, so flooding \
         re-teaches it every token it forgot: crash faults buy round and \
         message inflation rather than wrong answers.";
      ]
    (List.rev !rows)

(* {2 E18 — mega-scale SoA engine} *)

let mega ?(ns = [ 1_000; 10_000 ]) ?metrics ?prof ~seed () =
  timed ?metrics "experiment/e18-mega" @@ fun () ->
  let k = 32 and shards = 4 in
  let report r =
    Obs.Json.to_string (Obs.Report.to_json (Engine.Run_result.to_report r))
  in
  let d = 8 and sigma = 16 in
  (* Default [phase_len] is the worst-case n (a token may need n - 1
     rounds against an adversarial connected sequence), which at n=10^5
     means nk total rounds.  These schedules are random regular-ish
     expanders — a token saturates in O(log n) rounds — so a short
     fixed phase suffices and keeps the experiment at k*phase_len
     rounds regardless of n.  Completion is still checked, not
     assumed: the shape check fails if the truncation ever bites. *)
  let phase_len = 4 * sigma in
  let all_completed = ref true and all_identical = ref true in
  let rows =
    List.map
      (fun n ->
        (* A sparse churning environment that scales: a fresh
           degree-[d] regular-ish connected graph every [sigma] rounds,
           physically held between epochs so the engines' stability
           gates (CSR repack, connectivity check) see real stable
           runs.  Committed by (seed, n, epoch) — still oblivious. *)
        let epochs = Hashtbl.create 32 in
        let schedule () =
          Adversary.Schedule.of_fun ~n (fun r ->
              let e = (r - 1) / sigma in
              match Hashtbl.find_opt epochs e with
              | Some g -> g
              | None ->
                  let g =
                    Dynet.Graph_gen.random_regularish
                      (Dynet.Rng.make ~seed:(seed + (31 * n) + e))
                      ~n ~d
                  in
                  Hashtbl.add epochs e g;
                  g)
        in
        let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
        let run engine =
          Obs.Span.time (fun () ->
              fst
                (Gossip.Runners.flooding ~instance ~schedule:(schedule ())
                   ~engine ~phase_len ?prof ()))
        in
        (* The untimed oracle runs first: it draws every epoch graph
           into [epochs], so both timed columns replay the same warm
           schedule instead of the first one paying for generation. *)
        let oracle, _ = run Engine.Reference.engine in
        let base, base_s = run (Engine.Soa.engine ()) in
        let sharded, sharded_s = run (Engine.Soa.engine ~shards ()) in
        let identical =
          String.equal (report base) (report sharded)
          && String.equal (report base) (report oracle)
        in
        if not base.Engine.Run_result.completed then all_completed := false;
        if not identical then all_identical := false;
        let rounds = base.Engine.Run_result.rounds in
        let per_round s =
          if rounds = 0 then 0. else 1000. *. s /. float_of_int rounds
        in
        [
          string_of_int n; string_of_int k; string_of_int rounds;
          Table.fint (Engine.Run_result.messages base);
          Table.ffloat (Engine.Ledger.amortized base.Engine.Run_result.ledger ~k);
          Printf.sprintf "%.3f" (per_round base_s);
          Printf.sprintf "%.3f" (per_round sharded_s);
          (if identical then "yes" else "NO");
        ])
      ns
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E18 (mega-scale): phased flooding on the SoA engine, %d-regular-ish \
          schedule re-drawn every %d rounds (k = %d, shards %d)"
         d sigma k shards)
    ~columns:
      [
        "n"; "k"; "rounds"; "messages"; "amortized/token"; "ms/round soa";
        Printf.sprintf "ms/round soa-%d" shards; "reports identical";
      ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): every run completes and the soa, soa-%d and \
           reference engines produce byte-identical run reports"
          (pass_fail (!all_completed && !all_identical))
          shards;
        "amortized/token stays O(n) under phased flooding (its nk message \
         guarantee split over k tokens); ms/round is wall-clock over the \
         whole run, so it includes the stable rounds the delta gates serve \
         for free.";
      ]
    rows

let all ?jobs ?metrics ~seed () =
  [
    environments ?metrics ~seed ();
    table1 ?jobs ?metrics ~seed ();
    lower_bound ?metrics ~seed ();
    free_edges ?metrics ~seed ();
    single_source ?jobs ?metrics ~seed ();
    multi_source ?metrics ~seed ();
    rw_scaling ?jobs ?metrics ~seed ();
    static_baseline ?metrics ~seed ();
    time_vs_messages ?metrics ~seed ();
    ablation ?metrics ~seed ();
    rw_tradeoff ?metrics ~seed ();
    coding_gap ?metrics ~seed ();
    leader_election ?metrics ~seed ();
    adaptivity ?metrics ~seed ();
    robustness_loss ?metrics ~seed ();
    robustness_crash ?metrics ~seed ();
    mega ~ns:[ 500; 2_000 ] ?metrics ~seed ();
  ]
