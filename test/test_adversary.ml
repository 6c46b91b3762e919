(* Tests for the oblivious schedule families, the stability wrapper,
   the Section-2 lower-bound adversary, and the request cutter. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Schedule mechanics} *)

(* A schedule is a forward cursor: it keeps the current round's graph
   and nothing older. *)
let test_schedule_stateless_forward () =
  let calls = ref [] in
  let sched =
    Adversary.Schedule.of_fun ~n:12 (fun r ->
        calls := r :: !calls;
        Dynet.Graph_gen.random_connected
          (Dynet.Rng.make ~seed:(3 + r)) ~n:12 ~p:0.2)
  in
  for r = 1 to 3 do
    ignore (Adversary.Schedule.get sched r)
  done;
  let g4 = Dynet.Graph.edges (Adversary.Schedule.get sched 4) in
  (* Re-reading the cursor's round hands back the graph it holds. *)
  ignore (Adversary.Schedule.get sched 4);
  ignore (Adversary.Schedule.get sched 7);
  let g4' = Dynet.Graph.edges (Adversary.Schedule.get sched 4) in
  check Alcotest.(list int)
    "forward rounds generated once, the current one not again, skipped \
     ones never, a backward one again"
    [ 1; 2; 3; 4; 7; 4 ] (List.rev !calls);
  check Alcotest.(array int) "a backward read re-derives the same keys" g4 g4'

(* A Markov rule has only the previous graph to step from, so a read
   behind the cursor replays the sequence from [init], each round once,
   in order, to the same keys. *)
let test_schedule_markov_behind_replays () =
  let steps = ref [] in
  let make () =
    Adversary.Schedule.iterate ~n:8
      ~init:(fun () ->
        steps := 1 :: !steps;
        Dynet.Graph_gen.path ~n:8)
      (fun r prev ->
        steps := r :: !steps;
        Dynet.Graph.union prev
          (Dynet.Graph.make ~n:8
             [| Dynet.Edge_table.key ~n:8 0 (2 + (r mod 6)) |]))
  in
  let sched = make () in
  ignore (Adversary.Schedule.get sched 5);
  let g3 = Dynet.Graph.edges (Adversary.Schedule.get sched 3) in
  ignore (Adversary.Schedule.get sched 4);
  check Alcotest.(list int) "forward, replay from round 1, then forward"
    [ 1; 2; 3; 4; 5; 1; 2; 3; 4 ] (List.rev !steps);
  check Alcotest.(array int) "the replayed round has the committed keys"
    (Dynet.Graph.edges (Adversary.Schedule.get (make ()) 3)) g3

(* The stability wrapper keeps per-edge ages; its replay must start
   from fresh ages to repeat the committed sequence. *)
let test_schedule_stabilized_replays () =
  let sched =
    Adversary.Schedule.stabilized ~sigma:3
      (Adversary.Oblivious.rewiring ~seed:4 ~n:10 ~extra:10 ~rate:0.5)
  in
  let pass () =
    List.init 15 (fun i ->
        Dynet.Graph.edges (Adversary.Schedule.get sched (i + 1)))
  in
  let first = pass () in
  check Alcotest.(list (array int)) "a second pass repeats the first" first
    (pass ())

(* 2000 rounds on one cursor leave at most a few graphs live; the old
   per-round memo kept all of them (about 1.5 M words here). *)
let test_schedule_memory_flat () =
  let n = 40 in
  let sched = Adversary.Oblivious.fresh_random ~seed:9 ~n ~p:0.25 in
  let graph_words =
    Obj.reachable_words (Obj.repr (Adversary.Schedule.get sched 1))
  in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for r = 2 to 2000 do
    ignore (Adversary.Schedule.get sched r)
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  ignore (Sys.opaque_identity sched);
  if grown > 4 * graph_words then
    Alcotest.failf
      "live words grew by %d over 2000 rounds (one graph is %d words)" grown
      graph_words

let test_schedule_is_committed () =
  (* Re-reading any round gives the identical graph (obliviousness). *)
  let sched = Adversary.Oblivious.tree_rotator ~seed:5 ~n:10 in
  let a = Adversary.Schedule.get sched 7 in
  ignore (Adversary.Schedule.get sched 20);
  let b = Adversary.Schedule.get sched 7 in
  check Alcotest.bool "same graph object semantics" true
    (Dynet.Graph.same_edges a b)

let test_schedule_rejects_round_zero () =
  let sched = Adversary.Oblivious.tree_rotator ~seed:5 ~n:4 in
  Alcotest.check_raises "1-based rounds"
    (Invalid_argument "Schedule.get: rounds are 1-based") (fun () ->
      ignore (Adversary.Schedule.get sched 0))

let test_schedule_iterate_order () =
  (* A Markov rule that appends one edge per round: proves rounds are
     produced in order exactly once. *)
  let sched () =
    Adversary.Schedule.iterate ~n:6
      ~init:(fun () -> Dynet.Graph_gen.path ~n:6)
      (fun r prev ->
        Dynet.Graph.union prev
          (Dynet.Graph.make ~n:6 [| Dynet.Edge_table.key ~n:6 0 (1 + (r mod 5)) |]))
  in
  (* Round 1 is read from a freshly constructed copy of the rule, not
     by rewinding this cursor. *)
  let g5 = Adversary.Schedule.get (sched ()) 5 in
  check Alcotest.bool "accumulated edges" true
    (Dynet.Graph.edge_count g5 >= Dynet.Graph.edge_count
                                    (Adversary.Schedule.get (sched ()) 1))

(* {2 Oblivious families: connectivity and churn shape} *)

let rounds_to_check = 25

let test_all_families_connected () =
  List.iter
    (fun (name, sched) ->
      let seq = Adversary.Schedule.prefix sched rounds_to_check in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: all rounds connected" name)
        true
        (Dynet.Dyn_seq.all_connected seq))
    (Adversary.Oblivious.all_named ~n:18 ~seed:3)

let test_static_has_no_churn_after_round_one () =
  let g = Dynet.Graph_gen.cycle ~n:12 in
  let sched = Adversary.Oblivious.static g in
  let seq = Adversary.Schedule.prefix sched 10 in
  check Alcotest.int "tc = initial edges" (Dynet.Graph.edge_count g)
    (Dynet.Dyn_seq.tc seq)

let test_tree_rotator_heavy_churn () =
  let n = 16 in
  let sched = Adversary.Oblivious.tree_rotator ~seed:8 ~n in
  let seq = Adversary.Schedule.prefix sched 20 in
  (* Fresh random trees share few edges: TC should be much larger than
     a static tree's n-1. *)
  check Alcotest.bool "substantial churn" true
    (Dynet.Dyn_seq.tc seq > 5 * (n - 1))

let test_rewiring_rate_zero_is_static_after_init () =
  let sched = Adversary.Oblivious.rewiring ~seed:4 ~n:12 ~extra:6 ~rate:0. in
  let seq = Adversary.Schedule.prefix sched 10 in
  let first = Dynet.Graph.edge_count (Dynet.Dyn_seq.get seq 1) in
  check Alcotest.int "tc = first round's edges" first (Dynet.Dyn_seq.tc seq)

let test_rewiring_keeps_backbone () =
  let n = 12 in
  let sched = Adversary.Oblivious.rewiring ~seed:4 ~n ~extra:6 ~rate:0.5 in
  let seq = Adversary.Schedule.prefix sched 12 in
  check Alcotest.bool "every round has >= tree edges" true
    (List.for_all
       (fun r -> Dynet.Graph.edge_count (Dynet.Dyn_seq.get seq r) >= n - 1)
       (List.init 12 (fun i -> i + 1)))

let test_churn_bursts_period () =
  let quiet = Dynet.Graph_gen.cycle ~n:10 in
  let sched = Adversary.Oblivious.churn_bursts ~seed:2 ~n:10 ~period:4 ~quiet in
  let g3 = Adversary.Schedule.get sched 3 in
  let g4 = Adversary.Schedule.get sched 4 in
  check Alcotest.bool "quiet round matches quiet graph" true
    (Dynet.Graph.same_edges g3 quiet);
  check Alcotest.bool "burst round is a tree" true
    (Dynet.Graph.edge_count g4 = 9 && Dynet.Graph.is_connected g4)

(* [a]'s edges are all in [b]: nothing is inserted going from [b] to [a]. *)
let subset a b = fst (Dynet.Graph.delta_counts ~prev:b ~cur:a) = 0

let test_schedule_overlay () =
  let n = 10 in
  let backbone = Adversary.Oblivious.static (Dynet.Graph_gen.cycle ~n) in
  let churn = Adversary.Oblivious.tree_rotator ~seed:44 ~n in
  let combined = Adversary.Schedule.overlay backbone churn in
  for r = 1 to 8 do
    let g = Adversary.Schedule.get combined r in
    Alcotest.check Alcotest.bool
      (Printf.sprintf "round %d contains backbone" r)
      true
      (subset (Adversary.Schedule.get backbone r) g);
    Alcotest.check Alcotest.bool
      (Printf.sprintf "round %d contains churn layer" r)
      true
      (subset (Adversary.Schedule.get churn r) g)
  done;
  Alcotest.check_raises "mismatched sizes"
    (Invalid_argument "Schedule.overlay: node counts differ") (fun () ->
      ignore
        (Adversary.Schedule.overlay backbone
           (Adversary.Oblivious.tree_rotator ~seed:1 ~n:4)))

let test_stabilized_schedule () =
  let base = Adversary.Oblivious.tree_rotator ~seed:11 ~n:14 in
  let sched = Adversary.Schedule.stabilized ~sigma:3 base in
  let seq = Adversary.Schedule.prefix sched 30 in
  check Alcotest.bool "3-stable" true (Dynet.Dyn_seq.is_sigma_stable seq ~sigma:3);
  check Alcotest.bool "still connected" true (Dynet.Dyn_seq.all_connected seq)

let prop_stabilized_any_family =
  QCheck.Test.make ~name:"stabilized: sigma-stability for every family"
    ~count:20
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 0 6))
    (fun (sigma, family) ->
      let families = Adversary.Oblivious.all_named ~n:10 ~seed:(family * 7) in
      let _, base = List.nth families (family mod List.length families) in
      let sched = Adversary.Schedule.stabilized ~sigma base in
      let seq = Adversary.Schedule.prefix sched 15 in
      Dynet.Dyn_seq.is_sigma_stable seq ~sigma && Dynet.Dyn_seq.all_connected seq)

(* {2 Broadcast lower-bound adversary} *)

let lb_view ~n ~k ~knows ~chosen =
  { Adversary.Broadcast_lb.knows; chosen }
  |> fun v ->
  ignore n;
  ignore k;
  v

let test_lb_silent_round_single_component () =
  (* With nobody broadcasting, all edges are free: the graph is a
     spanning structure of one free component. *)
  let n = 20 and k = 10 in
  let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:1) ~n ~k in
  let view =
    lb_view ~n ~k ~knows:(fun _ _ -> false) ~chosen:(Array.make n None)
  in
  let g = Adversary.Broadcast_lb.next_graph lb view in
  check Alcotest.bool "connected" true (Dynet.Graph.is_connected g);
  (match Adversary.Broadcast_lb.history lb with
  | [ (broadcasters, components) ] ->
      check Alcotest.int "no broadcasters" 0 broadcasters;
      check Alcotest.int "single free component" 1 components
  | _ -> Alcotest.fail "expected one history entry");
  check Alcotest.int "spanning tree size" (n - 1) (Dynet.Graph.edge_count g)

let test_lb_always_connected_under_pressure () =
  (* Everyone broadcasts a token nobody covers: worst case for the
     adversary; graphs must still be connected. *)
  let n = 16 and k = 16 in
  let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:2) ~n ~k in
  for round = 1 to 10 do
    let chosen = Array.init n (fun v -> Some ((v + round) mod k)) in
    let view = lb_view ~n ~k ~knows:(fun v i -> i = v) ~chosen in
    let g = Adversary.Broadcast_lb.next_graph lb view in
    Alcotest.check Alcotest.bool "connected" true (Dynet.Graph.is_connected g)
  done

let test_lb_free_edges_do_not_teach () =
  (* If every node already "covers" every token (knows everything),
     all edges are free and the graph has a single component. *)
  let n = 12 and k = 6 in
  let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:3) ~n ~k in
  let chosen = Array.init n (fun v -> Some (v mod k)) in
  let view = lb_view ~n ~k ~knows:(fun _ _ -> true) ~chosen in
  ignore (Adversary.Broadcast_lb.next_graph lb view);
  (match Adversary.Broadcast_lb.history lb with
  | [ (_, components) ] -> check Alcotest.int "one component" 1 components
  | _ -> Alcotest.fail "expected one history entry")

let test_lb_k_prime_density () =
  (* E[|K'|] = nk/4; check it is within generous bounds (the proof
     needs <= 0.3nk whp). *)
  let n = 64 and k = 64 in
  let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:4) ~n ~k in
  let size = Adversary.Broadcast_lb.k_prime_size lb in
  let expected = float_of_int (n * k) /. 4. in
  check Alcotest.bool "density near 1/4" true
    (float_of_int size > 0.8 *. expected
    && float_of_int size < 1.2 *. expected)

let test_lb_phi_bounds () =
  let n = 32 and k = 32 in
  let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:5) ~n ~k in
  let phi0 = Adversary.Broadcast_lb.phi lb ~knows:(fun _ _ -> false) in
  check Alcotest.bool "phi(0) around nk/4, certainly <= 0.8nk" true
    (phi0 <= int_of_float (0.8 *. float_of_int (n * k)));
  let phi_full = Adversary.Broadcast_lb.phi lb ~knows:(fun _ _ -> true) in
  check Alcotest.int "phi when everyone knows everything" (n * k) phi_full;
  check Alcotest.bool "phi monotone in knowledge" true (phi0 <= phi_full)

let test_lb_sparse_broadcasters_block_progress () =
  (* Lemma 2.2: a round with very few broadcasters yields a single free
     component whp over K' sampling; repeat over seeds. *)
  let n = 48 and k = 24 in
  let single = ref 0 in
  let trials = 20 in
  for seed = 1 to trials do
    let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed) ~n ~k in
    let chosen = Array.make n None in
    (* two broadcasters << n / log n *)
    chosen.(0) <- Some 0;
    chosen.(1) <- Some 1;
    let view = lb_view ~n ~k ~knows:(fun _ _ -> false) ~chosen in
    ignore (Adversary.Broadcast_lb.next_graph lb view);
    match Adversary.Broadcast_lb.history lb with
    | [ (_, 1) ] -> incr single
    | _ -> ()
  done;
  check Alcotest.bool "almost always a single component" true (!single >= trials - 2)

let test_lb_rejects_wrong_view_size () =
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:6) ~n:5 ~k:3
  in
  Alcotest.check_raises "wrong view"
    (Invalid_argument "Broadcast_lb.next_graph: view has wrong node count")
    (fun () ->
      ignore
        (Adversary.Broadcast_lb.next_graph lb
           { Adversary.Broadcast_lb.knows = (fun _ _ -> false);
             chosen = Array.make 4 None }))

let test_lb_create_validation () =
  Alcotest.check_raises "n >= 1"
    (Invalid_argument "Broadcast_lb.create: n must be >= 1") (fun () ->
      ignore (Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:1) ~n:0 ~k:3))

(* {2 The potential function across a real execution}

   Theorem 2.3's engine: Φ(t) = Σ_v |K_v(t) ∪ K'_v| must start at
   ≤ 0.8nk and grow by at most 2(ℓ_r − 1) in round r, where ℓ_r is the
   number of free components the adversary recorded (only the ℓ_r − 1
   non-free connector edges can teach, one token per direction).  We
   drive a full flooding execution and check the inequality round by
   round. *)

let test_lb_potential_growth_bounded () =
  let n = 20 in
  let instance = Gossip.Instance.one_per_node ~n in
  let k = n in
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:11) ~n ~k
  in
  let adversary =
    Adversary.Broadcast_lb.to_engine lb ~knows:Gossip.Flooding.knows
      ~token_of:(function
        | Gossip.Payload.Token_msg tok -> Some tok.Gossip.Token.uid
        | Gossip.Payload.Completeness _ | Gossip.Payload.Request _
        | Gossip.Payload.Walk_msg _ | Gossip.Payload.Center_announce ->
            None)
  in
  let phis = ref [] in
  let stop states =
    let phi =
      Adversary.Broadcast_lb.phi lb ~knows:(fun v i ->
          Gossip.Flooding.knows states.(v) i)
    in
    phis := phi :: !phis;
    Gossip.Flooding.all_complete ~k states
  in
  let states = Gossip.Flooding.init ~instance () in
  let result, _ =
    Engine.Runner_broadcast.run Gossip.Flooding.protocol ~states ~adversary
      ~max_rounds:((n * k) + n)
      ~stop ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  let phis = Array.of_list (List.rev !phis) in
  let history = Array.of_list (Adversary.Broadcast_lb.history lb) in
  check Alcotest.int "one potential sample per round plus the start"
    (Array.length history + 1) (Array.length phis);
  check Alcotest.bool "phi(0) <= 0.8 nk" true
    (float_of_int phis.(0) <= 0.8 *. float_of_int (n * k));
  check Alcotest.int "phi(end) = nk (dissemination solved)" (n * k)
    phis.(Array.length phis - 1);
  Array.iteri
    (fun r (_, components) ->
      let delta = phis.(r + 1) - phis.(r) in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "round %d: delta-phi %d <= 2(l-1) = %d" (r + 1) delta
           (2 * (components - 1)))
        true
        (delta <= 2 * (components - 1)))
    history

(* {2 Request cutter} *)

let test_request_cutter_connected_and_reactive () =
  let n = 12 in
  let adv = Adversary.Request_cutter.adversary ~seed:5 ~n ~cut_prob:1.0 in
  let g1 = adv ~round:1 ~prev:(Dynet.Graph.empty ~n) ~states:[||] ~traffic:[] in
  check Alcotest.bool "round 1 connected" true (Dynet.Graph.is_connected g1);
  (* Report request traffic on a tree edge; with cut_prob 1 it must go. *)
  let key = (Dynet.Graph.edges g1).(0) in
  let u = key / n and v = key mod n in
  let g2 =
    adv ~round:2 ~prev:g1 ~states:[||]
      ~traffic:[ (u, v, Engine.Msg_class.Request) ]
  in
  check Alcotest.bool "round 2 connected" true (Dynet.Graph.is_connected g2);
  check Alcotest.bool "requested edge removed" false
    (Dynet.Graph.mem_edge g2 u v)

let test_request_cutter_ignores_other_traffic () =
  let n = 10 in
  let adv = Adversary.Request_cutter.adversary ~seed:6 ~n ~cut_prob:1.0 in
  let g1 = adv ~round:1 ~prev:(Dynet.Graph.empty ~n) ~states:[||] ~traffic:[] in
  let key = (Dynet.Graph.edges g1).(0) in
  let u = key / n and v = key mod n in
  let g2 =
    adv ~round:2 ~prev:g1 ~states:[||]
      ~traffic:[ (u, v, Engine.Msg_class.Token) ]
  in
  check Alcotest.bool "token-carrying edge kept" true (Dynet.Graph.mem_edge g2 u v)

let test_request_cutter_zero_prob_never_cuts () =
  let n = 10 in
  let adv = Adversary.Request_cutter.adversary ~seed:7 ~n ~cut_prob:0.0 in
  let g1 = adv ~round:1 ~prev:(Dynet.Graph.empty ~n) ~states:[||] ~traffic:[] in
  let traffic =
    Array.to_list (Dynet.Graph.edges g1)
    |> List.map (fun key -> (key / n, key mod n, Engine.Msg_class.Request))
  in
  let g2 = adv ~round:2 ~prev:g1 ~states:[||] ~traffic in
  check Alcotest.bool "identical graph" true
    (Dynet.Graph.same_edges g1 g2)

let test_request_cutter_validation () =
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Request_cutter.adversary: cut_prob must be in [0, 1]")
    (fun () ->
      let _ : unit Engine.Runner_unicast.adversary =
        Adversary.Request_cutter.adversary ~seed:1 ~n:5 ~cut_prob:1.5
      in
      ())

(* {2 Key-array builders ≡ the set-algebra model}

   Copies of the adversaries' round builders written over the balanced
   tree of Edge_model, drawing the same random numbers in the same
   order.  Each production adversary must produce the same keys, round
   by round, as its copy. *)

module ES = Edge_model.Edge_set

let model_round_rng ~seed r = Dynet.Rng.make ~seed:(seed + (1000003 * r))

let model_rewiring ~seed ~n ~extra ~rate ~rounds =
  let base_rng = Dynet.Rng.make ~seed in
  let tree = Edge_model.of_graph (Dynet.Graph_gen.random_tree base_rng ~n) in
  let random_non_tree_edge rng =
    if n < 3 then None
    else
      let rec try_draw attempts =
        if attempts = 0 then None
        else
          let u = Dynet.Rng.int rng n and v = Dynet.Rng.int rng n in
          if u = v then try_draw (attempts - 1)
          else
            let e = Edge_model.pair u v in
            if ES.mem e tree then try_draw (attempts - 1) else Some e
      in
      try_draw 32
  in
  let draw_extras rng count =
    let rec loop acc remaining =
      if remaining = 0 then acc
      else
        match random_non_tree_edge rng with
        | None -> acc
        | Some e -> loop (ES.add e acc) (remaining - 1)
    in
    loop ES.empty count
  in
  let g1 = ES.union tree (draw_extras (Dynet.Rng.split base_rng) extra) in
  let rec go r prev acc =
    if r > rounds then List.rev acc
    else
      let rng = model_round_rng ~seed:(seed lxor 0x5bd1) r in
      let kept =
        ES.filter (fun _ -> not (Dynet.Rng.bernoulli rng rate)) (ES.diff prev tree)
      in
      let fresh = draw_extras rng (max 0 (extra - ES.cardinal kept)) in
      let g = ES.union tree (ES.union kept fresh) in
      go (r + 1) g (g :: acc)
  in
  go 2 g1 [ g1 ]

let model_edge_markovian ~seed ~n ~p_up ~p_down ~rounds =
  let g1 = Edge_model.of_graph (Dynet.Graph_gen.random_tree (Dynet.Rng.make ~seed) ~n) in
  let rec go r prev acc =
    if r > rounds then List.rev acc
    else begin
      let rng = model_round_rng ~seed:(seed lxor 0x193a) r in
      let edges = ref ES.empty in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let next =
            if Edge_model.mem_pair u v prev then
              not (Dynet.Rng.bernoulli rng p_down)
            else Dynet.Rng.bernoulli rng p_up
          in
          if next then edges := Edge_model.add_pair u v !edges
        done
      done;
      let g =
        if Dynet.Graph.is_connected (Edge_model.graph ~n !edges) then !edges
        else
          ES.union !edges
            (Edge_model.of_graph (Dynet.Graph_gen.random_tree rng ~n))
      in
      go (r + 1) g (g :: acc)
    end
  in
  go 2 g1 [ g1 ]

let model_request_cutter ~seed ~n ~cut_prob =
  let rng = Dynet.Rng.make ~seed in
  fun ~round ~prev ~traffic ->
    if round = 1 then Edge_model.of_graph (Dynet.Graph_gen.random_tree rng ~n)
    else begin
      let requested =
        List.fold_left
          (fun acc (src, dst, cls) ->
            match cls with
            | Engine.Msg_class.Request -> Edge_model.add_pair src dst acc
            | _ -> acc)
          ES.empty traffic
      in
      let cut = ES.filter (fun _ -> Dynet.Rng.bernoulli rng cut_prob) requested in
      let surviving = ES.diff prev cut in
      let g = Edge_model.graph ~n surviving in
      if Dynet.Graph.is_connected g then surviving
      else
        let pick_member members = Dynet.Rng.pick rng (Array.of_list members) in
        match Dynet.Union_find.components (Dynet.Graph.components g) with
        | [] | [ _ ] -> surviving
        | first :: rest ->
            fst
              (List.fold_left
                 (fun (acc, prev_rep) comp ->
                   let rep = pick_member comp in
                   (Edge_model.add_pair prev_rep rep acc, rep))
                 (surviving, pick_member first)
                 rest)
    end

let model_lb_next_graph lb (view : Adversary.Broadcast_lb.view) =
  let n = Adversary.Broadcast_lb.n lb in
  let covered v i = Adversary.Broadcast_lb.in_k_prime lb v i || view.knows v i in
  let free u v =
    let one_way a b =
      match view.chosen.(a) with None -> true | Some i -> covered b i
    in
    one_way u v && one_way v u
  in
  let uf = Dynet.Union_find.create n in
  let forest = ref ES.empty in
  let connect u v =
    if Dynet.Union_find.union uf u v then forest := Edge_model.add_pair u v !forest
  in
  let silent_hub = ref (-1) in
  let broadcasters = ref [] in
  for v = 0 to n - 1 do
    match view.chosen.(v) with
    | None -> if !silent_hub < 0 then silent_hub := v else connect !silent_hub v
    | Some _ -> broadcasters := v :: !broadcasters
  done;
  List.iter
    (fun u ->
      for v = 0 to n - 1 do
        if v <> u && (not (Dynet.Union_find.same uf u v)) && free u v then
          connect u v
      done)
    !broadcasters;
  match Dynet.Union_find.representatives uf with
  | [] | [ _ ] -> !forest
  | first :: rest ->
      fst
        (List.fold_left
           (fun (acc, prev) rep -> (Edge_model.add_pair prev rep acc, rep))
           (!forest, first) rest)

let model_weak_bcast ~seed ~n =
  let rng = Dynet.Rng.make ~seed in
  let previous_broadcasters = ref [||] in
  fun ~intents ->
    let spoke = !previous_broadcasters in
    let silent =
      List.filter
        (fun v -> v < Array.length spoke && not spoke.(v))
        (List.init n (fun v -> v))
    in
    let hub =
      match silent with
      | [] -> Dynet.Rng.int rng n
      | candidates -> Dynet.Rng.pick rng (Array.of_list candidates)
    in
    let edges = ref ES.empty in
    for v = 0 to n - 1 do
      if v <> hub then edges := Edge_model.add_pair hub v !edges
    done;
    previous_broadcasters := Array.map Option.is_some intents;
    !edges

let same_keys ~n model g = Dynet.Graph.edges g = Edge_model.keys ~n model

let prop_builders_match_model =
  QCheck.Test.make ~name:"every adversary's keys ≡ its set-algebra model"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 14))
    (fun (seed, n) ->
      let rounds = 12 in
      let rng = Dynet.Rng.make ~seed:(seed + 1) in
      let rewiring = Adversary.Oblivious.rewiring ~seed ~n ~extra:n ~rate:0.3 in
      let markov =
        Adversary.Oblivious.edge_markovian ~seed ~n
          ~p_up:(2. /. float_of_int n) ~p_down:0.3
      in
      let oblivious_ok sched model =
        List.for_all2
          (fun r m -> same_keys ~n m (Adversary.Schedule.get sched r))
          (List.init rounds (fun i -> i + 1))
          model
      in
      let cutter = Adversary.Request_cutter.adversary ~seed ~n ~cut_prob:0.6 in
      let cutter_model = model_request_cutter ~seed ~n ~cut_prob:0.6 in
      let lb = Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed) ~n ~k:6 in
      let weak = Adversary.Weak_bcast.make ~seed ~n in
      let weak_model = model_weak_bcast ~seed ~n in
      let ok = ref true in
      let prev = ref (Dynet.Graph.empty ~n) and prev_model = ref ES.empty in
      for round = 1 to rounds do
        (* Random traffic, mostly along the current graph's edges. *)
        let traffic =
          List.init (Dynet.Rng.int rng (2 * n)) (fun _ ->
              let u = Dynet.Rng.int rng n in
              let v = (u + 1 + Dynet.Rng.int rng (n - 1)) mod n in
              let cls =
                if Dynet.Rng.bernoulli rng 0.7 then Engine.Msg_class.Request
                else Engine.Msg_class.Token
              in
              (u, v, cls))
        in
        let g = cutter ~round ~prev:!prev ~states:[||] ~traffic in
        let m = cutter_model ~round ~prev:!prev_model ~traffic in
        ok := !ok && same_keys ~n m g;
        prev := g;
        prev_model := m;
        let chosen =
          Array.init n (fun _ ->
              if Dynet.Rng.bernoulli rng 0.5 then Some (Dynet.Rng.int rng 6)
              else None)
        in
        let known = Array.init n (fun _ -> Array.init 6 (fun _ -> Dynet.Rng.bernoulli rng 0.4)) in
        let view = { Adversary.Broadcast_lb.knows = (fun v i -> known.(v).(i)); chosen } in
        let lb_model = model_lb_next_graph lb view in
        ok := !ok && same_keys ~n lb_model (Adversary.Broadcast_lb.next_graph lb view);
        let wg = weak ~round ~prev:!prev ~states:(Array.make n ()) ~intents:chosen in
        ok := !ok && same_keys ~n (weak_model ~intents:chosen) wg
      done;
      !ok
      && oblivious_ok rewiring (model_rewiring ~seed ~n ~extra:n ~rate:0.3 ~rounds)
      && oblivious_ok markov
           (model_edge_markovian ~seed ~n ~p_up:(2. /. float_of_int n)
              ~p_down:0.3 ~rounds))

let suite =
  [
    ("schedule stateless forward", `Quick, test_schedule_stateless_forward);
    ("schedule is committed", `Quick, test_schedule_is_committed);
    ("schedule rejects round zero", `Quick, test_schedule_rejects_round_zero);
    ("schedule iterate runs in order", `Quick, test_schedule_iterate_order);
    ("all oblivious families connected", `Quick, test_all_families_connected);
    ("static family has bounded churn", `Quick,
     test_static_has_no_churn_after_round_one);
    ("tree rotator churns heavily", `Quick, test_tree_rotator_heavy_churn);
    ("rewiring rate 0 is static", `Quick, test_rewiring_rate_zero_is_static_after_init);
    ("rewiring keeps backbone", `Quick, test_rewiring_keeps_backbone);
    ("churn bursts alternate", `Quick, test_churn_bursts_period);
    ("schedule overlay", `Quick, test_schedule_overlay);
    ("stabilized schedule", `Quick, test_stabilized_schedule);
    ("schedule Markov behind replays", `Quick,
     test_schedule_markov_behind_replays);
    ("schedule stabilized replays", `Quick,
     test_schedule_stabilized_replays);
    ("schedule memory is flat", `Quick, test_schedule_memory_flat);
    qcheck prop_stabilized_any_family;
    ("lb: silent round is one free component", `Quick,
     test_lb_silent_round_single_component);
    ("lb: connected under broadcast pressure", `Quick,
     test_lb_always_connected_under_pressure);
    ("lb: all-covered round is free", `Quick, test_lb_free_edges_do_not_teach);
    ("lb: K' density near 1/4", `Quick, test_lb_k_prime_density);
    ("lb: potential bounds", `Quick, test_lb_phi_bounds);
    ("lb: sparse broadcasters blocked (Lemma 2.2)", `Quick,
     test_lb_sparse_broadcasters_block_progress);
    ("lb: view size validated", `Quick, test_lb_rejects_wrong_view_size);
    ("lb: creation validated", `Quick, test_lb_create_validation);
    ("lb: potential growth bounded by components (Thm 2.3)", `Quick,
     test_lb_potential_growth_bounded);
    ("request cutter cuts requested edges", `Quick,
     test_request_cutter_connected_and_reactive);
    ("request cutter ignores other traffic", `Quick,
     test_request_cutter_ignores_other_traffic);
    ("request cutter with cut_prob 0", `Quick,
     test_request_cutter_zero_prob_never_cuts);
    ("request cutter validation", `Quick, test_request_cutter_validation);
    qcheck prop_builders_match_model;
  ]
