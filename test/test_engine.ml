(* Tests for the cost ledger, the stats helpers, and both synchronous
   runners (driven with tiny purpose-built protocols). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Ledger} *)

let test_ledger_counts () =
  let l = Engine.Ledger.create () in
  Engine.Ledger.record l Engine.Msg_class.Token 3;
  Engine.Ledger.record l Engine.Msg_class.Request 2;
  Engine.Ledger.record l Engine.Msg_class.Token 1;
  check Alcotest.int "token count" 4 (Engine.Ledger.count l Engine.Msg_class.Token);
  check Alcotest.int "request count" 2
    (Engine.Ledger.count l Engine.Msg_class.Request);
  check Alcotest.int "total" 6 (Engine.Ledger.total l);
  check Alcotest.int "total excluding token" 2
    (Engine.Ledger.total_excluding l [ Engine.Msg_class.Token ]);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Ledger.record: negative message count") (fun () ->
      Engine.Ledger.record l Engine.Msg_class.Token (-1))

let test_ledger_graph_changes () =
  let open Dynet in
  let l = Engine.Ledger.create () in
  let g0 = Graph.empty ~n:4 in
  let g1 = Graph_gen.path ~n:4 in
  let g2 = Graph_gen.star ~n:4 in
  Engine.Ledger.note_graph_change l ~prev:g0 ~cur:g1;
  check Alcotest.int "tc after first round = edges" 3 (Engine.Ledger.tc l);
  check Alcotest.int "no removals yet" 0 (Engine.Ledger.removals l);
  Engine.Ledger.note_graph_change l ~prev:g1 ~cur:g2;
  (* path {01,12,23} -> star {01,02,03}: inserts {02,03}, removes {12,23} *)
  check Alcotest.int "tc accumulates" 5 (Engine.Ledger.tc l);
  check Alcotest.int "removals accumulate" 2 (Engine.Ledger.removals l)

let test_ledger_progress_learnings () =
  let l = Engine.Ledger.create () in
  Engine.Ledger.note_progress l 10;
  Engine.Ledger.note_progress l 14;
  Engine.Ledger.note_progress l 25;
  check Alcotest.int "learnings = last - first" 15 (Engine.Ledger.learnings l)

let test_ledger_competitive () =
  let l = Engine.Ledger.create () in
  Engine.Ledger.record l Engine.Msg_class.Token 100;
  let g0 = Dynet.Graph.empty ~n:5 and g1 = Dynet.Graph_gen.path ~n:5 in
  Engine.Ledger.note_graph_change l ~prev:g0 ~cur:g1;
  check (Alcotest.float 1e-9) "competitive cost" 96.
    (Engine.Ledger.competitive_cost l ~alpha:1.);
  check (Alcotest.float 1e-9) "alpha scales" 92.
    (Engine.Ledger.competitive_cost l ~alpha:2.);
  check (Alcotest.float 1e-9) "amortized" 25. (Engine.Ledger.amortized l ~k:4);
  check (Alcotest.float 1e-9) "amortized competitive" 24.
    (Engine.Ledger.amortized_competitive l ~alpha:1. ~k:4)

let test_ledger_merge () =
  let a = Engine.Ledger.create () and b = Engine.Ledger.create () in
  Engine.Ledger.record a Engine.Msg_class.Walk 5;
  Engine.Ledger.record b Engine.Msg_class.Token 7;
  Engine.Ledger.note_round a;
  Engine.Ledger.note_round b;
  Engine.Ledger.note_round b;
  Engine.Ledger.note_progress a 0;
  Engine.Ledger.note_progress a 3;
  Engine.Ledger.note_progress b 10;
  Engine.Ledger.note_progress b 14;
  let m = Engine.Ledger.merge a b in
  check Alcotest.int "merged total" 12 (Engine.Ledger.total m);
  check Alcotest.int "merged rounds" 3 (Engine.Ledger.rounds m);
  check Alcotest.int "merged learnings" 7 (Engine.Ledger.learnings m)

let test_ledger_merge_full_accounting () =
  (* merge must add every dimension: class counts, TC, removals, rounds,
     learnings, and per-node loads. *)
  let open Dynet in
  let a = Engine.Ledger.create () and b = Engine.Ledger.create () in
  Engine.Ledger.record a Engine.Msg_class.Token 4;
  Engine.Ledger.record a Engine.Msg_class.Request 1;
  Engine.Ledger.record b Engine.Msg_class.Token 6;
  Engine.Ledger.record b Engine.Msg_class.Walk 2;
  (* a: empty -> path(4): +3 edges.  b: path(4) -> star(4): +2, -2. *)
  Engine.Ledger.note_graph_change a ~prev:(Graph.empty ~n:4)
    ~cur:(Graph_gen.path ~n:4);
  Engine.Ledger.note_graph_change b ~prev:(Graph_gen.path ~n:4)
    ~cur:(Graph_gen.star ~n:4);
  Engine.Ledger.record_sender a 0 5;
  Engine.Ledger.record_sender b 0 1;
  Engine.Ledger.record_sender b 2 4;
  let m = Engine.Ledger.merge a b in
  check Alcotest.int "token counts add" 10
    (Engine.Ledger.count m Engine.Msg_class.Token);
  check Alcotest.int "request from a only" 1
    (Engine.Ledger.count m Engine.Msg_class.Request);
  check Alcotest.int "walk from b only" 2
    (Engine.Ledger.count m Engine.Msg_class.Walk);
  check Alcotest.int "tc adds" 5 (Engine.Ledger.tc m);
  check Alcotest.int "removals add" 2 (Engine.Ledger.removals m);
  check Alcotest.int "shared sender load adds" 6 (Engine.Ledger.sender_load m 0);
  check Alcotest.int "b-only sender kept" 4 (Engine.Ledger.sender_load m 2);
  check Alcotest.int "merged max load" 6 (Engine.Ledger.max_load m);
  check (Alcotest.float 1e-9) "merged mean load" 5. (Engine.Ledger.mean_load m);
  (* merge leaves its inputs untouched *)
  check Alcotest.int "input a untouched" 5 (Engine.Ledger.total a);
  check Alcotest.int "input b untouched" 8 (Engine.Ledger.total b)

let test_ledger_record_sender_negative () =
  let l = Engine.Ledger.create () in
  Alcotest.check_raises "negative sender load rejected"
    (Invalid_argument "Ledger.record_sender: negative message count")
    (fun () -> Engine.Ledger.record_sender l 0 (-1))

let test_ledger_load_list () =
  let l = Engine.Ledger.create () in
  check (Alcotest.list Alcotest.int) "empty ledger, empty loads" []
    (Engine.Ledger.load_list l);
  Engine.Ledger.record_sender l 1 3;
  Engine.Ledger.record_sender l 4 7;
  Engine.Ledger.record_sender l 1 2;
  check
    (Alcotest.list Alcotest.int)
    "one entry per sender, merged per node" [ 5; 7 ]
    (List.sort compare (Engine.Ledger.load_list l))

let test_ledger_copy_isolated () =
  let a = Engine.Ledger.create () in
  Engine.Ledger.record a Engine.Msg_class.Token 1;
  let b = Engine.Ledger.copy a in
  Engine.Ledger.record b Engine.Msg_class.Token 10;
  check Alcotest.int "original untouched" 1 (Engine.Ledger.total a);
  check Alcotest.int "copy advanced" 11 (Engine.Ledger.total b)

let test_ledger_sender_loads () =
  let l = Engine.Ledger.create () in
  check Alcotest.int "no load yet" 0 (Engine.Ledger.max_load l);
  check (Alcotest.float 1e-9) "no mean yet" 0. (Engine.Ledger.mean_load l);
  Engine.Ledger.record_sender l 3 5;
  Engine.Ledger.record_sender l 7 2;
  Engine.Ledger.record_sender l 3 1;
  check Alcotest.int "node 3 load" 6 (Engine.Ledger.sender_load l 3);
  check Alcotest.int "node 7 load" 2 (Engine.Ledger.sender_load l 7);
  check Alcotest.int "silent node load" 0 (Engine.Ledger.sender_load l 0);
  check Alcotest.int "max load" 6 (Engine.Ledger.max_load l);
  check (Alcotest.float 1e-9) "mean over senders" 4. (Engine.Ledger.mean_load l);
  let m = Engine.Ledger.merge l (Engine.Ledger.copy l) in
  check Alcotest.int "merged load doubles" 12 (Engine.Ledger.sender_load m 3)

(* {2 Msg_class} *)

let test_msg_class_indexing () =
  List.iter
    (fun cls ->
      check Alcotest.bool "index round-trips" true
        (Engine.Msg_class.equal cls
           (Engine.Msg_class.of_index (Engine.Msg_class.index cls))))
    Engine.Msg_class.all;
  check Alcotest.int "count" (List.length Engine.Msg_class.all)
    Engine.Msg_class.count

(* {2 Stats} *)

let test_stats_basics () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Obs.Stats.mean xs);
  check (Alcotest.float 1e-9) "median even" 2.5 (Obs.Stats.median xs);
  check (Alcotest.float 1e-9) "median odd" 2. (Obs.Stats.median [ 1.; 2.; 7. ]);
  check (Alcotest.float 1e-9) "min" 1. (Obs.Stats.minimum xs);
  check (Alcotest.float 1e-9) "max" 4. (Obs.Stats.maximum xs);
  check (Alcotest.float 1e-6) "stddev" (sqrt 1.25) (Obs.Stats.stddev xs);
  check (Alcotest.float 1e-9) "p100 = max" 4.
    (Obs.Stats.percentile xs ~p:100.);
  check (Alcotest.float 1e-9) "p50" 2. (Obs.Stats.percentile xs ~p:50.)

let test_stats_linear_fit () =
  let a, b = Obs.Stats.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  check (Alcotest.float 1e-9) "intercept" 1. a;
  check (Alcotest.float 1e-9) "slope" 2. b

let test_stats_loglog_slope () =
  (* y = 5 x^3 has log-log slope 3. *)
  let points = List.init 6 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 5. *. (x ** 3.)))
  in
  check (Alcotest.float 1e-6) "slope 3" 3. (Obs.Stats.loglog_slope points)

let test_stats_percentile_edges () =
  let xs = [ 4.; 1.; 3.; 2. ] in
  check (Alcotest.float 1e-9) "p0 = min" 1. (Obs.Stats.percentile xs ~p:0.);
  check (Alcotest.float 1e-9) "p100 = max" 4.
    (Obs.Stats.percentile xs ~p:100.);
  check (Alcotest.float 1e-9) "singleton p0" 9.
    (Obs.Stats.percentile [ 9. ] ~p:0.);
  check (Alcotest.float 1e-9) "singleton p50" 9.
    (Obs.Stats.percentile [ 9. ] ~p:50.);
  check (Alcotest.float 1e-9) "singleton p100" 9.
    (Obs.Stats.percentile [ 9. ] ~p:100.)

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Obs.Stats.mean []))

(* {2 A toy broadcast protocol: each node knows its id as a "token";
   everyone broadcasts everything they know, round-robin.  Progress =
   ids known.  Used to exercise the broadcast runner mechanics. *)

module Toy_bcast = struct
  type state = { known : int list; cursor : int }
  type msg = int

  let classify _ = Engine.Msg_class.Token

  let intent st ~round:_ =
    match st.known with
    | [] -> (st, None)
    | known ->
        let arr = Array.of_list known in
        let i = st.cursor mod Array.length arr in
        ({ st with cursor = st.cursor + 1 }, Some arr.(i))

  let receive st ~round:_ ~inbox =
    List.fold_left
      (fun st (_, x) ->
        if List.mem x st.known then st else { st with known = x :: st.known })
      st inbox

  let progress st = List.length st.known
  let plane = None
end

let toy_bcast_protocol =
  (module Toy_bcast : Engine.Runner_broadcast.PROTOCOL
    with type state = Toy_bcast.state
     and type msg = int)

let test_broadcast_runner_flood () =
  let n = 8 in
  let states =
    Array.init n (fun v -> { Toy_bcast.known = [ v ]; cursor = 0 })
  in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.cycle ~n) in
  let result, states =
    Engine.Runner_broadcast.run toy_bcast_protocol ~states
      ~adversary:(Adversary.Schedule.broadcast schedule)
      ~max_rounds:(n * n * n)
      ~stop:(fun states ->
        Array.for_all (fun st -> List.length st.Toy_bcast.known = n) states)
      ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "everyone knows everything" true
    (Array.for_all (fun st -> List.length st.Toy_bcast.known = n) states);
  (* one broadcast per node per round *)
  check Alcotest.int "message count = n * rounds"
    (n * result.Engine.Run_result.rounds)
    (Engine.Ledger.total result.Engine.Run_result.ledger);
  check Alcotest.int "learnings" (n * (n - 1))
    (Engine.Ledger.learnings result.Engine.Run_result.ledger)

let test_broadcast_runner_stop_before_start () =
  let states = Array.init 4 (fun v -> { Toy_bcast.known = [ v ]; cursor = 0 }) in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.cycle ~n:4) in
  let result, _ =
    Engine.Runner_broadcast.run toy_bcast_protocol ~states
      ~adversary:(Adversary.Schedule.broadcast schedule)
      ~max_rounds:100
      ~stop:(fun _ -> true)
      ()
  in
  check Alcotest.int "zero rounds" 0 result.Engine.Run_result.rounds;
  check Alcotest.bool "completed" true result.Engine.Run_result.completed

let test_broadcast_runner_round_cap () =
  let states = Array.init 4 (fun v -> { Toy_bcast.known = [ v ]; cursor = 0 }) in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.cycle ~n:4) in
  let result, _ =
    Engine.Runner_broadcast.run toy_bcast_protocol ~states
      ~adversary:(Adversary.Schedule.broadcast schedule)
      ~max_rounds:2
      ~stop:(fun _ -> false)
      ()
  in
  check Alcotest.int "capped at 2" 2 result.Engine.Run_result.rounds;
  check Alcotest.bool "not completed" false result.Engine.Run_result.completed

let test_broadcast_rejects_disconnected_adversary () =
  let states = Array.init 4 (fun v -> { Toy_bcast.known = [ v ]; cursor = 0 }) in
  let adversary ~round:_ ~prev:_ ~states:_ ~intents:_ = Dynet.Graph.empty ~n:4 in
  Alcotest.check_raises "disconnected graph rejected"
    (Engine.Engine_error.Adversary_violation "round 1: disconnected graph")
    (fun () ->
      ignore
        (Engine.Runner_broadcast.run toy_bcast_protocol ~states ~adversary
           ~max_rounds:5
           ~stop:(fun _ -> false)
           ()))

let test_broadcast_rejects_wrong_size_adversary () =
  let states = Array.init 4 (fun v -> { Toy_bcast.known = [ v ]; cursor = 0 }) in
  let adversary ~round:_ ~prev:_ ~states:_ ~intents:_ =
    Dynet.Graph_gen.cycle ~n:5
  in
  Alcotest.check_raises "wrong node count rejected"
    (Engine.Engine_error.Adversary_violation
       "round 1: graph has 5 nodes, expected 4") (fun () ->
      ignore
        (Engine.Runner_broadcast.run toy_bcast_protocol ~states ~adversary
           ~max_rounds:5
           ~stop:(fun _ -> false)
           ()))

(* {2 A toy unicast protocol: node 0 pushes its value to every neighbor
   every round; others forward once.  Exercises unicast delivery,
   neighbor validation, and traffic observation. *)

module Toy_unicast = struct
  type state = { me : int; value : int option; forwarded : bool }
  type msg = int

  let classify _ = Engine.Msg_class.Token

  let send st ~round:_ ~neighbors =
    match st.value with
    | Some v when not st.forwarded ->
        ( { st with forwarded = true },
          Array.to_list neighbors |> List.map (fun w -> (w, v)) )
    | Some _ | None -> (st, [])

  let receive st ~round:_ ~neighbors:_ ~inbox =
    match (st.value, inbox) with
    | None, (_, v) :: _ -> { st with value = Some v }
    | _ -> st

  let progress st = if st.value = None then 0 else 1
end

let toy_unicast_protocol =
  (module Toy_unicast : Engine.Runner_unicast.PROTOCOL
    with type state = Toy_unicast.state
     and type msg = int)

let toy_unicast_states n =
  Array.init n (fun v ->
      { Toy_unicast.me = v; value = (if v = 0 then Some 42 else None);
        forwarded = false })

let test_unicast_runner_push () =
  let n = 6 in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n) in
  let result, states =
    Engine.Runner_unicast.run toy_unicast_protocol ~states:(toy_unicast_states n)
      ~adversary:(Adversary.Schedule.unicast schedule)
      ~max_rounds:100
      ~stop:(fun states ->
        Array.for_all (fun st -> st.Toy_unicast.value <> None) states)
      ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.int "rounds = path length" (n - 1)
    result.Engine.Run_result.rounds;
  check Alcotest.bool "all got value" true
    (Array.for_all (fun st -> st.Toy_unicast.value = Some 42) states);
  (* Each node forwards once to all its neighbors: total = sum of
     degrees of the first n-1 chain nodes. *)
  check Alcotest.int "unicast messages counted per neighbor" 9
    (Engine.Ledger.total result.Engine.Run_result.ledger)

let test_unicast_rejects_send_to_non_neighbor () =
  let module Bad = struct
    type state = unit
    type msg = int

    let classify _ = Engine.Msg_class.Control
    let send () ~round:_ ~neighbors:_ = ((), [ (3, 1) ])
    let receive () ~round:_ ~neighbors:_ ~inbox:_ = ()
    let progress () = 0
  end in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n:5) in
  Alcotest.check_raises "non-neighbor send rejected"
    (Engine.Engine_error.Protocol_violation
       "round 1: node 0 sent to non-neighbor 3") (fun () ->
      ignore
        (Engine.Runner_unicast.run
           (module Bad : Engine.Runner_unicast.PROTOCOL
             with type state = unit
              and type msg = int)
           ~states:(Array.make 5 ())
           ~adversary:(Adversary.Schedule.unicast schedule)
           ~max_rounds:3
           ~stop:(fun _ -> false)
           ()))

let test_unicast_rejects_double_token_on_edge () =
  let module Bad = struct
    type state = unit
    type msg = int

    let classify _ = Engine.Msg_class.Token

    let send () ~round:_ ~neighbors =
      if Array.length neighbors > 0 then
        ((), [ (neighbors.(0), 1); (neighbors.(0), 2) ])
      else ((), [])

    let receive () ~round:_ ~neighbors:_ ~inbox:_ = ()
    let progress () = 0
  end in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n:3) in
  List.iter
    (fun engine ->
      let module E = (val engine : Engine.Engine_sig.ENGINE) in
      Alcotest.check_raises
        (Printf.sprintf "token bandwidth enforced under %s" E.name)
        (Engine.Engine_error.Protocol_violation
           "round 1: node 0 sent two tokens to 1 in one round") (fun () ->
          ignore
            (E.Unicast.run
               (module Bad : Engine.Runner_unicast.PROTOCOL
                 with type state = unit
                  and type msg = int)
               ~states:(Array.make 3 ())
               ~adversary:(Adversary.Schedule.unicast schedule)
               ~max_rounds:3
               ~stop:(fun _ -> false)
               ())))
    [
      Engine.Soa.engine ();
      Engine.Soa.engine ~shards:2 ();
      Engine.Reference.engine;
    ]

let test_unicast_init_prev_tc () =
  (* With init_prev equal to the static round graph, TC stays 0. *)
  let n = 5 in
  let g = Dynet.Graph_gen.cycle ~n in
  let schedule = Adversary.Oblivious.static g in
  let run ?init_prev () =
    let result, _ =
      Engine.Runner_unicast.run toy_unicast_protocol
        ?init_prev ~states:(toy_unicast_states n)
        ~adversary:(Adversary.Schedule.unicast schedule)
        ~max_rounds:20
        ~stop:(fun states ->
          Array.for_all (fun st -> st.Toy_unicast.value <> None) states)
        ()
    in
    Engine.Ledger.tc result.Engine.Run_result.ledger
  in
  check Alcotest.int "fresh start pays for all edges" n (run ());
  check Alcotest.int "continued start pays nothing" 0 (run ~init_prev:g ())

let test_unicast_timeline_monotone () =
  let n = 6 in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n) in
  let result, _ =
    Engine.Runner_unicast.run toy_unicast_protocol ~states:(toy_unicast_states n)
      ~adversary:(Adversary.Schedule.unicast schedule)
      ~max_rounds:100
      ~stop:(fun states ->
        Array.for_all (fun st -> st.Toy_unicast.value <> None) states)
      ()
  in
  let timeline = result.Engine.Run_result.timeline in
  check Alcotest.int "one sample per round" result.Engine.Run_result.rounds
    (List.length timeline);
  let rec monotone = function
    | (r1, m1, p1) :: ((r2, m2, p2) :: _ as rest) ->
        r1 < r2 && m1 <= m2 && p1 <= p2 && monotone rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "timeline monotone" true (monotone timeline)

let test_runner_attributes_loads () =
  (* On the toy push protocol, node 0 sends to all its path neighbors
     exactly once; interior forwarders send twice (both neighbors). *)
  let n = 5 in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n) in
  let result, _ =
    Engine.Runner_unicast.run toy_unicast_protocol
      ~states:(toy_unicast_states n)
      ~adversary:(Adversary.Schedule.unicast schedule)
      ~max_rounds:50
      ~stop:(fun states ->
        Array.for_all (fun st -> st.Toy_unicast.value <> None) states)
      ()
  in
  let l = result.Engine.Run_result.ledger in
  check Alcotest.int "endpoint 0 sent once" 1 (Engine.Ledger.sender_load l 0);
  check Alcotest.int "interior node sent twice" 2 (Engine.Ledger.sender_load l 2);
  check Alcotest.int "last node never forwarded" 0
    (Engine.Ledger.sender_load l (n - 1));
  check Alcotest.int "loads sum to total"
    (Engine.Ledger.total l)
    (List.init n (fun v -> Engine.Ledger.sender_load l v)
    |> List.fold_left ( + ) 0)

let prop_ledger_total_is_sum =
  QCheck.Test.make ~name:"ledger: total = sum of class counts" ~count:100
    (QCheck.list_of_size
       QCheck.Gen.(int_bound 20)
       (QCheck.pair (QCheck.int_bound 5) (QCheck.int_bound 50)))
    (fun adds ->
      let l = Engine.Ledger.create () in
      List.iter
        (fun (cls, m) ->
          Engine.Ledger.record l (Engine.Msg_class.of_index cls) m)
        adds;
      Engine.Ledger.total l
      = List.fold_left
          (fun acc cls -> acc + Engine.Ledger.count l cls)
          0 Engine.Msg_class.all)

let suite =
  [
    ("ledger counts and classes", `Quick, test_ledger_counts);
    ("ledger graph-change accounting", `Quick, test_ledger_graph_changes);
    ("ledger learnings", `Quick, test_ledger_progress_learnings);
    ("ledger competitive cost", `Quick, test_ledger_competitive);
    ("ledger merge", `Quick, test_ledger_merge);
    ("ledger merge full accounting", `Quick, test_ledger_merge_full_accounting);
    ("ledger record_sender rejects negatives", `Quick,
     test_ledger_record_sender_negative);
    ("ledger load list", `Quick, test_ledger_load_list);
    ("ledger copy isolation", `Quick, test_ledger_copy_isolated);
    ("ledger sender loads", `Quick, test_ledger_sender_loads);
    ("runner attributes loads", `Quick, test_runner_attributes_loads);
    ("msg_class indexing", `Quick, test_msg_class_indexing);
    ("stats basics", `Quick, test_stats_basics);
    ("stats linear fit", `Quick, test_stats_linear_fit);
    ("stats loglog slope", `Quick, test_stats_loglog_slope);
    ("stats percentile edges", `Quick, test_stats_percentile_edges);
    ("stats empty raises", `Quick, test_stats_empty_raises);
    ("broadcast runner floods a ring", `Quick, test_broadcast_runner_flood);
    ("broadcast runner respects solved instances", `Quick,
     test_broadcast_runner_stop_before_start);
    ("broadcast runner round cap", `Quick, test_broadcast_runner_round_cap);
    ("broadcast runner rejects disconnected graphs", `Quick,
     test_broadcast_rejects_disconnected_adversary);
    ("broadcast runner rejects wrong-size graphs", `Quick,
     test_broadcast_rejects_wrong_size_adversary);
    ("unicast runner pushes along a path", `Quick, test_unicast_runner_push);
    ("unicast runner rejects non-neighbor sends", `Quick,
     test_unicast_rejects_send_to_non_neighbor);
    ("unicast runner enforces token bandwidth", `Quick,
     test_unicast_rejects_double_token_on_edge);
    ("unicast runner init_prev TC accounting", `Quick, test_unicast_init_prev_tc);
    ("unicast runner timeline", `Quick, test_unicast_timeline_monotone);
    qcheck prop_ledger_total_is_sum;
  ]
