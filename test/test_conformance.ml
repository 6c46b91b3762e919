(* Protocol-conformance tests: a "spy" adversary wraps an oblivious
   schedule and records every (src, dst, class) the engine put on the
   wire, letting us check the paper's protocol rules as observable wire
   behaviour rather than internal state:

   - Algorithm 1 serves every token as a response to a request from the
     immediately preceding round, over the surviving edge;
   - requests only flow towards nodes that previously announced
     completeness;
   - each completeness announcement crosses each ordered pair at most
     once (Single-Source) / at most s times (Multi-Source);
   - at most one request per directed edge per round. *)

let check = Alcotest.check

type spy = {
  mutable per_round : (int * Engine.Runner_unicast.traffic) list;
      (** newest first; traffic of round r is attached to r. *)
}

(* The engine hands the adversary the traffic of round r-1 when asking
   for round r's graph; stash it under r-1. *)
let spy_adversary schedule spy ~round ~prev ~states ~traffic =
  if round > 1 then spy.per_round <- (round - 1, traffic) :: spy.per_round;
  Adversary.Schedule.unicast schedule ~round ~prev ~states ~traffic

let run_single_source_with_spy ~n ~k ~seed =
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let schedule =
    Adversary.Schedule.stabilized ~sigma:3
      (Adversary.Oblivious.tree_rotator ~seed ~n)
  in
  let spy = { per_round = [] } in
  let states = Gossip.Single_source.init ~instance () in
  let result, _ =
    Engine.Runner_unicast.run Gossip.Single_source.protocol ~states
      ~adversary:(spy_adversary schedule spy)
      ~max_rounds:(8 * n * k)
      ~stop:(Gossip.Single_source.all_complete ~k)
      ()
  in
  (* The final round's traffic is never echoed back to the adversary;
     tests below only reason about rounds present in the spy. *)
  (result, List.rev spy.per_round)

let messages_of cls traffic =
  List.filter (fun (_, _, c) -> Engine.Msg_class.equal c cls) traffic

let test_tokens_answer_requests () =
  let n = 12 and k = 16 in
  let result, rounds = run_single_source_with_spy ~n ~k ~seed:3 in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  let by_round = Hashtbl.create 64 in
  List.iter (fun (r, t) -> Hashtbl.replace by_round r t) rounds;
  let checked = ref 0 in
  List.iter
    (fun (r, traffic) ->
      match Hashtbl.find_opt by_round (r - 1) with
      | None -> ()
      | Some prev_traffic ->
          let prev_requests = messages_of Engine.Msg_class.Request prev_traffic in
          List.iter
            (fun (src, dst, _) ->
              incr checked;
              Alcotest.check Alcotest.bool
                (Printf.sprintf "round %d: token %d->%d answers a request" r
                   src dst)
                true
                (List.exists
                   (fun (rsrc, rdst, _) -> rsrc = dst && rdst = src)
                   prev_requests))
            (messages_of Engine.Msg_class.Token traffic))
    rounds;
  check Alcotest.bool "saw token traffic" true (!checked > 0)

let test_requests_target_announced_nodes () =
  let n = 12 and k = 16 in
  let result, rounds = run_single_source_with_spy ~n ~k ~seed:4 in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  (* completeness_known.(dst).(src): dst has heard src announce. *)
  let heard = Array.make_matrix n n false in
  heard.(0).(0) <- true;
  List.iter
    (fun (_, traffic) ->
      (* Requests of this round may rely on announcements from strictly
         earlier rounds only (announcements of the same round arrive at
         its end), so check before integrating. *)
      List.iter
        (fun (src, dst, _) ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "request %d->%d targets an announcer" src dst)
            true
            heard.(src).(dst))
        (messages_of Engine.Msg_class.Request traffic);
      List.iter
        (fun (src, dst, _) -> heard.(dst).(src) <- true)
        (messages_of Engine.Msg_class.Completeness traffic))
    rounds

let test_announcements_once_per_pair () =
  let n = 12 and k = 16 in
  let result, rounds = run_single_source_with_spy ~n ~k ~seed:5 in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (_, traffic) ->
      List.iter
        (fun (src, dst, _) ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "announcement %d->%d is fresh" src dst)
            false
            (Hashtbl.mem seen (src, dst));
          Hashtbl.replace seen (src, dst) ())
        (messages_of Engine.Msg_class.Completeness traffic))
    rounds

let test_one_request_per_edge_per_round () =
  let n = 12 and k = 20 in
  let _, rounds = run_single_source_with_spy ~n ~k ~seed:6 in
  List.iter
    (fun (r, traffic) ->
      let requests = messages_of Engine.Msg_class.Request traffic in
      let edges = List.map (fun (src, dst, _) -> (src, dst)) requests in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "round %d: distinct request edges" r)
        true
        (List.length (List.sort_uniq compare edges) = List.length edges))
    rounds

let test_multi_source_announcement_budget_on_wire () =
  let n = 12 and k = 18 and s = 4 in
  let instance =
    Gossip.Instance.multi_source ~rng:(Dynet.Rng.make ~seed:7) ~n ~k ~s
  in
  let schedule =
    Adversary.Schedule.stabilized ~sigma:3
      (Adversary.Oblivious.tree_rotator ~seed:8 ~n)
  in
  let spy = { per_round = [] } in
  let states = Gossip.Multi_source.init ~instance () in
  let result, _ =
    Engine.Runner_unicast.run Gossip.Multi_source.protocol ~states
      ~adversary:(spy_adversary schedule spy)
      ~max_rounds:(8 * n * k)
      ~stop:(Gossip.Multi_source.all_complete ~k)
      ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  (* Per ordered pair, at most s announcements ever (one per source),
     and at most one per round. *)
  let count = Hashtbl.create 64 in
  List.iter
    (fun (r, traffic) ->
      let this_round = Hashtbl.create 16 in
      List.iter
        (fun (src, dst, _) ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "round %d: one announcement per edge" r)
            false
            (Hashtbl.mem this_round (src, dst));
          Hashtbl.replace this_round (src, dst) ();
          let c = Option.value (Hashtbl.find_opt count (src, dst)) ~default:0 in
          Hashtbl.replace count (src, dst) (c + 1))
        (messages_of Engine.Msg_class.Completeness traffic))
    (List.rev spy.per_round);
  Hashtbl.iter
    (fun (src, dst) c ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "pair %d->%d within budget" src dst)
        true (c <= s))
    count

(* {2 Lemma 3.3: at most n futile rounds}

   A round r is futile (Definition 3.3) if no token request crosses a
   contributive edge in r and no token learning occurs in rounds r+1
   and r+2.  Edge categories are reconstructed from the recorded graph
   sequence plus the observed token deliveries: an edge is new at r if
   inserted at r or r-1 (relative to its endpoint-incompleteness
   period, which we approximate by plain insertion age — a superset of
   the paper's categories, erring towards counting more rounds as
   futile, i.e. towards a stricter check); contributive if a token
   crossed it since its last insertion; idle otherwise.  Lemma 3.3
   bounds futile rounds by n until the last request. *)

let test_futile_rounds_bounded () =
  let n = 14 and k = 24 in
  let instance = Gossip.Instance.single_source ~n ~k ~source:0 in
  let schedule () =
    Adversary.Schedule.stabilized ~sigma:3
      (Adversary.Oblivious.tree_rotator ~seed:9 ~n)
  in
  let spy = { per_round = [] } in
  let states = Gossip.Single_source.init ~instance () in
  let result, _ =
    Engine.Runner_unicast.run Gossip.Single_source.protocol ~states
      ~adversary:(spy_adversary (schedule ()) spy)
      ~max_rounds:(8 * n * k)
      ~stop:(Gossip.Single_source.all_complete ~k)
      ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  let rounds = List.rev spy.per_round in
  let total_rounds = result.Engine.Run_result.rounds in
  (* learnings per round from the timeline (cumulative -> delta) *)
  let learned_in = Array.make (total_rounds + 3) 0 in
  let _ =
    List.fold_left
      (fun prev (r, _, cum) ->
        learned_in.(r) <- cum - prev;
        cum)
      0 result.Engine.Run_result.timeline
  in
  (* Reconstruct per-edge insertion ages and contributions. *)
  let inserted_at = Hashtbl.create 64 in
  let last_request_round = ref 0 in
  let futile = ref 0 in
  (* The run moved its schedule's cursor past every round; re-derive
     the same committed sequence and read it forward again. *)
  let replay = schedule () in
  List.iter
    (fun (r, traffic) ->
      let g = Adversary.Schedule.get replay r in
      (* age update: edges not present are forgotten *)
      let present = Dynet.Graph.edges g in
      (* rebuild insertion table against round r *)
      let fresh = Hashtbl.create 64 in
      Array.iter
        (fun e ->
          let entry =
            match Hashtbl.find_opt inserted_at e with
            | Some existing -> existing
            | None -> (r, false)
          in
          Hashtbl.replace fresh e entry)
        present;
      Hashtbl.reset inserted_at;
      Hashtbl.iter (fun e v -> Hashtbl.replace inserted_at e v) fresh;
      (* integrate this round's traffic *)
      let request_on_contributive = ref false in
      List.iter
        (fun (src, dst, cls) ->
          let e = Dynet.Edge_table.key ~n:(Dynet.Graph.n g) src dst in
          match cls with
          | Engine.Msg_class.Request -> (
              last_request_round := max !last_request_round r;
              match Hashtbl.find_opt inserted_at e with
              | Some (born, contrib) when born < r - 1 && contrib ->
                  request_on_contributive := true
              | _ -> ())
          | Engine.Msg_class.Token -> (
              match Hashtbl.find_opt inserted_at e with
              | Some (born, _) when learned_in.(r) > 0 ->
                  Hashtbl.replace inserted_at e (born, true)
              | _ -> ())
          | Engine.Msg_class.Completeness | Engine.Msg_class.Walk
          | Engine.Msg_class.Center | Engine.Msg_class.Control ->
              ())
        traffic;
      let no_learning_soon =
        r + 2 <= total_rounds && learned_in.(r + 1) = 0 && learned_in.(r + 2) = 0
      in
      if (not !request_on_contributive) && no_learning_soon then incr futile)
    rounds;
  (* Lemma 3.3: at most n futile rounds until the last request; our
     reconstruction over-approximates, so allow 2n slack. *)
  check Alcotest.bool
    (Printf.sprintf "futile rounds %d <= 2n = %d" !futile (2 * n))
    true
    (!futile <= 2 * n)

let suite =
  [
    ("wire: tokens answer previous-round requests", `Quick,
     test_tokens_answer_requests);
    ("wire: futile rounds bounded (Lemma 3.3)", `Quick,
     test_futile_rounds_bounded);
    ("wire: requests target announced nodes", `Quick,
     test_requests_target_announced_nodes);
    ("wire: announcements once per pair", `Quick,
     test_announcements_once_per_pair);
    ("wire: one request per edge per round", `Quick,
     test_one_request_per_edge_per_round);
    ("wire: multi-source announcement budget", `Quick,
     test_multi_source_announcement_budget_on_wire);
  ]
