(* Tests for the weakly adaptive broadcast adversary (footnote 4) and
   the adversary-hierarchy experiment built on it. *)

let check = Alcotest.check

let dummy_intents n = Array.make n (None : int option)

let test_weak_always_connected () =
  let n = 12 in
  let adv = Adversary.Weak_bcast.make ~seed:1 ~n in
  let prev = ref (Dynet.Graph.empty ~n) in
  for round = 1 to 20 do
    let intents =
      Array.init n (fun v -> if (v + round) mod 3 = 0 then Some v else None)
    in
    let g = adv ~round ~prev:!prev ~states:(Array.make n ()) ~intents in
    Alcotest.check Alcotest.bool
      (Printf.sprintf "round %d connected" round)
      true (Dynet.Graph.is_connected g);
    Alcotest.check Alcotest.int
      (Printf.sprintf "round %d is a star" round)
      (n - 1) (Dynet.Graph.edge_count g);
    prev := g
  done

let test_weak_hub_avoids_recent_broadcasters () =
  let n = 10 in
  let adv = Adversary.Weak_bcast.make ~seed:2 ~n in
  (* Round 1: nodes 0..4 broadcast. *)
  let intents1 = Array.init n (fun v -> if v < 5 then Some v else None) in
  ignore
    (adv ~round:1 ~prev:(Dynet.Graph.empty ~n) ~states:(Array.make n ())
       ~intents:intents1);
  (* Round 2: whatever happens now, the hub must be one of 5..9 (the
     silent nodes of round 1).  The hub is the unique max-degree node
     of the star. *)
  let g2 =
    adv ~round:2 ~prev:(Dynet.Graph.empty ~n) ~states:(Array.make n ())
      ~intents:(dummy_intents n)
  in
  let hub = ref (-1) in
  for v = 0 to n - 1 do
    if Dynet.Graph.degree g2 v = n - 1 then hub := v
  done;
  check Alcotest.bool "hub was silent in round 1" true (!hub >= 5)

let test_weak_is_deterministic_given_seed () =
  let n = 8 in
  let run () =
    let adv = Adversary.Weak_bcast.make ~seed:3 ~n in
    List.init 6 (fun r ->
        let intents =
          Array.init n (fun v -> if (v + r) mod 2 = 0 then Some v else None)
        in
        let g =
          adv ~round:(r + 1) ~prev:(Dynet.Graph.empty ~n)
            ~states:(Array.make n ()) ~intents
        in
        Array.to_list (Dynet.Graph.edges g))
  in
  check Alcotest.bool "same seed, same graphs" true (run () = run ())

let test_weak_rejects_tiny_n () =
  Alcotest.check_raises "n >= 2"
    (Invalid_argument "Weak_bcast.make: n must be >= 2") (fun () ->
      let _ : (unit, unit) Engine.Runner_broadcast.adversary =
        Adversary.Weak_bcast.make ~seed:1 ~n:1
      in
      ())

let test_adaptivity_hierarchy_experiment () =
  let t = Analysis.Experiments.adaptivity ~n:20 ~budget:20 ~seed:5 () in
  let rendered = Analysis.Table.render t in
  check Alcotest.bool "hierarchy holds" true
    (not (Astring.String.is_infix ~affix:"FAIL" rendered));
  check Alcotest.int "six rows (2 policies x 3 adversaries)" 6
    (List.length (Analysis.Table.rows t))

let suite =
  [
    ("weak adversary: connected stars", `Quick, test_weak_always_connected);
    ("weak adversary: hub avoids recent broadcasters", `Quick,
     test_weak_hub_avoids_recent_broadcasters);
    ("weak adversary: deterministic", `Quick, test_weak_is_deterministic_given_seed);
    ("weak adversary: validation", `Quick, test_weak_rejects_tiny_n);
    ("adaptivity hierarchy experiment", `Quick,
     test_adaptivity_hierarchy_experiment);
  ]
