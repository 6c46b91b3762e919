open Dynet

let require_connected name g =
  if not (Graph.is_connected g) then
    invalid_arg (name ^ ": graph must be connected")

let static g =
  require_connected "Oblivious.static" g;
  Schedule.of_fun ~n:(Graph.n g) (fun _ -> g)

(* Per-round derived rng: independent of how many random bits other
   rounds consume, so the commitment is honest. *)
let round_rng ~seed r = Rng.make ~seed:(seed + (1000003 * r))

let fresh_random ~seed ~n ~p =
  Schedule.of_fun ~n (fun r -> Graph_gen.random_connected (round_rng ~seed r) ~n ~p)

let tree_rotator ~seed ~n =
  Schedule.of_fun ~n (fun r -> Graph_gen.random_tree (round_rng ~seed r) ~n)

let random_non_tree_edge rng ~n tree =
  if n < 3 then None
  else begin
    let rec try_draw attempts =
      if attempts = 0 then None
      else
        let u = Rng.int rng n and v = Rng.int rng n in
        if u = v || Graph.mem_edge tree u v then try_draw (attempts - 1)
        else Some (u, v)
    in
    try_draw 32
  end

let merge a b = Edge_table.merge_keys a (Array.length a) b (Array.length b)

let rewiring ~seed ~n ~extra ~rate =
  let base_rng = Rng.make ~seed in
  let tree = Graph_gen.random_tree base_rng ~n in
  let tree_keys = Graph.edges tree in
  (* The ascending keys of [count] fresh non-tree draws, deduped. *)
  let draw_extras rng count =
    let fresh = Edge_table.create ~n () in
    let rec loop remaining =
      if remaining > 0 then
        match random_non_tree_edge rng ~n tree with
        | None -> ()
        | Some (u, v) ->
            Edge_table.add_pair fresh u v;
            loop (remaining - 1)
    in
    loop count;
    Edge_table.sorted_keys fresh
  in
  let initial = draw_extras (Rng.split base_rng) extra in
  Schedule.iterate ~n
    ~init:(fun () -> Graph.make ~n (merge tree_keys initial))
    (fun r prev ->
      let rng = round_rng ~seed:(seed lxor 0x5bd1) r in
      (* One coin per non-tree edge of [prev], in ascending key order. *)
      let kept =
        List.filter
          (fun _ -> not (Rng.bernoulli rng rate))
          (Array.to_list (Edge_table.diff_keys (Graph.edges prev) tree_keys))
      in
      let fresh = draw_extras rng (max 0 (extra - List.length kept)) in
      Graph.make ~n (merge tree_keys (merge (Array.of_list kept) fresh)))

let patch_connected rng ~n edges =
  let g = Graph.of_table edges in
  if Graph.is_connected g then g
  else
    let tree = Graph_gen.random_tree rng ~n in
    Graph.union g tree

let edge_markovian ~seed ~n ~p_up ~p_down =
  Schedule.iterate ~n
    ~init:(fun () -> Graph_gen.random_tree (Rng.make ~seed) ~n)
    (fun r prev ->
      let rng = round_rng ~seed:(seed lxor 0x193a) r in
      (* The (u, v) loop visits keys u * n + v in ascending order, so a
         cursor over [prev]'s keys answers presence and the kept keys
         come out sorted. *)
      let prev_keys = Graph.edges prev in
      let up = Rng.threshold p_up and down = Rng.threshold p_down in
      let edges = Edge_table.create ~n () in
      let c = ref 0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let key = (u * n) + v in
          let present =
            !c < Array.length prev_keys && prev_keys.(!c) = key
          in
          if present then incr c;
          let next =
            if present then not (Rng.below rng down) else Rng.below rng up
          in
          if next then Edge_table.add_pair edges u v
        done
      done;
      patch_connected rng ~n edges)

let churn_bursts ~seed ~n ~period ~quiet =
  if period < 1 then invalid_arg "Oblivious.churn_bursts: period must be >= 1";
  require_connected "Oblivious.churn_bursts" quiet;
  if Graph.n quiet <> n then
    invalid_arg "Oblivious.churn_bursts: quiet graph has wrong node count";
  Schedule.of_fun ~n (fun r ->
      if r mod period = 0 then Graph_gen.random_tree (round_rng ~seed r) ~n
      else quiet)

let all_named ~n ~seed =
  [
    ("static-random", static (Graph_gen.random_connected (Rng.make ~seed) ~n ~p:0.1));
    ("static-cycle", static (Graph_gen.cycle ~n));
    ("fresh-random", fresh_random ~seed ~n ~p:0.05);
    ("tree-rotator", tree_rotator ~seed ~n);
    ("rewiring", rewiring ~seed ~n ~extra:n ~rate:0.2);
    ( "edge-markovian",
      edge_markovian ~seed ~n ~p_up:(2. /. float_of_int n) ~p_down:0.3 );
    ( "churn-bursts",
      churn_bursts ~seed ~n ~period:8 ~quiet:(Graph_gen.cycle ~n) );
  ]
