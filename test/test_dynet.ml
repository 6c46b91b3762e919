(* Unit and property tests for the dynamic-graph substrate. *)

open Dynet

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Node_id / edge keys} *)

let test_node_id_basics () =
  check Alcotest.int "of_int round-trips" 7 (Node_id.to_int (Node_id.of_int 7));
  check Alcotest.bool "equal" true (Node_id.equal 3 3);
  check (Alcotest.list Alcotest.int) "all" [ 0; 1; 2 ] (Node_id.all ~n:3);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Node_id.of_int: negative identifier") (fun () ->
      ignore (Node_id.of_int (-1)))

(* The graph on [n] nodes with the given endpoint pairs. *)
let of_pairs ~n pairs =
  let t = Edge_table.create ~n () in
  List.iter (fun (u, v) -> Edge_table.add_pair t u v) pairs;
  Graph.of_table t

let test_edge_canonical () =
  check Alcotest.int "smaller endpoint first" ((2 * 10) + 5)
    (Edge_table.key ~n:10 5 2);
  check Alcotest.bool "equal regardless of direction" true
    (Edge_table.key ~n:10 2 5 = Edge_table.key ~n:10 5 2)

let test_edge_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Edge_table.key: self-loop")
    (fun () -> ignore (Edge_table.key ~n:10 4 4))

(* {2 Edge-set algebra over sorted keys} *)

let pair_gen =
  QCheck.Gen.(
    map2 (fun a b -> if a = b then (a, b + 1) else (a, b)) (int_bound 20)
      (int_bound 20))

let pair_list_arb =
  QCheck.list_of_size QCheck.Gen.(int_bound 30)
    (QCheck.make ~print:QCheck.Print.(pair int int) pair_gen)

let prop_edge_set_union_diff =
  QCheck.Test.make ~name:"edge_set: (a ∪ b) \\ b ⊆ a" ~count:200
    (QCheck.pair pair_list_arb pair_list_arb)
    (fun (la, lb) ->
      let a = of_pairs ~n:22 la and b = of_pairs ~n:22 lb in
      Array.for_all
        (fun key ->
          Graph.mem_edge b (key / 22) (key mod 22)
          || Graph.mem_edge a (key / 22) (key mod 22))
        (Graph.edges (Graph.union a b)))

let prop_edge_set_cardinal =
  QCheck.Test.make ~name:"edge_set: |a| + |b| = |a ∪ b| + |a ∩ b|" ~count:200
    (QCheck.pair pair_list_arb pair_list_arb)
    (fun (la, lb) ->
      let a = of_pairs ~n:22 la and b = of_pairs ~n:22 lb in
      (* |a ∩ b| = |a| − |a \ b|, the removals going from a to b. *)
      let inter = Graph.edge_count a - snd (Graph.delta_counts ~prev:a ~cur:b) in
      Graph.edge_count a + Graph.edge_count b
      = Graph.edge_count (Graph.union a b) + inter)

let test_edge_set_incident () =
  let g = of_pairs ~n:10 [ (0, 1); (1, 2); (2, 3) ] in
  check Alcotest.int "incident_to 1" 2 (Graph.degree g 1);
  check Alcotest.int "incident_to 3" 1 (Graph.degree g 3);
  check Alcotest.int "incident_to 9" 0 (Graph.degree g 9)

(* {2 Union_find} *)

let test_union_find_basics () =
  let uf = Union_find.create 5 in
  check Alcotest.int "initial components" 5 (Union_find.count uf);
  check Alcotest.bool "union merges" true (Union_find.union uf 0 1);
  check Alcotest.bool "re-union is no-op" false (Union_find.union uf 1 0);
  check Alcotest.int "count after one union" 4 (Union_find.count uf);
  check Alcotest.bool "same" true (Union_find.same uf 0 1);
  check Alcotest.bool "not same" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  check Alcotest.int "chained" 2 (Union_find.count uf);
  check Alcotest.bool "transitively same" true (Union_find.same uf 0 3)

let test_union_find_components () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 3 4);
  let comps = Union_find.components uf in
  check Alcotest.int "three components" 3 (List.length comps);
  let sizes = List.map List.length comps |> List.sort Int.compare in
  check (Alcotest.list Alcotest.int) "sizes" [ 1; 2; 3 ] sizes;
  check Alcotest.int "representatives" 3
    (List.length (Union_find.representatives uf))

let test_union_find_copy_isolated () =
  let uf = Union_find.create 4 in
  ignore (Union_find.union uf 0 1);
  let clone = Union_find.copy uf in
  ignore (Union_find.union clone 2 3);
  check Alcotest.int "original untouched" 3 (Union_find.count uf);
  check Alcotest.int "clone advanced" 2 (Union_find.count clone)

let prop_union_find_count_matches_representatives =
  QCheck.Test.make ~name:"union_find: count = |representatives|" ~count:100
    (QCheck.list_of_size
       QCheck.Gen.(int_bound 40)
       (QCheck.pair (QCheck.int_bound 19) (QCheck.int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter
        (fun (a, b) -> if a <> b then ignore (Union_find.union uf a b))
        pairs;
      Union_find.count uf = List.length (Union_find.representatives uf))

(* {2 Graph} *)

let test_graph_adjacency_sorted () =
  let g =
    of_pairs ~n:5 [ (0, 4); (0, 2); (0, 1) ]
  in
  check (Alcotest.array Alcotest.int) "sorted neighbors" [| 1; 2; 4 |]
    (Graph.neighbors g 0);
  check Alcotest.int "degree" 3 (Graph.degree g 0);
  check Alcotest.int "max degree" 3 (Graph.max_degree g);
  check Alcotest.bool "mem_edge" true (Graph.mem_edge g 2 0);
  check Alcotest.bool "no self edge" false (Graph.mem_edge g 0 0)

let test_graph_rejects_out_of_range () =
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument
       "Graph.make: keys must be strictly ascending canonical packed edges")
    (fun () -> ignore (Graph.make ~n:4 [| 16 |]))

let test_graph_bfs_path () =
  let g = Graph_gen.path ~n:6 in
  let dist = Graph.distances g 0 in
  check (Alcotest.array Alcotest.int) "path distances" [| 0; 1; 2; 3; 4; 5 |]
    dist;
  check Alcotest.int "diameter" 5 (Graph.diameter g);
  check Alcotest.int "eccentricity of middle" 3 (Graph.eccentricity g 2);
  let parents = Graph.bfs_tree g 0 in
  check Alcotest.bool "root has no parent" true (parents.(0) = None);
  check Alcotest.bool "chain parents" true (parents.(3) = Some 2)

let test_graph_components () =
  let g =
    of_pairs ~n:6 [ (0, 1); (2, 3) ]
  in
  check Alcotest.int "components" 4 (Union_find.count (Graph.components g));
  check Alcotest.bool "not connected" false (Graph.is_connected g);
  let extra = Graph.connect_components g in
  check Alcotest.int "minimum connectors" 3 (Array.length extra);
  let joined = Graph.union g (Graph.make ~n:6 extra) in
  check Alcotest.bool "now connected" true (Graph.is_connected joined)

let test_graph_empty_connected_conventions () =
  check Alcotest.bool "single node is connected" true
    (Graph.is_connected (Graph.empty ~n:1));
  check Alcotest.bool "empty node set is connected" true
    (Graph.is_connected (Graph.empty ~n:0));
  check Alcotest.bool "two isolated nodes are not" false
    (Graph.is_connected (Graph.empty ~n:2))

let test_graph_diameter_disconnected_raises () =
  Alcotest.check_raises "diameter of disconnected"
    (Invalid_argument "Graph.diameter: disconnected graph") (fun () ->
      ignore (Graph.diameter (Graph.empty ~n:3)))

(* {2 Graph generators} *)

let sizes = [ 1; 2; 3; 5; 8; 17; 32 ]

let test_generators_connected () =
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun n ->
          let g = gen (Rng.make ~seed:(n * 31)) ~n in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%s n=%d connected" name n)
            true (Graph.is_connected g);
          Alcotest.check Alcotest.int
            (Printf.sprintf "%s n=%d node count" name n)
            n (Graph.n g))
        sizes)
    Graph_gen.all_named

let test_specific_shapes () =
  check Alcotest.int "path edges" 9 (Graph.edge_count (Graph_gen.path ~n:10));
  check Alcotest.int "cycle edges" 10 (Graph.edge_count (Graph_gen.cycle ~n:10));
  check Alcotest.int "star edges" 9 (Graph.edge_count (Graph_gen.star ~n:10));
  check Alcotest.int "clique edges" 45
    (Graph.edge_count (Graph_gen.clique ~n:10));
  check Alcotest.int "star hub degree" 9
    (Graph.degree (Graph_gen.star ~n:10) 0);
  check Alcotest.int "tree edges" 15
    (Graph.edge_count (Graph_gen.random_tree (Rng.make ~seed:1) ~n:16));
  check Alcotest.int "barbell bridge" 2
    (Union_find.count
       (Graph.components
          (Graph.make ~n:10
             (Array.of_list
                (List.filter
                   (fun key -> key <> Edge_table.key ~n:10 4 5)
                   (Array.to_list (Graph.edges (Graph_gen.barbell ~n:10))))))))

let test_grid_and_hypercube_shapes () =
  (* 3x3 grid: 12 edges, diameter 4. *)
  let g = Graph_gen.grid ~n:9 in
  check Alcotest.int "grid edges" 12 (Graph.edge_count g);
  check Alcotest.int "grid diameter" 4 (Graph.diameter g);
  (* Ragged grid keeps exactly n nodes connected. *)
  let g7 = Graph_gen.grid ~n:7 in
  check Alcotest.bool "ragged grid connected" true (Graph.is_connected g7);
  (* Q3: 12 edges, every degree 3, diameter 3. *)
  let h = Graph_gen.hypercube ~n:8 in
  check Alcotest.int "hypercube edges" 12 (Graph.edge_count h);
  check Alcotest.int "hypercube diameter" 3 (Graph.diameter h);
  for v = 0 to 7 do
    Alcotest.check Alcotest.int "cube degree" 3 (Graph.degree h v)
  done;
  (* Non-power-of-two: leftovers hang off the cube. *)
  let h10 = Graph_gen.hypercube ~n:10 in
  check Alcotest.bool "padded hypercube connected" true (Graph.is_connected h10);
  check Alcotest.int "padded node count" 10 (Graph.n h10)

let prop_random_tree_is_tree =
  QCheck.Test.make ~name:"random_tree: n-1 edges and connected" ~count:60
    (QCheck.int_range 2 60)
    (fun n ->
      let g = Graph_gen.random_tree (Rng.make ~seed:n) ~n in
      Graph.edge_count g = n - 1 && Graph.is_connected g)

let prop_random_connected_connected =
  QCheck.Test.make ~name:"random_connected: connected for any p" ~count:60
    (QCheck.pair (QCheck.int_range 2 40) (QCheck.float_bound_inclusive 1.))
    (fun (n, p) ->
      Graph.is_connected (Graph_gen.random_connected (Rng.make ~seed:n) ~n ~p))

let prop_regularish_degree_bounds =
  QCheck.Test.make ~name:"random_regularish: degrees within [2, d+2]"
    ~count:40
    (QCheck.pair (QCheck.int_range 4 40) (QCheck.int_range 2 6))
    (fun (n, d) ->
      let g = Graph_gen.random_regularish (Rng.make ~seed:(n + d)) ~n ~d in
      let ok = ref true in
      for v = 0 to n - 1 do
        let deg = Graph.degree g v in
        if deg < 1 || deg > d + 2 then ok := false
      done;
      !ok && Graph.is_connected g)

(* {2 Dyn_seq} *)

let test_dyn_seq_deltas_and_tc () =
  let g1 = of_pairs ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let g2 = of_pairs ~n:4 [ (0, 1); (1, 3); (2, 3) ] in
  let g3 = g1 in
  let seq = Dyn_seq.of_graphs [ g1; g2; g3 ] in
  check Alcotest.int "length" 3 (Dyn_seq.length seq);
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "round-1 insertions = its edges" (3, 0)
    (Graph.delta_counts ~prev:(Dyn_seq.get seq 0) ~cur:(Dyn_seq.get seq 1));
  check (Alcotest.pair Alcotest.int Alcotest.int) "round-2 insertions, removals"
    (1, 1)
    (Graph.delta_counts ~prev:(Dyn_seq.get seq 1) ~cur:(Dyn_seq.get seq 2));
  check Alcotest.int "tc" 5 (Dyn_seq.tc seq);
  check Alcotest.int "removals total" 2 (Dyn_seq.total_removals seq);
  check Alcotest.bool "removals <= tc" true
    (Dyn_seq.total_removals seq <= Dyn_seq.tc seq);
  check Alcotest.bool "all rounds connected" true (Dyn_seq.all_connected seq)

let test_dyn_seq_stability_predicate () =
  let tri = of_pairs ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let no02 = of_pairs ~n:3 [ (0, 1); (1, 2) ] in
  (* e02 present exactly one round in the middle: 1-stable only. *)
  let seq = Dyn_seq.of_graphs [ no02; tri; no02; no02 ] in
  check Alcotest.bool "1-stable" true (Dyn_seq.is_sigma_stable seq ~sigma:1);
  check Alcotest.bool "not 2-stable" false (Dyn_seq.is_sigma_stable seq ~sigma:2);
  (* Two consecutive rounds: 2-stable but not 3-stable. *)
  let seq2 = Dyn_seq.of_graphs [ no02; tri; tri; no02; no02 ] in
  check Alcotest.bool "2-stable" true (Dyn_seq.is_sigma_stable seq2 ~sigma:2);
  check Alcotest.bool "not 3-stable" false (Dyn_seq.is_sigma_stable seq2 ~sigma:3);
  (* A run truncated by the end of the recording is accepted. *)
  let seq3 = Dyn_seq.of_graphs [ no02; no02; tri ] in
  check Alcotest.bool "open run accepted" true
    (Dyn_seq.is_sigma_stable seq3 ~sigma:3)

let test_dyn_seq_rejects_mixed_sizes () =
  Alcotest.check_raises "node counts disagree"
    (Invalid_argument "Dyn_seq.of_graphs: node counts disagree") (fun () ->
      ignore (Dyn_seq.of_graphs [ Graph.empty ~n:3; Graph.empty ~n:4 ]))

(* {2 Stability transformer} *)

let random_proposals ~seed ~n ~rounds =
  List.init rounds (fun r ->
      Graph_gen.random_tree (Rng.make ~seed:(seed + r)) ~n)

let test_stability_enforces_sigma () =
  let proposals = random_proposals ~seed:9 ~n:12 ~rounds:30 in
  List.iter
    (fun sigma ->
      let out = Stability.transform ~sigma proposals in
      let seq = Dyn_seq.of_graphs out in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "sigma=%d holds" sigma)
        true
        (Dyn_seq.is_sigma_stable seq ~sigma);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "sigma=%d keeps connectivity" sigma)
        true (Dyn_seq.all_connected seq))
    [ 1; 2; 3; 5 ]

let test_stability_superset_of_proposal () =
  let proposals = random_proposals ~seed:21 ~n:10 ~rounds:20 in
  let out = Stability.transform ~sigma:3 proposals in
  List.iter2
    (fun prop actual ->
      Alcotest.check Alcotest.bool "proposal ⊆ actual" true
        (fst (Graph.delta_counts ~prev:actual ~cur:prop) = 0))
    proposals out

let test_stability_sigma_one_is_identity () =
  let proposals = random_proposals ~seed:33 ~n:8 ~rounds:12 in
  let out = Stability.transform ~sigma:1 proposals in
  List.iter2
    (fun prop actual ->
      Alcotest.check Alcotest.bool "identity" true
        (Graph.same_edges prop actual))
    proposals out

(* {2 Graph_metrics} *)

let test_metrics_degree_stats () =
  let s = Graph_metrics.degree_stats (Graph_gen.star ~n:8) in
  check Alcotest.int "min" 1 s.Graph_metrics.min_degree;
  check Alcotest.int "max" 7 s.Graph_metrics.max_degree;
  check (Alcotest.float 1e-9) "mean = 2m/n" 1.75 s.Graph_metrics.mean_degree

let test_metrics_clustering () =
  check (Alcotest.float 1e-9) "clique fully clustered" 1.
    (Graph_metrics.clustering_coefficient (Graph_gen.clique ~n:6));
  check (Alcotest.float 1e-9) "tree has no triangles" 0.
    (Graph_metrics.clustering_coefficient (Graph_gen.star ~n:6));
  let triangle_plus_tail =
    of_pairs ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ]
  in
  (* Nodes 0 and 1: coefficient 1; node 2: 1/3; node 3: degree 1 -> 0. *)
  check (Alcotest.float 1e-9) "mixed graph" ((1. +. 1. +. (1. /. 3.)) /. 4.)
    (Graph_metrics.clustering_coefficient triangle_plus_tail)

let test_metrics_mean_distance () =
  check (Alcotest.float 1e-9) "clique distance 1" 1.
    (Graph_metrics.mean_distance (Graph_gen.clique ~n:5));
  (* Path 0-1-2: distances 1,2,1,1,2,1 over 6 ordered pairs. *)
  check (Alcotest.float 1e-9) "path of 3" (8. /. 6.)
    (Graph_metrics.mean_distance (Graph_gen.path ~n:3))

let test_metrics_churn () =
  let g = Graph_gen.cycle ~n:8 in
  let static_seq = Dyn_seq.of_graphs [ g; g; g; g ] in
  let c = Graph_metrics.churn_stats static_seq in
  check Alcotest.int "tc = first round" 8 c.Graph_metrics.tc;
  check (Alcotest.float 1e-9) "no steady churn" 0.
    c.Graph_metrics.insertions_per_round;
  check (Alcotest.float 1e-9) "zero turnover" 0. c.Graph_metrics.turnover;
  let rotating =
    Dyn_seq.of_graphs
      (List.init 6 (fun r -> Graph_gen.random_tree (Rng.make ~seed:r) ~n:8))
  in
  let c2 = Graph_metrics.churn_stats rotating in
  check Alcotest.bool "rotation churns" true
    (c2.Graph_metrics.turnover > 0.3)

(* {2 Rng} *)

let test_rng_determinism () =
  let a = Rng.make ~seed:5 and b = Rng.make ~seed:5 in
  let da = List.init 20 (fun _ -> Rng.int a 1000) in
  let db = List.init 20 (fun _ -> Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" da db

let test_rng_split_independence () =
  let parent = Rng.make ~seed:5 in
  let child = Rng.split parent in
  let child_draws = List.init 5 (fun _ -> Rng.int child 1000) in
  (* Replaying the parent gives the same child. *)
  let parent2 = Rng.make ~seed:5 in
  let child2 = Rng.split parent2 in
  let child2_draws = List.init 5 (fun _ -> Rng.int child2 1000) in
  check (Alcotest.list Alcotest.int) "split deterministic" child_draws
    child2_draws

let test_rng_permutation () =
  let p = Rng.permutation (Rng.make ~seed:3) 50 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let prop_rng_sample_without_replacement =
  QCheck.Test.make ~name:"rng: sample_without_replacement distinct sorted"
    ~count:100
    (QCheck.pair (QCheck.int_range 0 30) (QCheck.int_range 30 60))
    (fun (m, n) ->
      let s = Rng.sample_without_replacement (Rng.make ~seed:(m + n)) m n in
      List.length s = m
      && List.for_all (fun x -> x >= 0 && x < n) s
      && List.sort_uniq Int.compare s = s)

(* [bernoulli] computes [Random.State.float t 1. < p] inline; the
   stream of outcomes must be the stdlib's draw for draw. *)
let test_rng_bernoulli_same_draws () =
  let a = Rng.make ~seed:11 and b = Rng.make ~seed:11 in
  let ps = Rng.make ~seed:12 in
  for i = 1 to 100_000 do
    let p = if i mod 1000 = 0 then 1e-9 else Rng.float ps 1. in
    let got = Rng.bernoulli a p and want = Rng.float b 1. < p in
    if not (Bool.equal got want) then
      Alcotest.failf "draw %d (p = %h): bernoulli %b, float < p %b" i p got
        want
  done

let test_rng_bernoulli_allocation_free () =
  let rng = Rng.make ~seed:3 in
  let draws = 100_000 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  ignore (Sys.opaque_identity !hits);
  if per_draw > 0.01 then
    Alcotest.failf "bernoulli allocates %.2f minor words per draw" per_draw

let prop_rng_bernoulli_extremes =
  QCheck.Test.make ~name:"rng: bernoulli extremes" ~count:50 QCheck.int
    (fun seed ->
      let rng = Rng.make ~seed in
      (not (Rng.bernoulli rng 0.)) && Rng.bernoulli rng 1.)

(* The integer threshold against the float predicate, on the same
   53-bit draw [b >= 1]: [b * 2^-53 < p] iff [b < threshold p].  The
   p's include both ends, the smallest positive float, the largest
   float below 1, and a p whose p * 2^53 is a whole number (the only
   case where ceil is not a strict round-up). *)
let prop_rng_threshold_exact =
  let fixed_ps =
    [ 0.; 1.; 0.5; 0.25; Float.min_float *. 0x1p-52; 1. -. 0x1p-53;
      3. *. 0x1p-53; 0.1 ]
  in
  QCheck.Test.make ~name:"rng: threshold predicate ≡ float predicate"
    ~count:500
    QCheck.(
      triple
        (oneof [ oneofl fixed_ps; float_bound_inclusive 1. ])
        (int_range 1 ((1 lsl 53) - 1))
        (oneofl [ 1; 2; 3; (1 lsl 53) - 1 ]))
    (fun (p, b, edge) ->
      let th = Rng.threshold p in
      let agrees b =
        Bool.equal (b < th) (Float.of_int b *. 0x1p-53 < p)
      in
      (* [b] is a random draw; [edge] and [th] ± 1 probe the boundary. *)
      agrees b && agrees edge
      && (th <= 1 || agrees (th - 1))
      && (th < 1 || th >= 1 lsl 53 || agrees th))

(* The float body [Rng.bernoulli] had before its threshold form, as
   the oracle: [Random.State.float t 1.] is the stdlib's [rawfloat]
   times 1., so this is the same draw compared as a float. *)
let float_bernoulli rng p =
  if p <= 0. then false else if p >= 1. then true else Rng.float rng 1. < p

let prop_rng_bernoulli_matches_float_body =
  QCheck.Test.make ~name:"rng: bernoulli ≡ the float body, streams in step"
    ~count:200
    QCheck.(
      pair int
        (list_of_size (Gen.int_range 1 50)
           (oneof
              [
                oneofl [ 0.; 1.; -0.5; 2.; 0.25; Float.nan; 1. -. 0x1p-53 ];
                float_bound_inclusive 1.;
              ])))
    (fun (seed, ps) ->
      let a = Rng.make ~seed and b = Rng.make ~seed in
      List.for_all (fun p -> Bool.equal (Rng.bernoulli a p) (float_bernoulli b p)) ps
      && Rng.int a 1_000_000 = Rng.int b 1_000_000)

(* DFS connectivity against the union-find component count, on random
   key subsets: n = 0, 1 and 2, empty graphs, and graphs whose last
   node is isolated are all in range. *)
let prop_is_connected_matches_components =
  QCheck.Test.make ~name:"graph: is_connected ≡ one union-find component"
    ~count:500
    QCheck.(triple (int_bound 64) (oneofl [ 0.; 0.02; 0.1; 0.3; 1. ]) int)
    (fun (n, p, seed) ->
      let rng = Rng.make ~seed in
      let isolate_last = Rng.bool rng in
      let keys = ref [] in
      for u = n - 1 downto 0 do
        for v = n - 1 downto u + 1 do
          if Rng.bernoulli rng p && not (isolate_last && v = n - 1) then
            keys := ((u * n) + v) :: !keys
        done
      done;
      let g = Graph.make ~n (Array.of_list !keys) in
      Bool.equal (Graph.is_connected g)
        (n <= 1 || Union_find.count (Graph.components g) = 1))

let suite =
  [
    ("node_id basics", `Quick, test_node_id_basics);
    ("edge canonical form", `Quick, test_edge_canonical);
    ("edge rejects self-loops", `Quick, test_edge_rejects_self_loop);
    ("edge_set incident_to", `Quick, test_edge_set_incident);
    qcheck prop_edge_set_union_diff;
    qcheck prop_edge_set_cardinal;
    ("union_find basics", `Quick, test_union_find_basics);
    ("union_find components", `Quick, test_union_find_components);
    ("union_find copy isolation", `Quick, test_union_find_copy_isolated);
    qcheck prop_union_find_count_matches_representatives;
    ("graph adjacency sorted", `Quick, test_graph_adjacency_sorted);
    ("graph rejects out-of-range", `Quick, test_graph_rejects_out_of_range);
    ("graph bfs on path", `Quick, test_graph_bfs_path);
    ("graph components & connectors", `Quick, test_graph_components);
    ("graph connectivity conventions", `Quick,
     test_graph_empty_connected_conventions);
    ("graph diameter raises when disconnected", `Quick,
     test_graph_diameter_disconnected_raises);
    ("all generators connected at all sizes", `Quick, test_generators_connected);
    ("generator shapes", `Quick, test_specific_shapes);
    ("grid and hypercube shapes", `Quick, test_grid_and_hypercube_shapes);
    qcheck prop_random_tree_is_tree;
    qcheck prop_random_connected_connected;
    qcheck prop_regularish_degree_bounds;
    ("dyn_seq deltas and TC", `Quick, test_dyn_seq_deltas_and_tc);
    ("dyn_seq sigma-stability predicate", `Quick,
     test_dyn_seq_stability_predicate);
    ("dyn_seq rejects mixed sizes", `Quick, test_dyn_seq_rejects_mixed_sizes);
    ("stability transform enforces sigma", `Quick, test_stability_enforces_sigma);
    ("stability output contains proposal", `Quick,
     test_stability_superset_of_proposal);
    ("stability sigma=1 is identity", `Quick, test_stability_sigma_one_is_identity);
    ("metrics: degree stats", `Quick, test_metrics_degree_stats);
    ("metrics: clustering", `Quick, test_metrics_clustering);
    ("metrics: mean distance", `Quick, test_metrics_mean_distance);
    ("metrics: churn", `Quick, test_metrics_churn);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng split determinism", `Quick, test_rng_split_independence);
    ("rng permutation", `Quick, test_rng_permutation);
    qcheck prop_rng_sample_without_replacement;
    ("rng bernoulli same draws", `Quick, test_rng_bernoulli_same_draws);
    ("rng bernoulli allocation-free", `Quick,
     test_rng_bernoulli_allocation_free);
    qcheck prop_rng_bernoulli_extremes;
    qcheck prop_rng_threshold_exact;
    qcheck prop_rng_bernoulli_matches_float_body;
    qcheck prop_is_connected_matches_components;
  ]
