(* Tests for the fast-path substrate: packed bitsets checked against a
   reference [Set.Make (Int)] on random operation sequences, the
   int-keyed edge table and incremental graph deltas checked against
   the set algebra of Edge_model, the stability wrapper's physical graph
   reuse, and
   the deterministic parallel sweep runner. *)

open Dynet
module ISet = Set.Make (Int)
module Edge_set = Edge_model.Edge_set

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Bitset vs Set.Make(Int) on random op sequences} *)

type op = Set of int | Unset of int | Add of int | Remove of int

let op_gen ~cap =
  QCheck.Gen.(
    int_bound (cap - 1) >>= fun i ->
    oneofl [ Set i; Unset i; Add i; Remove i ])

let pp_op = function
  | Set i -> Printf.sprintf "set %d" i
  | Unset i -> Printf.sprintf "unset %d" i
  | Add i -> Printf.sprintf "add %d" i
  | Remove i -> Printf.sprintf "remove %d" i

let ops_arb ~cap =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_bound 120) (op_gen ~cap))

(* Replay one op on both representations; [Add]/[Remove] exercise the
   persistent copy-on-write path, [Set]/[Unset] the in-place one. *)
let replay cap ops =
  List.fold_left
    (fun (bs, ref_set) op ->
      match op with
      | Set i ->
          let bs = Bitset.copy bs in
          Bitset.set bs i;
          (bs, ISet.add i ref_set)
      | Unset i ->
          let bs = Bitset.copy bs in
          Bitset.unset bs i;
          (bs, ISet.remove i ref_set)
      | Add i -> (Bitset.add i bs, ISet.add i ref_set)
      | Remove i -> (Bitset.remove i bs, ISet.remove i ref_set))
    (Bitset.create cap, ISet.empty)
    ops

let cap = 150 (* > 2 words, so word boundaries are crossed *)

let prop_bitset_matches_reference =
  QCheck.Test.make ~name:"bitset: random ops match Set.Make(Int)" ~count:300
    (ops_arb ~cap) (fun ops ->
      let bs, ref_set = replay cap ops in
      Bitset.to_list bs = ISet.elements ref_set
      && Bitset.cardinal bs = ISet.cardinal ref_set
      && Bitset.is_empty bs = ISet.is_empty ref_set
      && List.for_all (fun i -> Bitset.mem bs i = ISet.mem i ref_set)
           (List.init cap Fun.id))

let prop_bitset_algebra_matches_reference =
  QCheck.Test.make ~name:"bitset: union/inter/diff match Set.Make(Int)"
    ~count:300
    (QCheck.pair (ops_arb ~cap) (ops_arb ~cap))
    (fun (ops_a, ops_b) ->
      let a, ra = replay cap ops_a in
      let b, rb = replay cap ops_b in
      Bitset.to_list (Bitset.union a b) = ISet.elements (ISet.union ra rb)
      && Bitset.to_list (Bitset.inter a b) = ISet.elements (ISet.inter ra rb)
      && Bitset.to_list (Bitset.diff a b) = ISet.elements (ISet.diff ra rb)
      && Bitset.subset a b = ISet.subset ra rb
      && Bitset.equal a b = ISet.equal ra rb)

let prop_bitset_scans_match_reference =
  QCheck.Test.make ~name:"bitset: next_set/next_clear match reference"
    ~count:300 (ops_arb ~cap) (fun ops ->
      let bs, ref_set = replay cap ops in
      let next_set_ref i =
        match ISet.find_first_opt (fun j -> j >= i) ref_set with
        | Some j -> j
        | None -> cap
      in
      let rec next_clear_ref i =
        if i >= cap then cap
        else if ISet.mem i ref_set then next_clear_ref (i + 1)
        else i
      in
      List.for_all
        (fun i ->
          Bitset.next_set bs i = next_set_ref i
          && Bitset.next_clear bs i = next_clear_ref i)
        (List.init cap Fun.id))

let test_bitset_persistent_sharing () =
  let a = Bitset.create 80 in
  let b = Bitset.add 63 a in
  check Alcotest.bool "input untouched by add" false (Bitset.mem a 63);
  (* dynlint: allow physical-eq — the assertion is that the no-op path
     returns the input unchanged, which is a physical-identity claim *)
  check Alcotest.bool "no-op add returns input" true (Bitset.add 63 b == b);
  check Alcotest.bool "no-op remove returns input" true
    (* dynlint: allow physical-eq — same physical-identity claim *)
    (Bitset.remove 5 b == b);
  let c = Bitset.remove 63 b in
  check Alcotest.bool "input untouched by remove" true (Bitset.mem b 63);
  check Alcotest.bool "removed in copy" false (Bitset.mem c 63)

(* {2 Edge_table / Graph incremental adjacency} *)

let graph_of_pairs n pairs =
  let t = Edge_table.create ~n () in
  List.iter (fun (u, v) -> if u <> v then Edge_table.add_pair t u v) pairs;
  Graph.of_table t

let pairs_arb n =
  QCheck.make
    ~print:(fun ps ->
      String.concat ", "
        (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) ps))
    QCheck.Gen.(
      list_size (int_bound 60)
        (pair (int_bound (n - 1)) (int_bound (n - 1))))

let prop_of_table_matches_make =
  QCheck.Test.make ~name:"graph: of_table ≡ make over Edge_set" ~count:200
    (pairs_arb 20) (fun pairs ->
      let n = 20 in
      let g = graph_of_pairs n pairs in
      let eset =
        List.fold_left
          (fun acc (u, v) -> if u = v then acc else Edge_model.add_pair u v acc)
          Edge_set.empty pairs
      in
      let g' = Edge_model.graph ~n eset in
      let table = Edge_table.create ~n ~size_hint:1 () in
      List.iter
        (fun (u, v) -> if u <> v then Edge_table.add_pair table u v)
        pairs;
      Edge_table.cardinal table = Edge_set.cardinal eset
      && Graph.same_edges g g'
      && Graph.edges g = Graph.edges g'
      && Edge_set.equal (Edge_model.of_graph g) eset
      && List.for_all
           (fun v -> Graph.neighbors g v = Graph.neighbors g' v)
           (List.init n Fun.id))

let prop_delta_counts_match_set_diff =
  QCheck.Test.make ~name:"graph: delta_counts ≡ Edge_set.diff cardinals"
    ~count:200
    (QCheck.pair (pairs_arb 16) (pairs_arb 16))
    (fun (ps_a, ps_b) ->
      let a = graph_of_pairs 16 ps_a and b = graph_of_pairs 16 ps_b in
      let inserted, removed = Graph.delta_counts ~prev:a ~cur:b in
      let sa = Edge_model.of_graph a and sb = Edge_model.of_graph b in
      inserted = Edge_set.cardinal (Edge_set.diff sb sa)
      && removed = Edge_set.cardinal (Edge_set.diff sa sb))

let test_edge_table_basics () =
  let t = Edge_table.create ~n:6 () in
  Edge_table.add_pair t 4 1;
  Edge_table.add_pair t 1 4 (* canonical dup *);
  Edge_table.add_pair t 0 5;
  check Alcotest.int "cardinal dedups" 2 (Edge_table.cardinal t);
  check (Alcotest.array Alcotest.int) "sorted keys in endpoint order"
    [| Edge_table.key ~n:6 0 5; Edge_table.key ~n:6 1 4 |]
    (Edge_table.sorted_keys t);
  (* appends after a sort: a non-adjacent duplicate and a smaller key *)
  Edge_table.add_pair t 5 0;
  Edge_table.add_pair t 2 3;
  Edge_table.add_pair t 0 1;
  check (Alcotest.array Alcotest.int) "re-sorted and deduplicated"
    [| 1; 5; 10; 15 |] (Edge_table.sorted_keys t);
  let ascending = Edge_table.create ~n:4 ~size_hint:1 () in
  List.iter (fun (u, v) -> Edge_table.add_pair ascending u v)
    [ (0, 1); (0, 1); (0, 3); (1, 2); (2, 3) ];
  check (Alcotest.array Alcotest.int) "in-order appends, grown buffer"
    [| 1; 3; 6; 11 |] (Edge_table.sorted_keys ascending);
  Alcotest.check_raises "self-loop rejected"
    (Invalid_argument "Edge_table.key: self-loop") (fun () ->
      ignore (Edge_table.key ~n:6 3 3))

let test_make_validates () =
  let g = Graph.make ~n:4 [| 1; 6; 11 |] in
  check (Alcotest.array Alcotest.int) "path 0-1-2-3, middle row" [| 0; 2 |]
    (Graph.neighbors g 1);
  List.iter
    (fun (name, keys) ->
      Alcotest.check_raises name
        (Invalid_argument
           "Graph.make: keys must be strictly ascending canonical packed \
            edges")
        (fun () -> ignore (Graph.make ~n:4 keys)))
    [
      ("descending", [| 6; 1 |]);
      ("duplicate", [| 1; 1 |]);
      ("self-loop", [| 5 |]);
      ("non-canonical (u > v)", [| 4 |]);
      ("past the last row", [| 16 |]);
      ("negative", [| -1 |]);
    ];
  Alcotest.check_raises "no key fits n = 0"
    (Invalid_argument
       "Graph.make: keys must be strictly ascending canonical packed edges")
    (fun () -> ignore (Graph.make ~n:0 [| 0 |]))

(* {2 random_connected vs a hashed reference builder} *)

(* Reference builder: tree and Bernoulli edges into a Hashtbl of packed
   keys, sorted at the end.  The merge builder must make the same draws
   and the same graph. *)
let oracle_random_connected rng ~n ~p =
  if n <= 1 then [||]
  else begin
    let tbl = Hashtbl.create (2 * n) in
    let add u v = Hashtbl.replace tbl (Edge_table.key ~n u v) () in
    let order = Rng.permutation rng n in
    for i = 1 to n - 1 do
      let attach_to = order.(Rng.int rng i) in
      add order.(i) attach_to
    done;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Rng.bernoulli rng p then add i j
      done
    done;
    let keys = Array.of_seq (Hashtbl.to_seq_keys tbl) in
    Array.sort compare keys;
    keys
  end

let oracle_adjacency ~n keys =
  let rows = Array.make n [] in
  Array.iter
    (fun key ->
      let u = key / n and v = key mod n in
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    keys;
  Array.map (fun row -> Array.of_list (List.sort compare row)) rows

let prop_random_connected_matches_oracle =
  QCheck.Test.make ~name:"graph_gen: random_connected ≡ hashed oracle"
    ~count:300
    QCheck.(
      triple (int_bound 100)
        (oneof [ oneofl [ 0.; 0.01; 0.25; 1. ]; float_bound_inclusive 1. ])
        int)
    (fun (n, p, seed) ->
      let rng = Rng.make ~seed and oracle_rng = Rng.make ~seed in
      let g = Graph_gen.random_connected rng ~n ~p in
      let keys = oracle_random_connected oracle_rng ~n ~p in
      Graph.edges g = keys
      && Array.init n (Graph.neighbors g) = oracle_adjacency ~n keys
      (* same number of draws: the streams stay in step *)
      && Rng.int rng 1_000_000 = Rng.int oracle_rng 1_000_000)

(* {2 Stability: physical reuse of unchanged rounds} *)

let test_stability_reuses_unchanged_graph () =
  let n = 8 in
  let proposal = graph_of_pairs n [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let st = Stability.create ~sigma:3 ~n in
  let g1 = Stability.step st proposal in
  let g2 = Stability.step st proposal in
  let g3 = Stability.step st proposal in
  check Alcotest.bool "same edges as proposal" true
    (Graph.same_edges g1 proposal);
  (* dynlint: allow physical-eq — Stability's contract is physical
     reuse of the held-down graph; == is exactly what is under test *)
  check Alcotest.bool "round 2 physically reused" true (g1 == g2);
  (* dynlint: allow physical-eq — same Stability reuse contract *)
  check Alcotest.bool "round 3 physically reused" true (g2 == g3);
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "delta of reused graph is (0, 0)" (0, 0)
    (Graph.delta_counts ~prev:g1 ~cur:g2);
  (* After sigma rounds the edge has aged out, so a change both breaks
     the physical streak and is allowed to drop it. *)
  let changed = graph_of_pairs n [ (0, 1); (1, 2); (2, 3); (4, 5) ] in
  let g4 = Stability.step st changed in
  (* dynlint: allow physical-eq — asserts the streak broke, i.e. the
     step did NOT physically reuse the previous graph *)
  check Alcotest.bool "changed round is a fresh graph" false (g3 == g4);
  check Alcotest.bool "aged edge may be dropped" false (Graph.mem_edge g4 3 4);
  (* A one-round-old edge, by contrast, is held down against a
     proposal that drops it. *)
  let st2 = Stability.create ~sigma:3 ~n in
  let h1 = Stability.step st2 proposal in
  let h2 = Stability.step st2 changed in
  check Alcotest.bool "proposal adopted" true (Graph.mem_edge h1 3 4);
  check Alcotest.bool "young edge held down" true (Graph.mem_edge h2 3 4);
  check Alcotest.bool "new edge still inserted" true (Graph.mem_edge h2 4 5)

(* {2 Sweep: deterministic parallel map} *)

let test_sweep_map_order_independent_of_jobs () =
  let points = Array.init 257 Fun.id in
  let f i = (i * i) - (3 * i) in
  let seq = Analysis.Sweep.map ~jobs:1 f points in
  List.iter
    (fun jobs ->
      check (Alcotest.array Alcotest.int)
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        seq
        (Analysis.Sweep.map ~jobs f points))
    [ 2; 4; 7 ]

let test_sweep_raises_first_failure_by_index () =
  let points = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let f i = if i >= 3 then failwith (Printf.sprintf "point %d" i) else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d reports lowest failing point" jobs)
        (Failure "point 3")
        (fun () -> ignore (Analysis.Sweep.map ~jobs f points)))
    [ 1; 4 ]

let test_sweep_map_timed_records_per_point () =
  let metrics = Obs.Metrics.create () in
  let out =
    Analysis.Sweep.map_timed ~jobs:4 ~metrics ~name:"sweep/test-point"
      (fun i -> i + 1)
      (Array.init 10 Fun.id)
  in
  check (Alcotest.array Alcotest.int) "results in input order"
    (Array.init 10 (fun i -> i + 1))
    out;
  match Obs.Metrics.summary metrics "sweep/test-point" with
  | None -> Alcotest.fail "no per-point histogram recorded"
  | Some s ->
      check Alcotest.int "one sample per point" 10 s.Obs.Metrics.count;
      check Alcotest.bool "durations non-negative" true (s.Obs.Metrics.min >= 0.)

(* The tentpole guarantee: the experiment sweeps produce bit-identical
   tables — message counts included — whatever [jobs] is. *)
let test_sweep_experiments_deterministic_across_jobs () =
  let seed = 2024 in
  let csv_of tables = String.concat "\n" (List.map Analysis.Table.to_csv tables) in
  let run jobs =
    csv_of
      [
        Analysis.Experiments.table1 ~ns:[ 12 ] ~jobs ~seed ();
        Analysis.Experiments.single_source ~ns:[ 10 ] ~jobs ~seed ();
        Analysis.Experiments.rw_scaling ~n:10 ~ks:[ 10; 20 ] ~jobs ~seed ();
      ]
  in
  let seq = run 1 in
  check Alcotest.string "jobs=4 tables bit-identical to jobs=1" seq (run 4);
  check Alcotest.string "jobs=3 tables bit-identical to jobs=1" seq (run 3)

let suite =
  [
    qcheck prop_bitset_matches_reference;
    qcheck prop_bitset_algebra_matches_reference;
    qcheck prop_bitset_scans_match_reference;
    Alcotest.test_case "bitset: persistent add/remove sharing" `Quick
      test_bitset_persistent_sharing;
    qcheck prop_of_table_matches_make;
    qcheck prop_delta_counts_match_set_diff;
    qcheck prop_random_connected_matches_oracle;
    Alcotest.test_case "graph: make validates its keys" `Quick
      test_make_validates;
    Alcotest.test_case "edge_table: dedup, order, validation" `Quick
      test_edge_table_basics;
    Alcotest.test_case "stability: unchanged rounds reuse the graph" `Quick
      test_stability_reuses_unchanged_graph;
    Alcotest.test_case "sweep: map independent of jobs" `Quick
      test_sweep_map_order_independent_of_jobs;
    Alcotest.test_case "sweep: first failure by index" `Quick
      test_sweep_raises_first_failure_by_index;
    Alcotest.test_case "sweep: map_timed records per-point wall time" `Quick
      test_sweep_map_timed_records_per_point;
    Alcotest.test_case "sweep: experiment tables identical across jobs" `Slow
      test_sweep_experiments_deterministic_across_jobs;
  ]
