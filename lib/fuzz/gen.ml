open Dynet.Ops

(* Widely-spaced per-case seeds: cases of one campaign share no RNG
   stream, so dropping a case index (during shrinking, or when
   re-running a subset) never shifts another case's input. *)
let case_seed ~seed ~id = ((seed * 1_000_003) + id) land max_int

(* One connected base topology.  The shapes deliberately cover the
   regimes the engines treat differently: sparse trees (long token
   paths, many rounds), barbells (a single bridge — the near-partition
   regime), cliques (every inbox full), and random graphs between. *)
let base_graph rng ~n =
  match Dynet.Rng.int rng 8 with
  | 0 -> Dynet.Graph_gen.path ~n
  | 1 -> Dynet.Graph_gen.cycle ~n
  | 2 -> Dynet.Graph_gen.star ~n
  | 3 -> if n >= 4 then Dynet.Graph_gen.barbell ~n else Dynet.Graph_gen.path ~n
  | 4 -> Dynet.Graph_gen.random_tree rng ~n
  | 5 -> Dynet.Graph_gen.clique ~n
  | _ ->
      Dynet.Graph_gen.random_connected rng ~n
        ~p:(0.15 +. Dynet.Rng.float rng 0.4)

(* Local churn: drop one edge (if connectivity survives), then try to
   add one absent pair.  Keeps the graph connected by construction. *)
let churn rng g ~n =
  let edges = Dynet.Graph.edges g in
  let g =
    match Dynet.Edge_set.to_list edges with
    | [] -> g
    | l ->
        let e = Dynet.Rng.pick rng (Array.of_list l) in
        let g' = Dynet.Graph.make ~n (Dynet.Edge_set.remove e edges) in
        if Dynet.Graph.is_connected g' then g' else g
  in
  let u = Dynet.Rng.int rng n and v = Dynet.Rng.int rng n in
  if u = v || Dynet.Graph.mem_edge g u v then g
  else Dynet.Graph.make ~n (Dynet.Edge_set.add_pair u v (Dynet.Graph.edges g))

(* A dynamic-adversary program as a round-graph list: each round either
   holds the topology (stability), redraws it wholesale (a churn
   burst / partition-and-heal, when the shapes differ), or churns a
   couple of edges locally. *)
let rounds rng ~n =
  let len = 1 + Dynet.Rng.int rng 12 in
  let cur = ref (base_graph rng ~n) in
  let out = ref [] in
  for _ = 1 to len do
    (match Dynet.Rng.int rng 4 with
    | 0 -> ()
    | 1 -> cur := base_graph rng ~n
    | _ -> cur := churn rng !cur ~n);
    out := !cur :: !out
  done;
  List.rev !out

(* Fault rates are drawn in hundredths so the values survive the
   JSON round-trip of a saved spec bit-for-bit. *)
let pct rng bound = float_of_int (Dynet.Rng.int rng bound) /. 100.

let faults rng : Scenario.Spec.faults option =
  if not (Dynet.Rng.bernoulli rng 0.35) then None
  else
    Some
      {
        Scenario.Spec.loss = pct rng 26;
        dup = pct rng 21;
        crash = (if Dynet.Rng.bool rng then pct rng 9 else 0.);
        restart = float_of_int (25 + Dynet.Rng.int rng 76) /. 100.;
        max_delay = Dynet.Rng.int rng 3;
        fault_seed = None;
      }

(* The differential pairing is a case dimension too.  Pair 0 (a
   quarter of the corpus) runs Reference-vs-Default, the pseudocode
   check.  Pairs 1-3 run Soa-vs-Default at shard counts 1, 2 and 4:
   for broadcast they check the plane kernel against the fastpath
   kernel; for unicast, where Default and Soa share one loop, they
   check its shard-count independence, faulty runs included.  Every
   campaign thus exercises real multi-domain barriers on the same
   tiny instances.  Drawn from a salted stream so adding the
   dimension shifted no case input. *)
let engine_pair ~seed ~id =
  let rng = Dynet.Rng.make ~seed:(case_seed ~seed ~id lxor 0x50a) in
  match Dynet.Rng.int rng 4 with
  | 0 -> (Engine.Reference.engine, Engine.Default.engine)
  | 1 -> (Engine.Soa.engine (), Engine.Default.engine)
  | 2 -> (Engine.Soa.engine ~shards:2 (), Engine.Default.engine)
  | _ -> (Engine.Soa.engine ~shards:4 (), Engine.Default.engine)

let case ~seed ~id =
  let cseed = case_seed ~seed ~id in
  let rng = Dynet.Rng.make ~seed:cseed in
  let n = 2 + Dynet.Rng.int rng 9 in
  let k = 1 + Dynet.Rng.int rng 6 in
  let algo =
    match Dynet.Rng.int rng 3 with
    | 0 -> Case.Flooding
    | 1 -> Case.Single_source
    | _ -> Case.Multi_source
  in
  let s =
    match algo with
    | Case.Multi_source -> 1 + Dynet.Rng.int rng (min n k)
    | Case.Flooding | Case.Single_source -> 1
  in
  let rounds = rounds rng ~n in
  let faults = faults rng in
  let max_rounds = Some (8 + Dynet.Rng.int rng 120) in
  { Case.id; algo; n; k; s; seed = cseed; max_rounds; faults; rounds }
