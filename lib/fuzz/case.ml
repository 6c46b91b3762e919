open! Dynet.Ops

type algo = Flooding | Single_source | Multi_source

type t = {
  id : int;
  algo : algo;
  n : int;
  k : int;
  s : int;
  seed : int;
  max_rounds : int option;
  faults : Scenario.Spec.faults option;
  rounds : Dynet.Graph.t list;
}

let algo_name = function
  | Flooding -> "flooding"
  | Single_source -> "single-source"
  | Multi_source -> "multi-source"

let period t = List.length t.rounds

let without_edge g i =
  let keys = Dynet.Graph.edges g in
  Dynet.Graph.make ~n:(Dynet.Graph.n g)
    (Array.append (Array.sub keys 0 i)
       (Array.sub keys (i + 1) (Array.length keys - i - 1)))

(* The label names engine-independent inputs only, so the two engines'
   reports can be compared byte for byte. *)
let label t =
  Printf.sprintf "fuzz/%s/n=%d/k=%d/s=%d/seed=%d" (algo_name t.algo) t.n t.k
    t.s t.seed

let to_trace t =
  Scenario.Trace_io.of_graphs ~seed:t.seed ~provenance:"fuzz" ~n:t.n t.rounds

let stall_after t =
  Scenario.Runner.stall_window ~period:(period t) ~n:t.n ~k:t.k

let spec_algorithm = function
  | Flooding -> Scenario.Spec.Flooding
  | Single_source -> Scenario.Spec.Single_source
  | Multi_source -> Scenario.Spec.Multi_source

let to_spec t ~trace_path : Scenario.Spec.t =
  {
    name = Printf.sprintf "fuzz-%d" t.seed;
    algorithm = spec_algorithm t.algo;
    env = Scenario.Spec.Trace { path = trace_path };
    sigma = 1;
    n = Some t.n;
    k = t.k;
    s = t.s;
    seed = t.seed;
    repeats = 1;
    faults = t.faults;
    max_rounds = t.max_rounds;
  }

(* Scenario.Runner's own builders, so a saved counterexample
   reproduces through [dynspread scenario run]. *)
let instance t =
  Scenario.Runner.instance_of (spec_algorithm t.algo) ~n:t.n ~k:t.k ~s:t.s
    ~seed:t.seed

let fault_plan t = Scenario.Runner.fault_plan t.faults ~seed:t.seed

let of_spec (spec : Scenario.Spec.t) ~trace =
  let algo =
    match spec.algorithm with
    | Scenario.Spec.Flooding -> Ok Flooding
    | Scenario.Spec.Single_source -> Ok Single_source
    | Scenario.Spec.Multi_source -> Ok Multi_source
    | Scenario.Spec.Oblivious_rw ->
        Error "oblivious-rw is not a differential-fuzz algorithm"
  in
  match algo with
  | Error e -> Error e
  | Ok algo ->
      let n = trace.Scenario.Trace_io.header.n in
      if Scenario.Trace_io.rounds trace < 1 then
        Error "trace has no rounds"
      else
        let rounds =
          List.rev
            (Scenario.Trace_io.fold_graphs trace ~init:[]
               ~f:(fun acc ~round:_ g -> g :: acc))
        in
        Ok
          {
            id = 0;
            algo;
            n;
            k = spec.k;
            s = spec.s;
            seed = spec.seed;
            max_rounds = spec.max_rounds;
            faults = spec.faults;
            rounds;
          }

let connected t =
  List.for_all Dynet.Graph.is_connected t.rounds
