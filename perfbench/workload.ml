(* The three workloads and the seeded inputs each one runs.

   [gen] writes every input the program will see — dynspread-scenario/v1
   spec files, and for trace-unicast a recorded trace — into a fresh
   directory before anything is timed.  The same seed gives the same
   files. *)

open Scenario

type kind = Fresh_flood | Trace_unicast | Serve_mix

let all =
  [
    ("fresh-flood", Fresh_flood);
    ("trace-unicast", Trace_unicast);
    ("serve-mix", Serve_mix);
  ]

let of_name s = List.assoc_opt s all

(* Batch workloads run one spec per job, each job on one domain. *)
let batch_spec_file = "job.json"

let trace_file = "tree-rotator.trace"

(* The trace covers about the rounds one multi-source run needs, so a
   replay rarely wraps. *)
let trace_rounds = 4000

(* serve-mix rotates over four algorithm/env kinds, each at eight
   seeds, so one seed's easy or hard instance moves a run's mix
   little. *)
let kinds = 4

let seeds_per_kind = 8

let pool_size = seeds_per_kind * kinds

let pool_file i = Printf.sprintf "pool-%d.json" i

(* SoA with one shard for fresh-flood, so the job runs on one domain
   and the adversary, not the engine, dominates it.  trace-unicast and
   serve-mix use the default engine. *)
let engine = function
  | Fresh_flood -> Some (Engine.Soa.engine ~shards:1 ())
  | Trace_unicast | Serve_mix -> None

let spec ?(s = 1) ?(sigma = 1) ?faults ~name ~algorithm ~env ~n ~k ~seed
    ~repeats () =
  {
    Spec.name;
    algorithm;
    env;
    sigma;
    n;
    k;
    s;
    seed;
    repeats;
    faults;
    max_rounds = None;
  }

(* trace-unicast runs four repeats a job: one instance's rounds vary by
   up to 7% with its seed, and the job's sum of four varies half as
   much. *)
let batch_spec kind ~seed =
  match kind with
  | Fresh_flood ->
      spec ~name:"fresh-flood" ~algorithm:Spec.Flooding
        ~env:(Spec.Fresh_random { p = 0.25 })
        ~n:(Some 80) ~k:16 ~seed ~repeats:1 ()
  | Trace_unicast ->
      spec ~name:"trace-unicast" ~algorithm:Spec.Multi_source
        ~env:(Spec.Trace { path = trace_file })
        ~n:None ~k:256 ~s:8 ~seed ~repeats:4 ()
  | Serve_mix -> invalid_arg "Workload.batch_spec: serve-mix has a pool"

(* Small specs (n <= 24, two repeats each); spec [i] is kind
   [i mod kinds].  The serve client decides which submits stream
   events. *)
let pool_spec i ~seed =
  let seed = seed + (1000 * i) in
  let rewiring = Spec.Rewiring { extra = None; rate = 0.1 } in
  match i mod kinds with
  | 0 ->
      spec ~name:"mix-flood" ~algorithm:Spec.Flooding
        ~env:(Spec.Fresh_random { p = 0.25 })
        ~n:(Some 24) ~k:16 ~seed ~repeats:2 ()
  | 1 ->
      spec ~name:"mix-single" ~algorithm:Spec.Single_source
        ~env:Spec.Tree_rotator ~n:(Some 24) ~k:16 ~seed ~repeats:2 ()
  | 2 ->
      spec ~name:"mix-multi" ~algorithm:Spec.Multi_source ~env:rewiring
        ~faults:
          {
            Spec.loss = 0.1;
            dup = 0.;
            crash = 0.;
            restart = 0.;
            max_delay = 2;
            fault_seed = None;
          }
        ~n:(Some 24) ~k:16 ~s:4 ~seed ~repeats:2 ()
  | _ ->
      spec ~name:"mix-rw" ~algorithm:Spec.Oblivious_rw ~env:rewiring
        ~n:(Some 24) ~k:16 ~s:4 ~seed ~repeats:2 ()

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let write_spec dir file spec =
  write_file (Filename.concat dir file)
    (Obs.Json.to_string (Spec.to_json spec) ^ "\n")

(* A σ = 3 tree-rotator schedule (n = 64) recorded at the workload seed. *)
let record_trace dir ~seed =
  let schedule =
    match
      Runner.builtin_schedule ~env:Spec.Tree_rotator ~sigma:3 ~n:64 ~seed
    with
    | Some s -> s
    | None -> assert false
  in
  let trace =
    Record.of_schedule ~seed ~provenance:"perfbench tree-rotator sigma=3"
      ~rounds:trace_rounds schedule
  in
  match Trace_io.save (Filename.concat dir trace_file) trace with
  | Ok () -> ()
  | Error e -> failwith e

let gen kind ~seed ~dir =
  match kind with
  | Serve_mix ->
      for i = 0 to pool_size - 1 do
        write_spec dir (pool_file i) (pool_spec i ~seed)
      done
  | Trace_unicast ->
      record_trace dir ~seed;
      write_spec dir batch_spec_file (batch_spec kind ~seed)
  | Fresh_flood ->
      write_spec dir batch_spec_file (batch_spec kind ~seed)
