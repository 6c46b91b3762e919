(** Declarative scenario specifications.

    A scenario spec is one JSON object that names everything a run
    needs — algorithm, environment (a built-in adversary family or a
    recorded trace), instance shape [(n, k, s)], fault plan, seed and
    repeat count — so experiments are files that can be versioned,
    validated, and executed by {!Runner} (or
    [dynspread scenario run]) instead of code in
    [lib/analysis/experiments.ml].

    Schema ([dynspread-scenario/v1]):
    {v
    { "schema": "dynspread-scenario/v1",
      "name": "p2p-churn",                  // labels the run reports
      "algorithm": "multi-source",          // flooding | single-source
                                            // | multi-source | oblivious-rw
      "env": { "family": "rewiring",        // or: static, tree-rotator,
               "rate": 0.1 },               //   edge-markovian, fresh-random,
                                            //   request-cutter,
                                            //   trace (+ "path")
      "sigma": 3,                           // edge-stability (default 1)
      "n": 24, "k": 48, "s": 6,             // instance (s defaults 1;
                                            // n comes from the trace when
                                            // env is a trace)
      "seed": 7, "repeats": 2,              // repeat i runs with seed + i
      "faults": { "loss": 0.1 },            // optional Faults.Plan fields
      "max_rounds": 10000 }                 // optional cap override
    v}

    Validation is strict and actionable: unknown fields, out-of-range
    values, and inconsistent combinations (a broadcast algorithm with
    the unicast-only request-cutter, a fault plan on Algorithm 2) are
    each reported with the field name and the accepted values — the
    CLI turns the error list into its exit-2 usage discipline. *)

type algorithm = Flooding | Single_source | Multi_source | Oblivious_rw

type env =
  | Trace of { path : string }
      (** A recorded/imported {!Trace_io} file; relative paths resolve
          against the spec file's directory. *)
  | Static of { p : float }
  | Tree_rotator
  | Rewiring of { extra : int option; rate : float }
      (** [extra] defaults to [n] at run time. *)
  | Edge_markovian of { p_up : float option; p_down : float }
      (** [p_up] defaults to [2/n] at run time. *)
  | Fresh_random of { p : float }
  | Request_cutter of { cut_prob : float }

type faults = {
  loss : float;
  dup : float;
  crash : float;
  restart : float;
  max_delay : int;
  fault_seed : int option;  (** Default: the repeat's seed. *)
}

type t = {
  name : string;
  algorithm : algorithm;
  env : env;
  sigma : int;
  n : int option;
  k : int;
  s : int;
  seed : int;
  repeats : int;
  faults : faults option;
  max_rounds : int option;
}

val schema_name : string
(** ["dynspread-scenario/v1"]. *)

val algorithm_name : algorithm -> string
val env_family : env -> string

val sigma_error : env -> sigma:int -> string option
(** Why [sigma] cannot apply to [env], if it cannot: stability above 1
    is enforced on the generated oblivious families only, so it is
    refused for the request-cutter (adaptive), fresh-random (every
    round a fresh draw) and traces (replayed as recorded).  A static
    graph is stable for any [sigma]. *)

val of_json : Obs.Json.t -> (t, string list) result
(** Validate one parsed document; [Error] carries {e every} problem
    found, each message naming its field. *)

val of_string : string -> (t, string list) result

val load : string -> (t, string list) result
(** Read and validate a spec file (IO and JSON-syntax problems come
    back as a single-element error list). *)

val to_json : t -> Obs.Json.t
(** Round-trips through {!of_json}; optional fields at their defaults
    are omitted. *)
