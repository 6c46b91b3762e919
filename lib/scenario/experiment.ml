open Dynet.Ops

let sample_contacts =
  {csv|# office badge-proximity contacts, one working morning
# t,u,v,duration  (seconds; 20 s sampling resolution)
28800,101,110,20
28801,102,101,20
28801,102,105,20
28803,110,102,20
28804,105,102,20
28809,103,108,60
28810,120,124,60
28811,110,103,20
28811,124,112,40
28815,117,107,60
28817,107,121,20
28817,112,117,20
28818,101,117,60
28818,105,120,40
28818,115,102,20
28818,121,115,60
28819,115,110,20
28822,103,105,40
28822,110,120,20
28822,115,110,20
28824,101,115,60
28828,112,107,60
28829,117,101,60
28829,120,108,60
28830,103,108,40
28831,121,112,20
28833,102,124,20
28834,124,103,40
28838,108,121,60
28839,107,102,60
28840,107,120,60
28840,112,102,20
28844,102,117,20
28844,115,108,20
28845,103,110,20
28847,105,101,20
28848,110,105,40
28852,102,103,20
28852,120,124,60
28852,121,107,20
28853,101,112,40
28853,112,110,40
28854,117,103,60
28855,124,110,60
28858,108,121,20
28859,115,107,40
28862,112,121,20
28863,107,115,60
28863,115,102,40
28864,102,105,40
28864,121,102,20
28865,117,110,20
28866,101,102,60
28866,120,108,40
28868,115,124,60
28871,103,112,40
28874,108,117,60
28875,105,101,20
28875,110,107,40
28876,124,103,40
28880,103,108,40
28882,124,121,20
28886,101,105,60
28886,107,102,40
28886,115,107,40
28886,117,101,60
28887,110,124,20
28887,112,103,60
28891,102,120,20
28891,110,121,20
28894,108,115,40
28895,105,110,40
28895,124,105,40
28899,121,112,20
28902,115,108,20
28905,120,102,20
28914,107,101,60
28920,103,101,40
28924,110,124,20
28926,102,115,20
28926,103,110,40
28928,108,120,60
28931,112,117,60
28934,121,112,20
28936,105,110,20
28936,115,121,20
28936,120,121,20
28937,117,103,20
28938,107,102,40
28938,115,108,60
28939,124,107,20
28942,101,107,60
28942,120,121,20
28947,117,101,60
28948,103,124,60
28949,121,103,20
28950,102,112,20
28950,115,112,20
28952,115,110,60
28953,112,120,20
28954,110,108,20
28956,105,107,60
28956,105,117,20
28956,107,102,40
28957,101,102,20
28957,108,105,20
28960,105,102,40
28961,120,105,20
28962,103,124,40
28963,115,112,20
28963,117,115,20
28968,120,103,40
28968,121,108,20
28971,103,121,40
28972,101,110,40
28972,110,105,40
28973,102,107,20
28974,108,120,20
28976,110,115,40
28976,112,101,20
28977,107,121,60
28980,120,110,40
28980,124,107,20
28981,102,117,20
28981,121,117,20
28983,103,124,20
28985,105,121,20
28988,101,115,20
28988,102,107,20
28988,105,102,20
28988,117,101,40
28989,107,120,40
28989,112,103,60
28990,102,105,60
28994,101,120,20
28996,108,112,20
28996,115,108,20
29001,105,121,20
29002,105,108,40
29004,101,124,60
29004,103,117,20
29005,117,107,40
29007,124,103,20
29008,121,105,40
29009,110,102,20
29010,121,120,40
29011,102,121,20
29012,107,120,40
29013,105,112,20
29014,112,115,20
29014,120,108,20
29019,108,110,20
29022,110,115,40
29022,124,117,20
29027,102,112,20
29040,120,103,20
29040,121,112,60
29041,101,117,60
29041,108,103,20
29042,107,120,20
29042,121,115,20
29042,124,108,40
29051,112,105,20
29052,115,102,60
29055,120,124,40
29055,124,101,40
29056,102,108,20
29056,103,107,20
29056,121,117,20
29057,117,110,20
29058,105,121,20
29060,107,102,60
29061,108,101,60
29062,101,117,20
29066,112,120,60
29068,110,115,20
29069,103,108,20
29069,115,112,40
29069,120,124,20
29069,124,121,60
29070,102,103,40
29074,117,110,60
29074,117,120,20
29075,121,105,20
29077,120,105,20
29080,103,121,20
29080,105,110,60
29080,115,102,40
29080,120,115,40
29082,121,120,60
29083,112,115,40
29083,120,108,20
29087,101,124,60
29088,121,108,40
29089,107,112,20
29090,117,101,60
29092,110,107,40
29092,124,105,20
29093,108,117,40
29094,107,102,60
29095,103,117,60
29101,105,121,20
29102,101,120,20
29103,120,101,20
29105,107,110,60
29105,121,112,20
29106,124,110,60
29108,112,103,40
29109,105,108,60
29109,110,115,40
29109,115,108,60
29112,115,105,20
29113,102,120,60
29113,110,108,40
29117,101,107,20
29117,117,102,60
29117,124,117,20
29119,103,124,20
28803,103,103,20
28800,101,110,20
|csv}

let timed ?metrics id body = Obs.Span.observe_span ?metrics ~name:id body

let pass_fail ok = if ok then "PASS" else "FAIL"

(* {2 Points} *)

(* A loss or crash plan with its own seed; restart at the spec
   default. *)
let faults ?(loss = 0.) ?(crash = 0.) ~fault_seed () : Spec.faults =
  { loss; dup = 0.; crash; restart = 0.25; max_delay = 0;
    fault_seed = Some fault_seed }

(* One point: a one-repeat spec of [algorithm] on [env] at [(n, k, s)]
   and [seed], each table writing its own seed arithmetic into [seed]
   and the fault seed, run once through [Runner.execute] as
   [dynspread run] would; [trace] is a trace env's materialized
   trace. *)
let run_point ?reliable ?trace ?(sigma = 1) ?faults ~prof ~algorithm ~env ~n
    ~k ~s ~seed () =
  let spec : Spec.t =
    { name = "experiment"; algorithm; env; sigma; n = Some n; k; s; seed;
      repeats = 1; faults; max_rounds = None }
  in
  match Spec.validate spec with
  | Ok spec -> Runner.execute ?reliable ~prof ~trace ~n ~seed spec
  | Error errs ->
      invalid_arg ("Scenario.Experiment: " ^ String.concat "; " errs)

let engine_result = function
  | Runner.Engine_run { result; _ } -> result
  | Runner.Rw_run _ ->
      invalid_arg "Scenario.Experiment: Algorithm 2 has no engine result"

(* Rounds, completion and ledger of either kind of run. *)
let summary = function
  | Runner.Engine_run { result; _ } ->
      (result.Engine.Run_result.rounds, result.Engine.Run_result.completed,
       result.Engine.Run_result.ledger)
  | Runner.Rw_run r ->
      (r.Gossip.Oblivious_rw.phase1_rounds + r.Gossip.Oblivious_rw.phase2_rounds,
       r.Gossip.Oblivious_rw.completed, r.Gossip.Oblivious_rw.ledger)

(* {2 E4 + E5 — single source} *)

(* E4's environments: the one at index [i] runs at seed [seed + n + i];
   the round bound of Theorem 3.4 holds on the oblivious ones. *)
let single_source_envs =
  [
    ("static", Spec.Static { p = 0.15 }, 1, true);
    ("rotator-3st", Spec.Tree_rotator, 3, true);
    ("rewiring-3st", Spec.Rewiring { extra = None; rate = 0.3 }, 3, true);
    ("cutter-80", Spec.Request_cutter { cut_prob = 0.8 }, 1, false);
  ]

let single_source ?jobs ?metrics ?prof ~seed () =
  timed ?metrics "experiment/e4-single-source" @@ fun () ->
  let points =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun k ->
            List.mapi (fun i e -> (n, k, i, e)) single_source_envs)
          [ n / 2; n; 4 * n ])
      [ 16; 24; 32 ]
    |> Array.of_list
  in
  let outcomes =
    Analysis.Sweep.map_span ?jobs ?metrics ?prof ~name:"sweep/e4-point"
      (fun ~prof (n, k, i, (_, env, sigma, _)) ->
        run_point ~prof ~sigma ~algorithm:Spec.Single_source ~env ~n ~k ~s:1
          ~seed:(seed + n + i) ())
      points
  in
  let within_budget = ref true and within_rounds = ref true in
  let rows =
    Array.to_list
      (Array.map2
         (fun (n, k, _, (label, _, _, oblivious)) outcome ->
           let result = engine_result outcome in
           let ledger = result.Engine.Run_result.ledger in
           let budget = Gossip.Bounds.single_source_budget ~n ~k in
           let competitive = Engine.Ledger.competitive_cost ledger ~alpha:1. in
           let ratio = competitive /. budget in
           if ratio > 2. then within_budget := false;
           if oblivious && result.Engine.Run_result.rounds > (2 * n * k) + (2 * n)
           then within_rounds := false;
           [
             string_of_int n;
             string_of_int k;
             label;
             Analysis.Table.fint (Engine.Ledger.total ledger);
             Analysis.Table.fint (Engine.Ledger.tc ledger);
             Analysis.Table.ffloat competitive;
             Analysis.Table.fratio ratio;
             string_of_int result.Engine.Run_result.rounds;
             Analysis.Table.ffloat
               (Engine.Ledger.amortized_competitive ledger ~alpha:1. ~k);
           ])
         points outcomes)
  in
  Analysis.Table.make
    ~title:
      "E4/E5 (Theorems 3.1/3.4): Single-Source-Unicast, 1-adversary-\
       competitive cost vs the O(n^2 + nk) budget"
    ~columns:
      [ "n"; "k"; "environment"; "messages"; "TC"; "msgs - TC"; "vs budget";
        "rounds"; "amort (comp.)" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): (messages - TC) <= 2 (n^2 + nk) in every \
           environment, including the adaptive cutter"
          (pass_fail !within_budget);
        Printf.sprintf
          "shape check (%s): rounds <= 2nk + 2n on every 3-edge-stable \
           environment (Theorem 3.4)"
          (pass_fail !within_rounds);
        "amort (comp.) -> O(n) as k grows past n: the optimal amortized \
         complexity of Section 3.1;";
        "KT0 variant (Section 1.3 remark): without free neighbor-ID \
         knowledge, add <= 2 TC hello messages - also chargeable to the \
         adversary.";
      ]
    rows

(* {2 E6 — multi source} *)

let multi_source ?metrics ~seed () =
  timed ?metrics "experiment/e6-multi-source" @@ fun () ->
  let n = 24 and k = 96 in
  let ss = [| 1; 2; 4; 8; 16; 24 |] in
  let outcomes =
    Analysis.Sweep.map_span ~name:"sweep/e6-point"
      (fun ~prof s ->
        run_point ~prof ~sigma:3 ~algorithm:Spec.Multi_source
          ~env:Spec.Tree_rotator ~n ~k ~s ~seed:(seed + (2 * s)) ())
      ss
  in
  let within_budget = ref true in
  let rows =
    Array.to_list
      (Array.map2
         (fun s outcome ->
           let result = engine_result outcome in
           let ledger = result.Engine.Run_result.ledger in
           let budget = Gossip.Bounds.multi_source_budget ~n ~k ~s in
           let competitive = Engine.Ledger.competitive_cost ledger ~alpha:1. in
           if competitive > 2. *. budget then within_budget := false;
           [
             string_of_int s;
             Analysis.Table.fint (Engine.Ledger.total ledger);
             Analysis.Table.fint
               (Engine.Ledger.count ledger Engine.Msg_class.Completeness);
             Analysis.Table.fint (Engine.Ledger.count ledger Engine.Msg_class.Token);
             Analysis.Table.ffloat competitive;
             Analysis.Table.ffloat budget;
             Analysis.Table.fratio (competitive /. budget);
             string_of_int result.Engine.Run_result.rounds;
           ])
         ss outcomes)
  in
  Analysis.Table.make
    ~title:
      (Printf.sprintf
         "E6 (Theorems 3.5/3.6): Multi-Source-Unicast vs the O(n^2 s + nk) \
          budget (n = %d, k = %d, 3-edge-stable rotator)"
         n k)
    ~columns:
      [ "s"; "messages"; "announcements"; "tokens"; "msgs - TC"; "budget";
        "ratio"; "rounds" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): competitive cost <= 2 (n^2 s + nk) at every \
           source count"
          (pass_fail !within_budget);
        "announcements grow with s (each node announces completeness per \
         source) - the n^2 s term;";
        "token messages stay ~ nk regardless of s.";
      ]
    rows

(* {2 E9 — time vs messages} *)

let time_vs_messages ?metrics ~seed () =
  timed ?metrics "experiment/e9-time-vs-messages" @@ fun () ->
  let n = 24 in
  let k = n in
  let algorithms =
    [|
      ("flooding (local bcast)", Spec.Flooding);
      ("multi-source (unicast)", Spec.Multi_source);
      ("algorithm 2 (unicast)", Spec.Oblivious_rw);
    |]
  in
  (* n-gossip ([s = k = n]) on one dense fresh-random sequence. *)
  let outcomes =
    Analysis.Sweep.map_span ~name:"sweep/e9-point"
      (fun ~prof (_, algorithm) ->
        run_point ~prof ~algorithm ~env:(Spec.Fresh_random { p = 0.25 }) ~n
          ~k ~s:n ~seed:(seed + 1) ())
      algorithms
  in
  (* Algorithm 2 is charged its paper messages, sans center chatter. *)
  let costs =
    Array.map
      (fun outcome ->
        let rounds, _, ledger = summary outcome in
        match outcome with
        | Runner.Rw_run r -> (rounds, r.Gossip.Oblivious_rw.paper_messages)
        | Runner.Engine_run _ -> (rounds, Engine.Ledger.total ledger))
      outcomes
  in
  let argmin f =
    let best = ref 0 in
    Array.iteri (fun i c -> if f c < f costs.(!best) then best := i) costs;
    !best
  in
  let fastest = argmin fst and cheapest = argmin snd in
  let rows =
    Array.to_list
      (Array.map2
         (fun (label, _) (rounds, messages) ->
           [
             label;
             string_of_int rounds;
             Analysis.Table.fint messages;
             Analysis.Table.ffloat (float_of_int messages /. float_of_int k);
           ])
         algorithms costs)
  in
  Analysis.Table.make
    ~title:
      (Printf.sprintf
         "E9 (Section 1.2): time- vs message-efficiency on one instance \
          (n-gossip, n = %d, same oblivious schedule)"
         n)
    ~columns:[ "algorithm"; "rounds"; "messages"; "amortized" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): the round-efficient strategy is not the \
           message-efficient one: message-frugal algorithms trade silence \
           for time."
          (pass_fail (fastest <> cheapest));
      ]
    rows

(* {2 E15 — robustness tax: message loss} *)

let outcome_cell (result : Engine.Run_result.t) =
  match result.Engine.Run_result.outcome with
  | Engine.Run_result.Completed -> "completed"
  | Engine.Run_result.Partial _ as o -> (
      match Engine.Run_result.coverage o with
      | Some c -> Printf.sprintf "partial %.0f%%" (100. *. c)
      | None -> "partial")
  | Engine.Run_result.Stalled _ -> "stalled"
  | Engine.Run_result.Cancelled _ as o -> (
      match Engine.Run_result.coverage o with
      | Some c -> Printf.sprintf "cancelled %.0f%%" (100. *. c)
      | None -> "cancelled")
  | Engine.Run_result.Aborted _ -> "aborted"

let fault_count (result : Engine.Run_result.t) field =
  match result.Engine.Run_result.fault_counts with
  | None -> 0
  | Some c -> (
      match List.assoc_opt field (Faults.Counts.to_fields c) with
      | Some v -> v
      | None -> 0)

let inflation ~baseline v =
  if baseline = 0 then Float.nan else float_of_int v /. float_of_int baseline

let robustness_loss ?metrics ~seed () =
  timed ?metrics "experiment/e15-robustness-loss" @@ fun () ->
  let n = 16 and k = 16 in
  (* The same 3-edge-stable environment for every run: the sweep
     varies only the fault plan, so cost deltas are the robustness
     tax and nothing else.  Each rate runs bare, then wrapped. *)
  let losses = [ 0.; 0.05; 0.1; 0.2; 0.5; 0.8 ] in
  let points =
    Array.of_list
      (List.concat_map (fun loss -> [ (loss, false); (loss, true) ]) losses)
  in
  let outcomes =
    Analysis.Sweep.map_span ~name:"sweep/e15-point"
      (fun ~prof (loss, reliable) ->
        run_point ~reliable ~prof ~sigma:3 ~algorithm:Spec.Single_source
          ~env:Spec.Tree_rotator ~n ~k ~s:1 ~seed:(seed + 1)
          ~faults:
            (faults ~loss ~fault_seed:(seed + int_of_float (1000. *. loss)) ())
          ())
      points
  in
  let baseline_msgs = ref 0 in
  let reliable_all_complete = ref true in
  let coverage_dominates = ref true in
  let bare_degrades = ref false in
  let cov (r : Engine.Run_result.t) =
    Option.value
      (Engine.Run_result.coverage r.Engine.Run_result.outcome)
      ~default:0.
  in
  let rows =
    List.concat
      (List.mapi
         (fun i loss ->
           let bare = engine_result outcomes.(2 * i) in
           let reliable, retransmits =
             match outcomes.((2 * i) + 1) with
             | Runner.Engine_run { result; retransmits = Some rt; _ } ->
                 (result, rt)
             | Runner.Engine_run { retransmits = None; _ } | Runner.Rw_run _ ->
                 invalid_arg "E15: a wrapped run reports its retransmissions"
           in
           if Float.equal loss 0. then
             baseline_msgs := Engine.Run_result.messages bare;
           if loss <= 0.2 && not reliable.Engine.Run_result.completed then
             reliable_all_complete := false;
           if cov reliable < cov bare -. 1e-9 then coverage_dominates := false;
           if not bare.Engine.Run_result.completed then bare_degrades := true;
           let row variant (result : Engine.Run_result.t) retransmits =
             [
               Printf.sprintf "%.2f" loss;
               variant;
               outcome_cell result;
               Analysis.Table.fint (Engine.Run_result.messages result);
               string_of_int result.Engine.Run_result.rounds;
               string_of_int (fault_count result "drops");
               string_of_int retransmits;
               Analysis.Table.fratio
                 (inflation ~baseline:!baseline_msgs
                    (Engine.Run_result.messages result));
             ]
           in
           [ row "bare" bare 0; row "reliable" reliable retransmits ])
         losses)
  in
  Analysis.Table.make
    ~title:
      (Printf.sprintf
         "E15 (robustness tax): Single-Source-Unicast under message loss, \
          bare vs Reliable wrapper (n = %d, k = %d, 3-edge-stable rotator)"
         n k)
    ~columns:
      [ "loss"; "variant"; "outcome"; "messages"; "rounds"; "drops";
        "retransmits"; "msg inflation" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): the wrapper completes at every loss rate <= \
           0.2, never covers less than bare, and keeps making progress at \
           the extreme rate where bare collapses"
          (pass_fail
             (!reliable_all_complete && !coverage_dominates && !bare_degrades));
        "msg inflation = messages / clean-run bare messages: the price of \
         masking loss is acks + retransmissions, growing with the loss rate;";
        "bare Single-Source survives moderate loss by re-requesting (its \
         pending-request dedup resets on topology change) but deadlocks \
         under extreme loss - and then reports a Partial outcome with \
         coverage, not a bare failure bit.";
      ]
    rows

(* {2 E16 — robustness tax: crash-restart} *)

let robustness_crash ?metrics ~seed () =
  timed ?metrics "experiment/e16-robustness-crash" @@ fun () ->
  let n = 16 and k = 16 in
  let rates = [| 0.; 0.005; 0.01; 0.02 |] in
  let outcomes =
    Analysis.Sweep.map_span ~name:"sweep/e16-point"
      (fun ~prof crash ->
        run_point ~prof ~sigma:3 ~algorithm:Spec.Flooding
          ~env:Spec.Tree_rotator ~n ~k ~s:1 ~seed:(seed + 2)
          ~faults:
            (faults ~crash
               ~fault_seed:(seed + 17 + int_of_float (10000. *. crash))
               ())
          ())
      rates
  in
  let baseline = engine_result outcomes.(0) in
  let baseline_msgs = Engine.Run_result.messages baseline
  and baseline_rounds = baseline.Engine.Run_result.rounds in
  let crashes_seen = ref true and all_graceful = ref true in
  let rows =
    Array.to_list
      (Array.map2
         (fun crash outcome ->
           let result = engine_result outcome in
           if crash > 0. && fault_count result "crashes" = 0 then
             crashes_seen := false;
           (match Engine.Run_result.coverage result.Engine.Run_result.outcome with
           | Some c when c > 0. -> ()
           | _ -> all_graceful := false);
           [
             Printf.sprintf "%.3f" crash;
             outcome_cell result;
             Analysis.Table.fint (Engine.Run_result.messages result);
             string_of_int result.Engine.Run_result.rounds;
             string_of_int (fault_count result "crashes");
             string_of_int (fault_count result "restarts");
             Analysis.Table.fratio
               (inflation ~baseline:baseline_msgs
                  (Engine.Run_result.messages result));
             Analysis.Table.fratio
               (inflation ~baseline:baseline_rounds
                  result.Engine.Run_result.rounds);
           ])
         rates outcomes)
  in
  Analysis.Table.make
    ~title:
      (Printf.sprintf
         "E16 (robustness tax): phased flooding under crash-restart with \
          state loss (n = %d, k = %d, 3-edge-stable rotator, restart p = \
          0.25)"
         n k)
    ~columns:
      [ "crash rate"; "outcome"; "messages"; "rounds"; "crashes"; "restarts";
        "msg inflation"; "round inflation" ]
    ~notes:
      [
        Printf.sprintf
          "shape check (%s): the clean run completes, every faulty run \
           reports a positive coverage (no silent failure), and every \
           positive crash rate injects crashes"
          (pass_fail
             (baseline.Engine.Run_result.completed && !all_graceful
            && !crashes_seen));
        "a restarted node re-enters with its initial state, so flooding \
         re-teaches it every token it forgot: crash faults buy round and \
         message inflation rather than wrong answers.";
      ]
    rows

(* {2 E17 — a real-format trace} *)

let real_trace ?jobs ?metrics ~seed () =
  timed ?metrics "experiment/e17-real-trace" @@ fun () ->
  let trace, stats =
    match Contacts.import ~provenance:"import:office_contacts.csv" sample_contacts with
    | Ok r -> r
    | Error e -> invalid_arg ("E17: embedded contacts failed to import: " ^ e)
  in
  let n = trace.Trace_io.header.n in
  let k = n in
  let s_sources = 4 in
  let algorithms = [| Spec.Flooding; Spec.Multi_source; Spec.Oblivious_rw |] in
  let outcomes =
    Analysis.Sweep.map_span ?jobs ~name:"sweep/e17-point"
      (fun ~prof algorithm ->
        run_point ~trace ~prof ~algorithm
          ~env:(Spec.Trace { path = "office_contacts.csv" })
          ~n ~k ~s:s_sources ~seed ())
      algorithms
  in
  let results = Array.map summary outcomes in
  let rows =
    Array.to_list
      (Array.map2
         (fun algorithm (rounds, completed, ledger) ->
           [
             Spec.algorithm_name algorithm;
             string_of_int rounds;
             Analysis.Table.fint (Engine.Ledger.total ledger);
             Analysis.Table.ffloat (Engine.Ledger.amortized ledger ~k);
             (if completed then "yes" else "no");
           ])
         algorithms results)
  in
  let all_completed = Array.for_all (fun (_, completed, _) -> completed) results in
  let messages_of i =
    let _, _, ledger = results.(i) in
    Engine.Ledger.total ledger
  in
  let rounds_of i =
    let rounds, _, _ = results.(i) in
    rounds
  in
  let flooding_fastest =
    rounds_of 0 <= rounds_of 1 && rounds_of 0 <= rounds_of 2
  in
  let rw_cheaper = messages_of 2 < messages_of 1 in
  Analysis.Table.make
    ~title:
      (Printf.sprintf
         "E17: real-format contact trace (n=%d, k=%d, s=%d, %d imported rounds, looped)"
         n k s_sources (Trace_io.rounds trace))
    ~columns:[ "algorithm"; "rounds"; "messages"; "amortized/token"; "completed" ]
    ~notes:
      [
        Printf.sprintf
          "import: %d contacts, %d self-loops dropped, %d duplicates collapsed, %d out-of-order"
          stats.Contacts.contacts stats.Contacts.self_loops
          stats.Contacts.duplicates stats.Contacts.out_of_order;
        Printf.sprintf
          "repair: %d of %d rounds disconnected, %d edges added (workload altered by that much)"
          stats.Contacts.repaired_rounds stats.Contacts.imported_rounds
          stats.Contacts.repaired_edges;
        Printf.sprintf
          "shape check: all complete (%b), flooding fastest (%b), Algorithm 2 cheaper than plain multi-source (%b) -> %s"
          all_completed flooding_fastest rw_cheaper
          (if all_completed && flooding_fastest && rw_cheaper then "PASS"
           else "FAIL");
      ]
    rows

let all ?jobs ?metrics ~seed () =
  [
    single_source ?jobs ?metrics ~seed ();
    multi_source ?metrics ~seed ();
    time_vs_messages ?metrics ~seed ();
    robustness_loss ?metrics ~seed ();
    robustness_crash ?metrics ~seed ();
    real_trace ?jobs ?metrics ~seed ();
  ]
