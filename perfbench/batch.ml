(* fresh-flood and trace-unicast: a closed loop of jobs
   through the [Scenario.Runner] path behind `dynspread scenario run`,
   on one domain.  A job is [Runner.run_prepared ~jobs:1] plus the JSON
   encoding of every report, i.e. the bytes `scenario run` prints. *)

open Scenario

let load () =
  match Spec.load Workload.batch_spec_file with
  | Error errs -> failwith (String.concat "; " errs)
  | Ok spec -> (
      match Runner.prepare ~base_dir:"." spec with
      | Ok p -> p
      | Error e -> failwith e)

let encode r = Obs.Json.to_string (Obs.Report.to_json r)

let same_lines a b =
  Array.length a = Array.length b && Array.for_all2 String.equal a b

(* One job; returns its lines and its time.  Each job starts from a
   compacted heap, as a fresh `scenario run` process would. *)
let job ?engine ?prof p =
  Gc.compact ();
  let t0 = Common.now () in
  let reports = Runner.run_prepared ~jobs:1 ?prof ?engine p in
  let lines = Array.map encode reports in
  (lines, Common.ms_since t0)

(* A report is good when it completed with full coverage and, for the
   token-forwarding algorithms, every node learnt every token it
   lacked. *)
let report_ok (p : Runner.prepared) (r : Obs.Report.t) =
  r.completed
  && (match List.assoc_opt "outcome" r.extra with
     | Some (Obs.Json.String "completed") -> true
     | _ -> false)
  && (p.spec.algorithm = Spec.Oblivious_rw
     || r.learnings = (p.n - 1) * p.spec.k)

(* The reference job, run untimed: later jobs must reproduce its bytes
   exactly. *)
let reference ?engine p =
  let reports = Runner.run_prepared ~jobs:1 ?engine p in
  (Array.map encode reports, Array.for_all (report_ok p) reports)

let run_untraced kind ~seconds =
  let engine = Workload.engine kind in
  let setup_s =
    Common.median_call_s ~samples:11 ~min_sample_s:0.05 (fun () ->
        ignore (Sys.opaque_identity (load ())))
  in
  let p = load () in
  let expected, ok = reference ?engine p in
  let attempted = ref 1 and failed = ref (if ok then 0 else 1) in
  let jobs = ref [] in
  let start = Common.now () in
  while Common.now () -. start < seconds do
    let lines, ms = job ?engine p in
    incr attempted;
    if not (same_lines lines expected) then incr failed;
    jobs := ms :: !jobs
  done;
  let window = Common.now () -. start in
  {
    Common.attempted = !attempted;
    failed = !failed;
    metrics =
      [
        Common.metric "job_ms" "ms" (Common.median !jobs);
        Common.metric "jobs_per_s" "1/s"
          (float_of_int (List.length !jobs) /. window);
        Common.metric "setup_s" "s" setup_s;
        Common.metric "peak_rss_mb" "MB" (Common.vmhwm_mb ());
      ];
    notes = [ Common.summary "job_ms" !jobs ];
  }

(* The traced run: a quarter of the time untraced (the base), then
   traced jobs, each followed by its layer-by-layer breakdown. *)
let run_traced kind ~seconds =
  let engine = Workload.engine kind in
  let samples = Common.Samples.create () in
  let p = load () in
  let expected, ok = reference ?engine p in
  let attempted = ref 1 and failed = ref (if ok then 0 else 1) in
  let check good =
    incr attempted;
    if not good then incr failed
  in
  let start = Common.now () in
  while Common.now () -. start < seconds /. 4. do
    let lines, ms = job ?engine p in
    check (same_lines lines expected);
    Common.Samples.add samples "traced.base_job_ms" ms
  done;
  let traced_jobs = ref 0 in
  while !traced_jobs = 0 || Common.now () -. start < seconds do
    incr traced_jobs;
    let lines, ms = job ?engine ~prof:(Obs.Span.create ()) p in
    check (same_lines lines expected);
    Common.Samples.add samples "traced.job_ms" ms;
    let acc = Hashtbl.create 32 in
    Array.iteri
      (fun i seed ->
        check
          (Layers.measure_repeat ?engine ~events:false acc p ~seed
             ~expected:expected.(i)))
      p.seeds;
    Layers.record samples acc
  done;
  Common.Samples.add samples "traced.overhead"
    (Common.Samples.median samples "traced.job_ms"
    /. Common.Samples.median samples "traced.base_job_ms");
  Common.Samples.add samples "scenario.prepare_ms"
    (1000.
    *. Common.median_call_s ~samples:5 ~min_sample_s:0.05 (fun () ->
           ignore (Sys.opaque_identity (load ()))));
  Common.Samples.add samples "scenario.trace_kb"
    (match p.spec.env with
    | Spec.Trace { path } -> float_of_int (Unix.stat path).Unix.st_size /. 1024.
    | _ -> 0.);
  let m = Common.Samples.median samples in
  let share name = 100. *. m name /. m "traced.job_ms" in
  {
    Common.attempted = !attempted;
    failed = !failed;
    metrics = Layers.metrics samples;
    notes =
      [
        Printf.sprintf
          "tracing overhead %.3fx: traced job_ms %.2f over untraced %.2f (%d \
           and %d jobs)"
          (m "traced.overhead") (m "traced.job_ms") (m "traced.base_job_ms")
          !traced_jobs
          (List.length
             (Option.value
                (Hashtbl.find_opt samples "traced.base_job_ms")
                ~default:[]));
        Printf.sprintf
          "layer split of traced job_ms: adversary.gen_ms %.1f%%, \
           engine.run_ms %.1f%%, obs.encode_ms %.1f%%"
          (share "adversary.gen_ms") (share "engine.run_ms")
          (share "obs.encode_ms");
        Printf.sprintf
          "end-to-end %.4f ms/round vs engine-only %.4f ms/round"
          (m "traced.job_ms" /. m "gossip.rounds")
          (m "engine.ms_per_round");
      ];
  }
