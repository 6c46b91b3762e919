open! Dynet.Ops

type mismatch = {
  case : Case.t;
  shrunk : Case.t;
  detail : string;
  shrink_stats : Shrink.stats;
}

type outcome = { runs : int; mismatches : mismatch list }

let run ?engine_b ?flooding_b ?jobs ?metrics ?prof ?shrink_budget
    ~runs ~seed () =
  let results =
    Analysis.Sweep.map_span ?jobs ?prof ~name:"fuzz"
      (fun ~prof id ->
        let case = Gen.case ~seed ~id in
        (* Pairing per case unless the b side is pinned; the a side is
           always the Reference oracle. *)
        let engine_a, engine_b =
          match engine_b with
          | None -> Gen.engine_pair ~seed ~id
          | Some b -> (Engine.Reference.engine, b)
        in
        match Diff.check ?flooding_b ~prof ~engine_a ~engine_b case with
        | None -> None
        | Some detail ->
            (* Shrink inside the worker: the predicate re-executes the
               candidate through both engines (unprofiled — hundreds
               of small runs), so minimization of case i overlaps the
               scanning of later cases. *)
            let fails c =
              Option.is_some (Diff.check ?flooding_b ~engine_a ~engine_b c)
            in
            let shrunk, shrink_stats =
              Shrink.minimize ?budget:shrink_budget ~fails case
            in
            Some { case; shrunk; detail; shrink_stats })
      (Array.init runs (fun i -> i))
  in
  let mismatches = List.filter_map (fun x -> x) (Array.to_list results) in
  (* The metrics registry is touched by the calling domain only, after
     the sweep has joined — same discipline as Sweep itself. *)
  (match metrics with
  | None -> ()
  | Some ms ->
      Obs.Metrics.incr ms ~by:runs "fuzz/cases";
      Obs.Metrics.incr ms ~by:(List.length mismatches) "fuzz/mismatches";
      Obs.Metrics.incr ms
        ~by:
          (List.fold_left
             (fun acc m -> acc + m.shrink_stats.Shrink.evaluated)
             0 mismatches)
        "fuzz/shrink_steps");
  { runs; mismatches }

(* {2 Corpus output} *)

let rec mkdir_p dir =
  if
    String.equal dir "" || String.equal dir "." || String.equal dir "/"
    || Sys.file_exists dir
  then ()
  else begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let save_mismatch ~dir m =
  let base = Printf.sprintf "case-%d" m.shrunk.Case.seed in
  let trace_name = base ^ ".trace.jsonl" in
  let spec_name = base ^ ".scenario.json" in
  write_file
    (Filename.concat dir trace_name)
    (Scenario.Trace_io.to_string (Case.to_trace m.shrunk));
  write_file
    (Filename.concat dir spec_name)
    (Obs.Json.to_string
       (Scenario.Spec.to_json (Case.to_spec m.shrunk ~trace_path:trace_name))
    ^ "\n");
  spec_name

let save_corpus ~dir outcome =
  match outcome.mismatches with
  | [] -> []
  | ms ->
      mkdir_p dir;
      List.map (fun m -> save_mismatch ~dir m) ms
