(* Perf-baseline compare: parse the bench harness's
   dynspread-bench/v1 summary and diff two of them under a percentage
   tolerance.  Lives in the library (not bench/main.ml) so the parsing
   and the regression rule are unit-testable without running Bechamel. *)

let schema_name = "dynspread-bench/v1"

type entry = { name : string; value : float }

type t = {
  seed : int;
  shards : int;
  benchmarks : entry list;
  experiments : entry list;
}
type kind = Benchmark | Experiment

let kind_name = function
  | Benchmark -> "benchmark"
  | Experiment -> "experiment"

type delta = {
  kind : kind;
  entry_name : string;
  baseline : float;
  current : float;
  pct : float;
}

type comparison = {
  tolerance_pct : float;
  regressions : delta list;
  improvements : delta list;
  within : int;
  missing : (kind * string) list;
}

(* {2 Parsing} *)

let entries_of ~value_field json =
  match json with
  | Obs.Json.List items ->
      let entry j =
        match (Obs.Json.member "name" j, Obs.Json.member value_field j) with
        | Some (Obs.Json.String name), Some v -> (
            match Obs.Json.to_float_opt v with
            | Some value when Float.is_finite value -> Ok (Some { name; value })
            (* ns_per_run is null when Bechamel produced no estimate —
               an entry we can neither baseline nor regress against. *)
            | Some _ | None -> Ok None)
        | _ -> Error ("malformed entry (needs name + " ^ value_field ^ ")")
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> (
            match entry j with
            | Error e -> Error e
            | Ok None -> collect acc rest
            | Ok (Some e) -> collect (e :: acc) rest)
      in
      collect [] items
  | _ -> Error "expected a JSON array"

let of_json json =
  match Obs.Json.member "schema" json with
  | Some (Obs.Json.String s) when String.equal s schema_name -> (
      let int_field name ~default =
        match Obs.Json.member name json with
        | Some j -> Option.value (Obs.Json.to_int j) ~default
        | None -> default
      in
      let seed = int_field "seed" ~default:0 in
      (* Summaries written before the SoA engine carry no shard count;
         they were all sequential, so 1 is the faithful reading. *)
      let shards = int_field "shards" ~default:1 in
      let field name =
        Option.value (Obs.Json.member name json) ~default:(Obs.Json.List [])
      in
      match
        ( entries_of ~value_field:"ns_per_run" (field "benchmarks"),
          entries_of ~value_field:"seconds" (field "experiments") )
      with
      | Ok benchmarks, Ok experiments ->
          Ok { seed; shards; benchmarks; experiments }
      | Error e, _ -> Error ("benchmarks: " ^ e)
      | _, Error e -> Error ("experiments: " ^ e))
  | Some (Obs.Json.String s) ->
      Error (Printf.sprintf "schema %S is not %S" s schema_name)
  | Some _ | None -> Error ("missing schema field (expected " ^ schema_name ^ ")")

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | content -> (
      match Obs.Json.of_string content with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok json -> (
          match of_json json with
          | Error e -> Error (path ^ ": " ^ e)
          | Ok t -> Ok t))

(* {2 Diffing} *)

let find name entries =
  List.find_opt (fun e -> String.equal e.name name) entries

(* Time-like metrics in both sections: bigger is worse.  Baseline
   entries missing from the current run are reported (a silently
   vanished benchmark must not read as "no regression"); entries only
   in the current run are new coverage and compare against nothing.
   [floor] is a per-kind noise band: when both sides sit under it the
   entry is within tolerance regardless of percentage — a 9 ms
   experiment can swing 3x from scheduler noise alone, and a
   percentage rule on it would make the CI gate flaky. *)
let diff ?(floor = fun _ -> 0.) ~tolerance_pct ~baseline ~current () =
  let one kind base cur (regs, imps, within, missing) =
    List.fold_left
      (fun (regs, imps, within, missing) b ->
        match find b.name cur with
        | None -> (regs, imps, within, (kind, b.name) :: missing)
        | Some c ->
            let noise = b.value < floor kind && c.value < floor kind in
            let pct =
              if noise || b.value <= 0. then 0.
              else (c.value -. b.value) /. b.value *. 100.
            in
            let d =
              {
                kind;
                entry_name = b.name;
                baseline = b.value;
                current = c.value;
                pct;
              }
            in
            if pct > tolerance_pct then (d :: regs, imps, within, missing)
            else if pct < -.tolerance_pct then
              (regs, d :: imps, within, missing)
            else (regs, imps, within + 1, missing))
      (regs, imps, within, missing)
      base
  in
  let regs, imps, within, missing =
    one Experiment baseline.experiments current.experiments
      (one Benchmark baseline.benchmarks current.benchmarks ([], [], 0, []))
  in
  {
    tolerance_pct;
    regressions = List.rev regs;
    improvements = List.rev imps;
    within;
    missing = List.rev missing;
  }

let regressed c = c.regressions <> [] || c.missing <> []

let render_delta d =
  Printf.sprintf "%s %s: %+.1f%% (%.4g -> %.4g)" (kind_name d.kind)
    d.entry_name d.pct d.baseline d.current

let render c =
  let header =
    Printf.sprintf
      "baseline compare (tolerance %.0f%%): %d regressed, %d improved, %d \
       within tolerance, %d missing"
      c.tolerance_pct
      (List.length c.regressions)
      (List.length c.improvements)
      c.within
      (List.length c.missing)
  in
  header
  :: List.map (fun d -> "  REGRESSED " ^ render_delta d) c.regressions
  @ List.map (fun d -> "  improved  " ^ render_delta d) c.improvements
  @ List.map
      (fun (k, n) ->
        Printf.sprintf "  MISSING   %s %s (in baseline, not in this run)"
          (kind_name k) n)
      c.missing
