(* perfbench: the dynspread benchmark.

     bench.exe gen --workload W --seed N --dir DIR
       write the workload's seeded inputs (spec files, recorded trace)
     bench.exe run --workload W --seconds S --trace 0|1 --dir DIR --cli EXE
       measure in DIR; the last stdout line is the JSON result

   run.py builds this program and drives both steps; see README.md. *)

let usage () =
  prerr_endline
    "usage: bench.exe gen --workload W --seed N --dir DIR\n\
    \       bench.exe run --workload W --seconds S --trace 0|1 --dir DIR \
     --cli EXE";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        opts ((key, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let cmd, opts =
    match args with
    | _ :: cmd :: rest -> (cmd, opts [] rest)
    | _ -> usage ()
  in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some i -> i | None -> usage ()
  in
  let name = get "--workload" in
  let kind = match Workload.of_name name with Some k -> k | None -> usage () in
  match cmd with
  | "gen" -> Workload.gen kind ~seed:(int "--seed") ~dir:(get "--dir")
  | "run" ->
      let seconds = float_of_int (int "--seconds") in
      let traced =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let cli = get "--cli" in
      Sys.chdir (get "--dir");
      let outcome =
        match (kind, traced) with
        | Workload.Serve_mix, false -> Serve_mix.run_untraced ~cli ~seconds
        | Workload.Serve_mix, true -> Serve_mix.run_traced ~cli ~seconds
        | _, false -> Batch.run_untraced kind ~seconds
        | _, true -> Batch.run_traced kind ~seconds
      in
      Common.print_result ~workload:name outcome
  | _ -> usage ()
