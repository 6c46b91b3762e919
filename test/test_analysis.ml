(* Tests for the analysis layer: table rendering/CSV, cell formatting,
   and smoke + shape tests of the experiment harness at small sizes. *)

let check = Alcotest.check

(* {2 Table} *)

let sample_table () =
  Analysis.Table.make ~title:"demo" ~columns:[ "name"; "value" ]
    ~notes:[ "a note" ]
    [ [ "alpha"; "1" ]; [ "beta"; "23" ] ]

let test_table_accessors () =
  let t = sample_table () in
  check Alcotest.string "title" "demo" (Analysis.Table.title t);
  check (Alcotest.list Alcotest.string) "columns" [ "name"; "value" ]
    (Analysis.Table.columns t);
  check Alcotest.int "rows" 2 (List.length (Analysis.Table.rows t))

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Table.make: row 0 has 1 cells, expected 2") (fun () ->
      ignore
        (Analysis.Table.make ~title:"t" ~columns:[ "a"; "b" ] [ [ "x" ] ]))

let test_table_render_alignment () =
  let rendered = Analysis.Table.render (sample_table ()) in
  check Alcotest.bool "contains title" true
    (String.length rendered > 0
    && Astring.String.is_infix ~affix:"demo" rendered);
  (* Numeric cells are right-aligned: the "1" under "value" is padded. *)
  check Alcotest.bool "right-aligned number" true
    (Astring.String.is_infix ~affix:"alpha      1" rendered);
  check Alcotest.bool "note included" true
    (Astring.String.is_infix ~affix:"a note" rendered)

let test_table_csv () =
  let csv = Analysis.Table.to_csv (sample_table ()) in
  check Alcotest.string "csv" "name,value\nalpha,1\nbeta,23" csv

let test_table_csv_escaping () =
  let t =
    Analysis.Table.make ~title:"t" ~columns:[ "a" ]
      [ [ "x,y" ]; [ "say \"hi\"" ] ]
  in
  check Alcotest.string "escaped"
    "a\n\"x,y\"\n\"say \"\"hi\"\"\""
    (Analysis.Table.to_csv t)

let test_cell_formatters () =
  check Alcotest.string "small int plain" "99999" (Analysis.Table.fint 99_999);
  check Alcotest.string "big int scientific" "1.00e+06"
    (Analysis.Table.fint 1_000_000);
  check Alcotest.string "integral float" "42" (Analysis.Table.ffloat 42.);
  check Alcotest.string "ratio" "0.50x" (Analysis.Table.fratio 0.5);
  check Alcotest.string "three significant digits" "3.14"
    (Analysis.Table.ffloat 3.14159)

(* {2 Experiments (small smoke + shape)} *)

let notes_all_pass t =
  (* Every embedded shape check in the table's notes says PASS. *)
  let rendered = Analysis.Table.render t in
  not (Astring.String.is_infix ~affix:"FAIL" rendered)

let test_free_edges_small () =
  let t = Analysis.Experiments.free_edges ~n:24 ~trials:8 ~seed:3 () in
  check Alcotest.bool "shape checks pass" true (notes_all_pass t);
  check Alcotest.bool "has rows" true (List.length (Analysis.Table.rows t) >= 4)

let test_time_vs_messages_small () =
  let t = Scenario.Experiment.time_vs_messages ~seed:3 () in
  check Alcotest.bool "shape checks pass" true (notes_all_pass t);
  check Alcotest.int "three algorithms" 3 (List.length (Analysis.Table.rows t))

let test_static_baseline_small () =
  let t = Analysis.Experiments.static_baseline ~ns:[ 12 ] ~seed:3 () in
  check Alcotest.bool "shape checks pass" true (notes_all_pass t);
  check Alcotest.int "four k per n" 4 (List.length (Analysis.Table.rows t))

let test_single_source_experiment_small () =
  let t = Scenario.Experiment.single_source ~seed:3 () in
  check Alcotest.bool "shape checks pass" true (notes_all_pass t);
  (* 3 sizes x 3 k-values x 4 environments *)
  check Alcotest.int "rows" 36 (List.length (Analysis.Table.rows t))

let test_multi_source_experiment_small () =
  let t = Scenario.Experiment.multi_source ~seed:3 () in
  check Alcotest.bool "shape checks pass" true (notes_all_pass t);
  check Alcotest.int "rows" 6 (List.length (Analysis.Table.rows t))

let test_lower_bound_experiment_small () =
  let t = Analysis.Experiments.lower_bound ~ns:[ 12 ] ~seed:3 () in
  check Alcotest.bool "shape checks pass" true (notes_all_pass t);
  check Alcotest.int "four strategies" 4 (List.length (Analysis.Table.rows t))

let test_experiment_records_span () =
  let metrics = Obs.Metrics.create () in
  ignore (Analysis.Experiments.environments ~n:8 ~rounds:5 ~metrics ~seed:3 ());
  ignore (Analysis.Experiments.environments ~n:8 ~rounds:5 ~metrics ~seed:4 ());
  match Obs.Metrics.summary metrics "experiment/e0-environments" with
  | None -> Alcotest.fail "experiment span not recorded"
  | Some s ->
      check Alcotest.int "one sample per run" 2 s.Obs.Metrics.count;
      check Alcotest.bool "wall-clock non-negative" true
        (s.Obs.Metrics.min >= 0.)

let test_experiments_deterministic () =
  let render () =
    Analysis.Table.render (Analysis.Experiments.free_edges ~n:16 ~trials:5 ~seed:9 ())
  in
  check Alcotest.string "same seed, same table" (render ()) (render ())

let suite =
  [
    ("table accessors", `Quick, test_table_accessors);
    ("table rejects ragged rows", `Quick, test_table_rejects_ragged_rows);
    ("table rendering", `Quick, test_table_render_alignment);
    ("table csv", `Quick, test_table_csv);
    ("table csv escaping", `Quick, test_table_csv_escaping);
    ("cell formatters", `Quick, test_cell_formatters);
    ("experiment: free edges (small)", `Quick, test_free_edges_small);
    ("experiment: time vs messages (small)", `Quick,
     test_time_vs_messages_small);
    ("experiment: static baseline (small)", `Quick, test_static_baseline_small);
    ("experiment: single source (small)", `Quick,
     test_single_source_experiment_small);
    ("experiment: multi source (small)", `Quick,
     test_multi_source_experiment_small);
    ("experiment: lower bound (small)", `Quick,
     test_lower_bound_experiment_small);
    ("experiment records wall-clock span", `Quick, test_experiment_records_span);
    ("experiments deterministic", `Quick, test_experiments_deterministic);
  ]
