(* Tests for the benchmark report substrate and its regression gate: the
   JSON round-trip, tolerance semantics in both directions, and the
   acceptance scenario — a synthetic 2x slowdown / 2x footprint inflation
   must trip the gate while an unmodified report passes. *)

module Report = Report
module Json = Holistic_util.Json
module Obs = Holistic_obs.Obs

let baseline_report () =
  Report.make ~experiment:"synthetic"
    ~params:[ ("rows", Json.J_int 10_000) ]
    ~metrics:
      [
        ("time_s", Report.metric ~unit_:"s" ~tolerance:0.2 1.0);
        ("structure_bytes", Report.metric ~unit_:"B" ~tolerance:0.25 1_000_000.);
        ( "speedup",
          Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.35 3.0 );
        ("wall_s", Report.metric ~unit_:"s" 2.5) (* no tolerance: report-only *);
      ]
    ~counters:[ ("builds", 7) ]
    ()

(* a fresh report with the given metric values, sans the removed ones *)
let fresh_report ?(drop = []) overrides =
  let base = [ ("time_s", 1.0); ("structure_bytes", 1_000_000.); ("speedup", 3.0) ] in
  let values =
    List.filter
      (fun (k, _) -> not (List.mem k drop))
      (List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k overrides))) base)
  in
  Report.make ~experiment:"synthetic"
    ~metrics:(List.map (fun (k, v) -> (k, Report.metric v)) values)
    ()

let violation_names ~fresh =
  let checks = Report.compare_reports ~baseline:(baseline_report ()) ~fresh in
  List.map (fun c -> c.Report.metric_name) (Report.violations checks)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let r = baseline_report () in
  let r' = Json.parse (Json.to_string ~pretty:true r) in
  Alcotest.(check string) "experiment survives" "synthetic" (Report.experiment_of r');
  let ms = Report.metrics_of r and ms' = Report.metrics_of r' in
  Alcotest.(check int) "metric count" (List.length ms) (List.length ms');
  List.iter2
    (fun (k, (m : Report.metric)) (k', (m' : Report.metric)) ->
      Alcotest.(check string) "name" k k';
      Alcotest.(check (float 1e-9)) "value" m.Report.value m'.Report.value;
      Alcotest.(check bool) "direction" true (m.Report.direction = m'.Report.direction);
      Alcotest.(check bool) "tolerance" true (m.Report.tolerance = m'.Report.tolerance))
    ms ms';
  (* escaped strings, nested arrays, null and exponents survive too *)
  let j =
    Json.J_obj
      [
        ("s", Json.J_string "a\"b\\c\nd\te\r\xe2\x82\xac");
        ("a", Json.J_list [ Json.J_int (-3); Json.J_float 1.5e-3; Json.J_null ]);
        ("b", Json.J_bool false);
      ]
  in
  Alcotest.(check bool) "generic round-trip" true (Json.parse (Json.to_string ~pretty:true j) = j);
  Alcotest.(check bool) "compact round-trip" true (Json.parse (Json.to_string j) = j);
  (* the escape spellings every writer shares: short forms for newline,
     tab and carriage return, \u00XX for the other control characters *)
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd\te\r\u0001"|}
    (Json.to_string (Json.J_string "a\"b\\c\nd\te\r\001"))

let test_hist_summary_json () =
  let h = Obs.Histogram.make "test.gate.hist" in
  Obs.Histogram.reset h;
  List.iter (Obs.Histogram.add_always h) [ 10; 20; 30 ];
  let j = Report.json_of_hist_summary (Obs.Histogram.summary h) in
  Alcotest.(check (option (float 0.))) "count serialised" (Some 3.0)
    (Option.bind (Json.member "count" j) Json.to_float);
  Obs.Histogram.reset h

(* ------------------------------------------------------------------ *)
(* Gate semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_unmodified_passes () =
  Alcotest.(check (list string)) "no violations" [] (violation_names ~fresh:(fresh_report []))

let test_within_tolerance_passes () =
  let fresh =
    fresh_report [ ("time_s", 1.15); ("structure_bytes", 1_200_000.); ("speedup", 2.4) ]
  in
  Alcotest.(check (list string)) "within tolerance" [] (violation_names ~fresh)

let test_improvements_pass () =
  let fresh = fresh_report [ ("time_s", 0.3); ("structure_bytes", 1_000.); ("speedup", 9.0) ] in
  Alcotest.(check (list string)) "improvements never fail" [] (violation_names ~fresh)

(* the acceptance scenario: inject a 2x slowdown and a 2x footprint
   inflation — both must trip their gates *)
let test_2x_regressions_fail () =
  Alcotest.(check (list string)) "2x slowdown trips time_s" [ "time_s" ]
    (violation_names ~fresh:(fresh_report [ ("time_s", 2.0) ]));
  Alcotest.(check (list string)) "2x inflation trips structure_bytes" [ "structure_bytes" ]
    (violation_names ~fresh:(fresh_report [ ("structure_bytes", 2_000_000.) ]));
  Alcotest.(check (list string)) "halved speedup trips the higher-is-better gate" [ "speedup" ]
    (violation_names ~fresh:(fresh_report [ ("speedup", 1.5) ]))

let test_missing_metric_fails () =
  Alcotest.(check (list string)) "missing gated metric fails" [ "speedup" ]
    (violation_names ~fresh:(fresh_report ~drop:[ "speedup" ] []))

let test_untolerated_never_gates () =
  (* wall_s has no tolerance in the baseline and is absent from the fresh
     report entirely: reported, never gated *)
  let checks =
    Report.compare_reports ~baseline:(baseline_report ()) ~fresh:(fresh_report [])
  in
  let wall = List.find (fun c -> c.Report.metric_name = "wall_s") checks in
  Alcotest.(check bool) "no-tolerance metric ok even when missing" true wall.Report.ok

let test_zero_baseline () =
  let baseline =
    Report.make ~experiment:"z" ~metrics:[ ("count", Report.metric ~tolerance:0.01 0.0) ] ()
  in
  let same = Report.make ~experiment:"z" ~metrics:[ ("count", Report.metric 0.0) ] () in
  let worse = Report.make ~experiment:"z" ~metrics:[ ("count", Report.metric 1.0) ] () in
  Alcotest.(check int) "0 vs 0 passes" 0
    (List.length (Report.violations (Report.compare_reports ~baseline ~fresh:same)));
  Alcotest.(check int) "0 vs 1 fails" 1
    (List.length (Report.violations (Report.compare_reports ~baseline ~fresh:worse)))

let test_file_roundtrip () =
  let path = Filename.temp_file "bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.save path (baseline_report ());
      let r = Report.load path in
      Alcotest.(check string) "loaded experiment" "synthetic" (Report.experiment_of r);
      Alcotest.(check int) "loaded metrics" 4 (List.length (Report.metrics_of r)));
  (* every committed baseline reads back and reprints byte for byte (the
     directory is relative to test/ under dune runtest, to the root under
     dune exec) *)
  let dir =
    List.find Sys.file_exists [ "../bench/baselines"; "bench/baselines" ]
  in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) name text (Json.to_string ~pretty:true (Report.load path)))
    (Sys.readdir dir)

let () =
  Alcotest.run "bench-gate"
    [
      ( "report",
        [
          Alcotest.test_case "json round-trip" `Quick test_roundtrip;
          Alcotest.test_case "histogram summary json" `Quick test_hist_summary_json;
          Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
        ] );
      ( "gate",
        [
          Alcotest.test_case "unmodified report passes" `Quick test_unmodified_passes;
          Alcotest.test_case "within tolerance passes" `Quick test_within_tolerance_passes;
          Alcotest.test_case "improvements pass" `Quick test_improvements_pass;
          Alcotest.test_case "2x regressions fail" `Quick test_2x_regressions_fail;
          Alcotest.test_case "missing gated metric fails" `Quick test_missing_metric_fails;
          Alcotest.test_case "untolerated metrics never gate" `Quick test_untolerated_never_gates;
          Alcotest.test_case "zero baselines" `Quick test_zero_baseline;
        ] );
    ]
