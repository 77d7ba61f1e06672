(* Tests for the production-telemetry layer: windowed (sliding-window)
   histograms, pull-model gauges, the Prometheus/JSON metrics snapshot,
   the holiwin-qlog/1 query log (round-trip, rotation, session runs) and
   the help-string lint over the full metric inventory. *)

open Holistic_storage
module Obs = Holistic_obs.Obs
module Sql = Holistic_sql.Sql
module Qs = Holistic_window.Query_stats

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Windowed histograms                                                 *)
(* ------------------------------------------------------------------ *)

let test_windowed_time_expiry () =
  let w =
    Obs.Windowed_histogram.make ~help:"test" ~slots:4 ~window:(Obs.Windowed_histogram.Last_ns 4_000) "twin.time_ns"
  in
  Obs.Windowed_histogram.reset w;
  (* one sample per 1000ns slice *)
  List.iter
    (fun (t, v) -> Obs.Windowed_histogram.add_always_at w ~now_ns:t v)
    [ (500, 10); (1_500, 20); (2_500, 30); (3_500, 40) ];
  let s = Obs.Windowed_histogram.summary_at w ~now_ns:3_500 in
  Alcotest.(check int) "all four in window" 4 s.Obs.Histogram.count;
  Alcotest.(check int) "sum" 100 s.Obs.Histogram.sum;
  Alcotest.(check int) "min" 10 s.Obs.Histogram.min;
  Alcotest.(check int) "max" 40 s.Obs.Histogram.max;
  (* the clock advancing one slice expires the oldest slice even with no
     new samples *)
  let s = Obs.Windowed_histogram.summary_at w ~now_ns:4_500 in
  Alcotest.(check int) "oldest slice aged out" 3 s.Obs.Histogram.count;
  Alcotest.(check int) "its sample left the sum" 90 s.Obs.Histogram.sum;
  (* far future: everything expired *)
  let s = Obs.Windowed_histogram.summary_at w ~now_ns:1_000_000 in
  Alcotest.(check int) "empty after window passes" 0 s.Obs.Histogram.count

let test_windowed_bulk_eviction () =
  let w =
    Obs.Windowed_histogram.make ~slots:4 ~window:(Obs.Windowed_histogram.Last_ns 4_000) "twin.evict_ns"
  in
  Obs.Windowed_histogram.reset w;
  let ev0 = Obs.Windowed_histogram.evictions w in
  (* writing into a slice whose ring slot holds an expired generation
     bulk-zeroes the old slice *)
  Obs.Windowed_histogram.add_always_at w ~now_ns:500 1;
  Obs.Windowed_histogram.add_always_at w ~now_ns:4_500 2;
  (* same ring slot as 500ns, one window later *)
  Alcotest.(check bool) "eviction counted" true (Obs.Windowed_histogram.evictions w > ev0);
  let s = Obs.Windowed_histogram.summary_at w ~now_ns:4_500 in
  Alcotest.(check int) "only the live sample" 1 s.Obs.Histogram.count;
  Alcotest.(check int) "evicted value gone" 2 s.Obs.Histogram.min

let test_windowed_event_window () =
  let w =
    Obs.Windowed_histogram.make ~slots:4 ~window:(Obs.Windowed_histogram.Last_events 8) "twin.events"
  in
  Obs.Windowed_histogram.reset w;
  Alcotest.(check string) "label" "8ev" (Obs.Windowed_histogram.window_label w);
  (* 2 events per slice; after 16 events the first 8 have aged out *)
  for i = 1 to 16 do
    Obs.Windowed_histogram.add_always_at w ~now_ns:0 i
  done;
  let s = Obs.Windowed_histogram.summary w in
  Alcotest.(check int) "window covers the trailing events" 8 s.Obs.Histogram.count;
  Alcotest.(check int) "oldest retained is 9" 9 s.Obs.Histogram.min;
  Alcotest.(check int) "newest is 16" 16 s.Obs.Histogram.max;
  Alcotest.(check int) "events counts lifetime" 16 (Obs.Windowed_histogram.events w)

let test_windowed_matches_cumulative_quantiles () =
  (* same samples, same bucketing: a window wide enough to hold them all
     must report exactly the cumulative histogram's quantiles *)
  let h = Obs.Histogram.make "twin.cumulative_ns" in
  Obs.Histogram.reset h;
  let w =
    Obs.Windowed_histogram.make ~slots:8 ~window:(Obs.Windowed_histogram.Last_events 4096) "twin.sliding_ns"
  in
  Obs.Windowed_histogram.reset w;
  let rng = Holistic_util.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = 100 + Holistic_util.Rng.int rng 1_000_000 in
    Obs.Histogram.add_always h v;
    Obs.Windowed_histogram.add_always_at w ~now_ns:0 v
  done;
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%g" q)
        (Obs.Histogram.quantile h q)
        (Obs.Windowed_histogram.quantile w q))
    [ 0.5; 0.9; 0.99; 1.0 ]

let test_windowed_disabled_is_noop () =
  let was = Obs.enabled () in
  Obs.disable ();
  let w =
    Obs.Windowed_histogram.make ~window:(Obs.Windowed_histogram.Last_events 64) "twin.gated"
  in
  Obs.Windowed_histogram.reset w;
  let t0 = Obs.now_ns () in
  for _ = 1 to 1_000_000 do
    Obs.Windowed_histogram.add w 123
  done;
  Qs.note_latency 123;
  let dt_ns = Obs.now_ns () - t0 in
  Alcotest.(check int) "no events recorded while disabled" 0 (Obs.Windowed_histogram.events w);
  (* one atomic load per call: a million gated adds stay far under any
     plausibly-loaded machine's second (typically ~1-5 ms) *)
  Alcotest.(check bool)
    (Printf.sprintf "1M gated adds fast enough (%d ns)" dt_ns)
    true (dt_ns < 1_000_000_000);
  if was then Obs.enable ()

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let test_gauge_register_replace () =
  let g = Obs.Gauge.register ~help:"test gauge" "tgauge.v" (fun () -> 41) in
  Alcotest.(check int) "first callback" 41 (Obs.Gauge.value g);
  let g2 = Obs.Gauge.register "tgauge.v" (fun () -> 42) in
  Alcotest.(check int) "last registration wins" 42 (Obs.Gauge.value g2);
  Alcotest.(check string) "help survives a help-less re-register" "test gauge" (Obs.Gauge.help g2);
  Alcotest.(check (option int))
    "snapshot samples the new callback" (Some 42)
    (List.assoc_opt "tgauge.v" (Obs.Gauge.snapshot ()));
  let bad = Obs.Gauge.register ~help:"raises" "tgauge.bad" (fun () -> failwith "boom") in
  Alcotest.(check int) "raising callback reads 0" 0 (Obs.Gauge.value bad)

(* ------------------------------------------------------------------ *)
(* Metrics snapshot: Prometheus golden + JSON                          *)
(* ------------------------------------------------------------------ *)

let golden_prometheus =
  "# HELP holiwin_zgold_requests Requests seen by the test\n\
   # TYPE holiwin_zgold_requests counter\n\
   holiwin_zgold_requests 7\n\
   # HELP holiwin_zgold_depth Queue depth of the test\n\
   # TYPE holiwin_zgold_depth gauge\n\
   holiwin_zgold_depth 42\n\
   # HELP holiwin_zgold_lat_ns Latencies of the test\n\
   # TYPE holiwin_zgold_lat_ns summary\n\
   holiwin_zgold_lat_ns{quantile=\"0.5\"} 2\n\
   holiwin_zgold_lat_ns{quantile=\"0.9\"} 4\n\
   holiwin_zgold_lat_ns{quantile=\"0.99\"} 4\n\
   holiwin_zgold_lat_ns_sum 10\n\
   holiwin_zgold_lat_ns_count 4\n\
   # HELP holiwin_zgold_win_ns Sliding latencies of the test\n\
   # TYPE holiwin_zgold_win_ns summary\n\
   holiwin_zgold_win_ns{window=\"8ev\",quantile=\"0.5\"} 5\n\
   holiwin_zgold_win_ns{window=\"8ev\",quantile=\"0.9\"} 6\n\
   holiwin_zgold_win_ns{window=\"8ev\",quantile=\"0.99\"} 6\n\
   holiwin_zgold_win_ns_sum{window=\"8ev\"} 11\n\
   holiwin_zgold_win_ns_count{window=\"8ev\"} 2\n"

let zgold_snapshot () =
  let c = Obs.Counter.make ~help:"Requests seen by the test" "zgold.requests" in
  Obs.Counter.add_always c (7 - Obs.Counter.value c);
  ignore (Obs.Gauge.register ~help:"Queue depth of the test" "zgold.depth" (fun () -> 42));
  let h = Obs.Histogram.make ~help:"Latencies of the test" "zgold.lat_ns" in
  Obs.Histogram.reset h;
  List.iter (Obs.Histogram.add_always h) [ 1; 2; 3; 4 ];
  let w =
    Obs.Windowed_histogram.make ~help:"Sliding latencies of the test"
      ~window:(Obs.Windowed_histogram.Last_events 8) "zgold.win_ns"
  in
  Obs.Windowed_histogram.reset w;
  List.iter (Obs.Windowed_histogram.add_always_at w ~now_ns:0) [ 5; 6 ];
  Obs.Metrics.filter
    (fun name -> String.length name >= 6 && String.sub name 0 6 = "zgold.")
    (Obs.Metrics.snapshot ())

let test_prometheus_golden () =
  let snap = zgold_snapshot () in
  Alcotest.(check string) "exposition text" golden_prometheus (Obs.Metrics.to_prometheus snap);
  (* the wall-clock stamp is caller-supplied and renders as a leading
     comment — the only non-deterministic line, masked by fixing it *)
  let stamped = Obs.Metrics.to_prometheus ~stamp_ms:1234 snap in
  Alcotest.(check string) "stamp header"
    ("# holiwin metrics snapshot unix_ms=1234\n" ^ golden_prometheus)
    stamped

let test_metrics_json () =
  let snap = zgold_snapshot () in
  let js = Obs.Metrics.to_json ~stamp_ms:1234 snap in
  List.iter
    (fun sub -> Alcotest.(check bool) ("contains " ^ sub) true (contains ~sub js))
    [
      "\"schema\":\"holiwin-metrics/1\"";
      "\"taken_unix_ms\":1234";
      "\"zgold.requests\":{\"help\":\"Requests seen by the test\",\"value\":7}";
      "\"zgold.depth\":{\"help\":\"Queue depth of the test\",\"value\":42}";
      "\"p99\":4";
      "\"window\":\"8ev\"";
    ]

let test_help_lint () =
  (* run one windowed query first so every production metric registry
     entry (counters, histograms, gauges, windowed histograms) exists *)
  let table =
    Table.create [ ("k", Column.ints [| 3; 1; 2 |]); ("x", Column.floats [| 1.; 2.; 3. |]) ]
  in
  ignore
    (Sql.query ~tables:[ ("t", table) ]
       "select sum(x) over (order by k rows between 1 preceding and current row) from t");
  Qs.note_latency 1;
  let test_owned name =
    List.exists
      (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      [ "twin."; "tgauge."; "zgold." ]
  in
  let bad =
    List.filter
      (fun (_, name, help) -> help = "" && not (test_owned name))
      (Obs.Metrics.inventory (Obs.Metrics.snapshot ()))
  in
  let render = String.concat ", " (List.map (fun (k, n, _) -> k ^ ":" ^ n) bad) in
  Alcotest.(check string) "every registered metric carries help text" "" render

(* ------------------------------------------------------------------ *)
(* Query log: round-trip, rotation, session runs                       *)
(* ------------------------------------------------------------------ *)

let small_table rows =
  let rng = Holistic_util.Rng.create 5 in
  Table.create
    [
      ("g", Column.ints (Array.init rows (fun _ -> Holistic_util.Rng.int rng 4)));
      ("v", Column.floats (Array.init rows (fun i -> float_of_int i)));
    ]

let windowed_sql =
  "select sum(v) over (partition by g order by v rows between 3 preceding and current row) from t"

(* one statement through the session's store, logged to [sink] *)
let session_query sink session sql =
  Sql.query ~query_log:sink ~session ~tables:[ ("t", Sql.session_table session) ] sql

let test_qlog_roundtrip () =
  let path = Filename.temp_file "holiwin_qlog_rt" ".jsonl" in
  let sink = Qs.Log.open_ path in
  let table = small_table 200 in
  let session = Sql.session_create table in
  ignore (session_query sink session windowed_sql);
  ignore (session_query sink session "select g, v from t");
  Qs.Log.close sink;
  let records = Qs.Log.load path in
  Alcotest.(check int) "two records" 2 (List.length records);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  (* byte-exact round trip: parse each line and re-serialise it, both as
     a record and as a generic JSON value *)
  List.iter
    (fun line ->
      Alcotest.(check string) "parse/print identity" line (Qs.to_json_line (Qs.of_json_line line));
      Alcotest.(check string) "json identity" line
        Holistic_util.Json.(to_string (parse line)))
    (List.rev !lines);
  let r = List.hd records in
  Alcotest.(check int) "seq assigned from 0" 0 r.Qs.seq;
  Alcotest.(check string) "sql text" windowed_sql r.Qs.sql;
  Alcotest.(check int) "rows_in" 200 r.Qs.rows_in;
  Alcotest.(check int) "rows_out" 200 r.Qs.rows_out;
  Alcotest.(check bool) "wall time measured" true (r.Qs.wall_ns > 0);
  Alcotest.(check bool) "windowed query has plan stats" true (r.Qs.plan <> None);
  Alcotest.(check (option int)) "session epoch stamped" (Some 0) r.Qs.session_epoch;
  Alcotest.(check bool) "structures were built and accounted" true (r.Qs.structure_bytes > 0);
  let plain = List.nth records 1 in
  Alcotest.(check bool) "window-free query has no plan stats" true (plain.Qs.plan = None);
  Alcotest.(check int) "seq increments" 1 plain.Qs.seq;
  Sys.remove path

let test_qlog_schema_guard () =
  (match Qs.of_json_line "{\"schema\":\"holiwin-qlog/9\",\"seq\":0}" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "schema mismatch must raise");
  match Qs.of_json_line "not json" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed input must raise"

let test_qlog_rotation () =
  let dir = Filename.temp_file "holiwin_qlog_rot" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "q.jsonl" in
  (* minimum rotation threshold (4 KiB) and ~600-byte records: a rotation
     is forced well before 100 appends *)
  let sink = Qs.Log.open_ ~max_bytes:1 path in
  let table = small_table 50 in
  let session = Sql.session_create table in
  for _ = 1 to 100 do
    ignore (session_query sink session windowed_sql)
  done;
  Alcotest.(check bool) "rotated at least once" true (Qs.Log.rotations sink >= 1);
  Qs.Log.close sink;
  Alcotest.(check bool) "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  (* every line of both generations parses — rotation never splits a
     record — and together they hold the trailing appends *)
  let rotated = Qs.Log.load (path ^ ".1") in
  let live = Qs.Log.load path in
  Alcotest.(check bool) "both files non-empty" true (rotated <> [] && live <> []);
  let seqs = List.map (fun r -> r.Qs.seq) (rotated @ live) in
  let max_seq = List.fold_left max 0 seqs in
  Alcotest.(check int) "last record retained" 99 max_seq;
  (* the retained window is contiguous: seq k..99 with no gaps *)
  let sorted = List.sort compare seqs in
  let lo = List.hd sorted in
  Alcotest.(check (list int)) "contiguous sequence numbers"
    (List.init (List.length sorted) (fun i -> lo + i))
    sorted;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; path ^ ".1" ];
  Sys.rmdir dir

let test_qlog_thousand_query_session () =
  (* the acceptance run: a 1000-query session with a rotating log; the
     log parses, stays bounded and its byte/cache fields are coherent *)
  let dir = Filename.temp_file "holiwin_qlog_1k" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "q.jsonl" in
  let sink = Qs.Log.open_ ~max_bytes:65_536 path in
  let table = small_table 100 in
  let session = Sql.session_create table in
  for _ = 1 to 1000 do
    ignore (session_query sink session windowed_sql)
  done;
  Alcotest.(check bool) "rotation bounded the live file" true (Qs.Log.rotations sink >= 1);
  Qs.Log.close sink;
  let records = Qs.Log.load (path ^ ".1") @ Qs.Log.load path in
  Alcotest.(check bool) "log survived 1000 queries" true (List.length records > 10);
  List.iter
    (fun r ->
      Alcotest.(check int) "rows preserved per record" 100 r.Qs.rows_out;
      Alcotest.(check bool) "cache engaged after warmup" true
        (r.Qs.seq = 0 || r.Qs.cache_hits + r.Qs.cache_misses + r.Qs.cache_rebuilt >= 0))
    records;
  (* after the first query the session serves every structure: steady-state
     records must show no fresh structure bytes and no cache misses *)
  let steady = List.filter (fun r -> r.Qs.seq > 0) records in
  Alcotest.(check bool) "steady state reuses structures" true
    (List.for_all (fun r -> r.Qs.structure_bytes = 0 && r.Qs.cache_misses = 0) steady);
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; path ^ ".1" ];
  Sys.rmdir dir

let test_qlog_matches_explain_analyze () =
  (* the same query on identical fresh inputs: the record's gated-counter
     fields must equal the counter deltas EXPLAIN ANALYZE captures *)
  let sql = windowed_sql in
  let path = Filename.temp_file "holiwin_qlog_ea" ".jsonl" in
  let sink = Qs.Log.open_ path in
  ignore (Sql.query ~query_log:sink ~tables:[ ("t", small_table 300) ] sql);
  Qs.Log.close sink;
  let r = List.hd (Qs.Log.load path) in
  Sys.remove path;
  let _, trace = Sql.explain_analyze_trace ~tables:[ ("t", small_table 300) ] sql in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name trace.Obs.counters)
  in
  Alcotest.(check int) "structure bytes match" (counter "mem.structure_bytes") r.Qs.structure_bytes;
  Alcotest.(check int) "cache misses match" (counter "cache.miss") r.Qs.cache_misses;
  Alcotest.(check int) "cache hits match" (counter "cache.hit") r.Qs.cache_hits;
  Alcotest.(check int) "spill bytes match" (counter "sort.spill_bytes") r.Qs.spill_bytes;
  let trace_evals =
    List.filter_map
      (fun (name, v) ->
        let p = "plan.evaluator." in
        let pl = String.length p in
        if String.length name > pl && String.sub name 0 pl = p && v <> 0 then
          Some (String.sub name pl (String.length name - pl), v)
        else None)
      trace.Obs.counters
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "evaluator picks match" trace_evals r.Qs.evaluators

let test_windowed_latency_tracks_queries () =
  (* sql.query_window_ns over the last 1024 queries must agree with a
     cumulative histogram reset around the same run *)
  let h = Obs.Histogram.make "sql.query_ns" in
  let w = Obs.Windowed_histogram.make ~window:(Obs.Windowed_histogram.Last_events 1024) "sql.query_window_ns" in
  Obs.Histogram.reset h;
  Obs.Windowed_histogram.reset w;
  let path = Filename.temp_file "holiwin_qlog_p99" ".jsonl" in
  let sink = Qs.Log.open_ path in
  let session = Sql.session_create (small_table 100) in
  for _ = 1 to 50 do
    ignore (session_query sink session windowed_sql)
  done;
  Qs.Log.close sink;
  Sys.remove path;
  Alcotest.(check int) "both sides saw every query" (Obs.Histogram.count h)
    (Obs.Windowed_histogram.summary w).Obs.Histogram.count;
  (* identical samples within the window: identical (conservative) p99 *)
  Alcotest.(check int) "windowed p99 = cumulative p99" (Obs.Histogram.quantile h 0.99)
    (Obs.Windowed_histogram.quantile w 0.99)

let () =
  Alcotest.run "telemetry"
    [
      ( "windowed-histogram",
        [
          Alcotest.test_case "time expiry" `Quick test_windowed_time_expiry;
          Alcotest.test_case "bulk eviction" `Quick test_windowed_bulk_eviction;
          Alcotest.test_case "event window" `Quick test_windowed_event_window;
          Alcotest.test_case "matches cumulative quantiles" `Quick
            test_windowed_matches_cumulative_quantiles;
          Alcotest.test_case "disabled is a no-op" `Quick test_windowed_disabled_is_noop;
        ] );
      ("gauges", [ Alcotest.test_case "register/replace" `Quick test_gauge_register_replace ]);
      ( "metrics-snapshot",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json document" `Quick test_metrics_json;
          Alcotest.test_case "help lint" `Quick test_help_lint;
        ] );
      ( "query-log",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_qlog_roundtrip;
          Alcotest.test_case "schema guard" `Quick test_qlog_schema_guard;
          Alcotest.test_case "rotation boundary" `Quick test_qlog_rotation;
          Alcotest.test_case "1000-query session" `Quick test_qlog_thousand_query_session;
          Alcotest.test_case "matches explain analyze" `Quick test_qlog_matches_explain_analyze;
          Alcotest.test_case "windowed latency tracks queries" `Quick
            test_windowed_latency_tracks_queries;
        ] );
    ]
