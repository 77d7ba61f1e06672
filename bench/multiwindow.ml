(* The [sql-multiwindow] experiment: a four-clause window query whose OVER
   specs all share PARTITION BY and whose ORDER BYs are prefix-compatible,
   run through the shared {!Holistic_window.Window_plan} pipeline (via the
   SQL front end) against the preserved pre-plan baseline
   ({!Legacy_window}) that executes each clause independently.

   Parity is checked before anything is timed, and the build counters must
   show the plan constructing strictly fewer encodings and trees than the
   baseline — both are hard failures, so CI exercises the sharing logic
   deterministically even at smoke sizes where wall-clock ratios are
   noisy. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Rng = Holistic_util.Rng
module H = Harness
module Json = Holistic_util.Json
module Sql = Holistic_sql.Sql

(* [ts] is a distinct date-like string key (think ISO timestamps): ordering
   by it exercises the boxed comparator path, which the legacy executor
   pays once per clause and the plan pays once per query. *)
let make_table rng ~rows ~partitions =
  let grp = Array.init rows (fun _ -> Rng.int rng partitions) in
  let shuffled = Array.init rows (fun i -> i) in
  for i = rows - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- t
  done;
  let ts =
    Array.map
      (fun v ->
        Printf.sprintf "2026-%02d-%02d %02d:%02d:%02d.%06d"
          (1 + (v / 2_678_400 mod 12))
          (1 + (v / 86_400 mod 28))
          (v / 3_600 mod 24) (v / 60 mod 60) (v mod 60) v)
      shuffled
  in
  let x = Array.init rows (fun _ -> Rng.float rng 1000.) in
  let k = Array.init rows (fun _ -> Rng.int rng 100) in
  Table.create
    [
      ("grp", Column.ints grp);
      ("ts", Column.strings ts);
      ("x", Column.floats x);
      ("k", Column.ints k);
    ]

let query =
  "select rank() over (partition by grp order by ts rows between 99 preceding and current row) as r,\n\
  \       percent_rank() over (partition by grp order by ts rows between 999 preceding and current row) as pr,\n\
  \       cume_dist() over (partition by grp order by ts rows between 499 preceding and current row) as cd,\n\
  \       row_number() over (partition by grp order by ts, k rows between 99 preceding and current row) as rn\n\
   from t"

(* Every item is pinned to MST: this experiment measures structure sharing
   across clauses, so the per-clause evaluator choice must not move with
   the cost model's calibration (see bench/evaluator_choice.ml for the
   experiment that exercises the chooser). *)
let clauses () =
  let grp = Expr.Col "grp" in
  let by_ts = [ Sort_spec.asc (Expr.Col "ts") ] in
  let by_ts_k = [ Sort_spec.asc (Expr.Col "ts"); Sort_spec.asc (Expr.Col "k") ] in
  let back n = Window_spec.rows_between (Window_spec.preceding n) Window_spec.Current_row in
  [
    {
      Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ~frame:(back 99) ();
      items = [ Wf.rank ~algorithm:Wf.Mst ~name:"r" [] ];
    };
    {
      Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ~frame:(back 999) ();
      items = [ Wf.percent_rank ~algorithm:Wf.Mst ~name:"pr" [] ];
    };
    {
      Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ~frame:(back 499) ();
      items = [ Wf.cume_dist ~algorithm:Wf.Mst ~name:"cd" [] ];
    };
    {
      Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts_k ~frame:(back 99) ();
      items = [ Wf.row_number ~algorithm:Wf.Mst ~name:"rn" [] ];
    };
  ]

let value_eq a b =
  match a, b with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | _ -> (Value.is_null a && Value.is_null b) || Value.equal a b

let check_parity ~plan ~legacy n =
  List.iter
    (fun name ->
      let pc = Table.column plan name and lc = Table.column legacy name in
      for i = 0 to n - 1 do
        if not (value_eq (Column.get pc i) (Column.get lc i)) then
          failwith
            (Printf.sprintf "sql-multiwindow parity: column %s row %d: plan %s <> legacy %s" name i
               (Value.to_string (Column.get pc i))
               (Value.to_string (Column.get lc i)))
      done)
    [ "r"; "pr"; "cd"; "rn" ]

let run ~rows () =
  H.section "sql-multiwindow: shared window pipeline vs per-clause execution";
  let partitions = max 8 (rows / 4_000) in
  let rng = Rng.create 42 in
  let table = make_table rng ~rows ~partitions in
  let cs = clauses () in
  H.note "%d rows, %d partitions, 4 OVER clauses (shared PARTITION BY, prefix ORDER BYs)" rows
    partitions;
  (* correctness + sharing first: these must hold at any size *)
  let plan_out, stats = Window_plan.run_with_stats table cs in
  let legacy_counters = Build_cache.fresh_counters () in
  let legacy_out = Legacy_window.run_clauses ~counters:legacy_counters table cs in
  check_parity ~plan:plan_out ~legacy:legacy_out rows;
  H.note "parity: plan matches per-clause baseline on all 4 columns";
  let open Window_plan in
  H.note "plan: %d partition pass(es), %d full + %d partial sort(s), %d clause(s) reusing a sort"
    stats.partition_passes stats.full_sorts stats.partial_sorts stats.reused_sorts;
  H.note "builds: plan %d encodes / %d trees vs legacy %d encodes / %d trees" stats.encode_builds
    stats.tree_builds (Build_cache.encode_build_count legacy_counters)
    (Build_cache.tree_build_count legacy_counters);
  if stats.partition_passes <> 1 || stats.full_sorts <> 1 then
    failwith "sql-multiwindow: expected one shared partition pass and one full sort";
  if stats.comparator_sorts <> 0 then
    failwith
      (Printf.sprintf "sql-multiwindow: %d sort(s) fell back to the comparator path"
         stats.comparator_sorts);
  if
    stats.encode_builds >= (Build_cache.encode_build_count legacy_counters)
    || stats.tree_builds >= (Build_cache.tree_build_count legacy_counters)
  then failwith "sql-multiwindow: shared plan did not reduce encode/tree builds";
  (* memory accounting: one traced plan run; the [mem.structure_bytes]
     counter is deterministic for a given (table, clauses) pair, so the
     regression gate can hold it to a tight tolerance *)
  let _, mem_trace = Holistic_obs.Obs.with_capture (fun () -> Window_plan.run table cs) in
  let structure_bytes =
    match List.assoc_opt "mem.structure_bytes" mem_trace.Holistic_obs.Obs.counters with
    | Some b -> b
    | None -> 0
  in
  H.note "plan structures: %s" (Holistic_obs.Obs.human_bytes structure_bytes);
  (* now the wall clock, SQL front end against the preserved baseline *)
  H.gc_settle ();
  let plan_api_s = H.time (fun () -> Window_plan.run table cs) in
  H.note "plan via API (no SQL front end): %.3f s" plan_api_s;
  List.iteri
    (fun i (c : Window_plan.clause) ->
      let t = H.time (fun () -> Legacy_window.run table ~over:c.spec c.items) in
      H.note "legacy clause %d alone: %.3f s" (i + 1) t)
    cs;
  H.gc_settle ();
  let plan_t = H.time_best ~hist:"bench.plan_ns" ~reps:3 (fun () -> Sql.query ~algorithm:Wf.Mst ~tables:[ ("t", table) ] query) in
  H.gc_settle ();
  let legacy_t = H.time_best ~hist:"bench.legacy_ns" ~reps:3 (fun () -> Legacy_window.run_clauses table cs) in
  let plan_s = plan_t.H.best and legacy_s = legacy_t.H.best in
  let speedup = legacy_s /. plan_s in
  (* telemetry A/B: the plan leg above runs with telemetry disabled (one
     atomic load per instrumentation point); leg B runs the same query
     with tracing on AND a per-query JSONL log sink attached, so the
     ratio bounds the cost of the full telemetry stack, not just the
     counters. Disabled-mode overhead of the hooks themselves is gated
     separately (behaviorally) in test/test_telemetry.ml. *)
  let was_enabled = Holistic_obs.Obs.enabled () in
  let qlog_path = Filename.temp_file "holiwin_bench_qlog" ".jsonl" in
  let sink = Sql.Query_stats.Log.open_ qlog_path in
  Holistic_obs.Obs.enable ();
  H.gc_settle ();
  let telemetry_t =
    H.time_best ~reps:3 (fun () ->
        Sql.query ~algorithm:Wf.Mst ~query_log:sink ~tables:[ ("t", table) ] query)
  in
  if not was_enabled then Holistic_obs.Obs.disable ();
  Sql.Query_stats.Log.close sink;
  let qlog_records = List.length (Sql.Query_stats.Log.load qlog_path) in
  (try Sys.remove qlog_path with Sys_error _ -> ());
  (try Sys.remove (qlog_path ^ ".1") with Sys_error _ -> ());
  let telemetry_s = telemetry_t.H.best in
  let telemetry_overhead = telemetry_s /. plan_s in
  H.note "telemetry A/B: disabled %.3f s, enabled+qlog %.3f s (%.2fx, %d qlog records)" plan_s
    telemetry_s telemetry_overhead qlog_records;
  if qlog_records < 3 then
    failwith "sql-multiwindow: telemetry leg produced fewer query-log records than runs";
  H.print_table ~header:[ "path"; "seconds"; "mean±sd"; "speedup" ]
    ~rows:
      [
        [
          "legacy (4 independent clauses)";
          Printf.sprintf "%.3f" legacy_s;
          Printf.sprintf "%.3f±%.3f" legacy_t.H.mean legacy_t.H.stddev;
          "1.00x";
        ];
        [
          "shared plan (SQL)";
          Printf.sprintf "%.3f" plan_s;
          Printf.sprintf "%.3f±%.3f" plan_t.H.mean plan_t.H.stddev;
          Printf.sprintf "%.2fx" speedup;
        ];
      ];
  Report.write "BENCH_sql_multiwindow.json" ~experiment:"sql-multiwindow"
    ~params:
      [
        ("rows", Json.J_int rows);
        ("partitions", Json.J_int partitions);
        ("clauses", Json.J_int 4);
      ]
    ~metrics:
      [
        (* gated: machine-independent ratios, exact build/sort counts and
           the deterministic structure footprint *)
        ("speedup", Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.35 speedup);
        ("structure_bytes", Report.metric ~unit_:"B" ~tolerance:0.25 (float_of_int structure_bytes));
        ("encode_builds", Report.metric ~tolerance:0.01 (float_of_int stats.encode_builds));
        ("tree_builds", Report.metric ~tolerance:0.01 (float_of_int stats.tree_builds));
        ("full_sorts", Report.metric ~tolerance:0.01 (float_of_int stats.full_sorts));
        ("partial_sorts", Report.metric ~tolerance:0.01 (float_of_int stats.partial_sorts));
        (* gated generously: the full telemetry stack (tracing + per-query
           log) must stay in the same ballpark as the disabled leg; the
           ratio is machine-independent but noisy at smoke sizes *)
        ( "telemetry_overhead",
          Report.metric ~unit_:"x" ~direction:Report.Lower_better ~tolerance:0.5
            telemetry_overhead );
        (* report-only: absolute wall times are machine-dependent *)
        ("plan_s", Report.metric ~unit_:"s" plan_s);
        ("legacy_s", Report.metric ~unit_:"s" legacy_s);
        ("telemetry_s", Report.metric ~unit_:"s" telemetry_s);
      ]
    ~counters:
      [
        ("plan.stages", stats.stages);
        ("plan.partition_passes", stats.partition_passes);
        ("plan.reused_sorts", stats.reused_sorts);
        ("plan.comparator_sorts", stats.comparator_sorts);
        ("legacy.encode_builds", (Build_cache.encode_build_count legacy_counters));
        ("legacy.tree_builds", (Build_cache.tree_build_count legacy_counters));
      ]
    ~histograms:(Holistic_obs.Obs.Histogram.snapshot ())
    ~series:
      (Json.J_obj
         [
           ("plan", H.json_of_timing plan_t);
           ("legacy", H.json_of_timing legacy_t);
           ("telemetry", H.json_of_timing telemetry_t);
         ]);
  H.note "wrote BENCH_sql_multiwindow.json"
