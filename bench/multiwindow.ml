(* The [sql-multiwindow] experiment: a four-clause window query whose OVER
   specs all share PARTITION BY and whose ORDER BYs are prefix-compatible,
   run through the shared {!Holistic_window.Window_plan} pipeline (via the
   SQL front end) against the same engine evaluating each clause on its
   own, one plan per clause (the sharing baseline of Cao et al.,
   arXiv:1208.0086).

   Parity is checked before anything is timed, and the build counters must
   show the shared plan constructing strictly fewer encodings and trees than
   the per-clause plans — both are hard failures, so CI exercises the
   sharing logic deterministically even at smoke sizes where wall-clock
   ratios are noisy. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Ec = Evaluator_choice
module Rng = Holistic_util.Rng
module H = Harness
module Json = Holistic_util.Json
module Sql = Holistic_sql.Sql

(* [ts] is a distinct date-like string key (think ISO timestamps): the
   per-clause plans encode and sort it once per clause, the shared plan
   once per query. *)
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

let check_parity ~plan ~per_clause n =
  List.iter
    (fun name ->
      let pc = Table.column plan name and lc = Table.column per_clause name in
      for i = 0 to n - 1 do
        if not (value_eq (Column.get pc i) (Column.get lc i)) then
          failwith
            (Printf.sprintf "sql-multiwindow parity: column %s row %d: plan %s <> per-clause %s" name
               i
               (Value.to_string (Column.get pc i))
               (Value.to_string (Column.get lc i)))
      done)
    [ "r"; "pr"; "cd"; "rn" ]

(* The baseline arm: one plan per clause, each with its own partition
   pass, sort, encodings and trees; returns every clause's stats. *)
let run_per_clause ~pool table cs =
  List.fold_left_map (fun acc c -> Window_plan.run_with_stats ~pool acc [ c ]) table cs

let run ~rows () =
  let pool = H.pool () in
  H.section "sql-multiwindow: shared window pipeline vs per-clause execution";
  let partitions = max 8 (rows / 4_000) in
  let rng = Rng.create 42 in
  let table = make_table rng ~rows ~partitions in
  let cs = clauses () in
  H.note "%d rows, %d partitions, 4 OVER clauses (shared PARTITION BY, prefix ORDER BYs)" rows
    partitions;
  (* correctness + sharing first: these must hold at any size *)
  let plan_out, stats = Window_plan.run_with_stats ~pool table cs in
  let per_clause_out, per_clause_stats = run_per_clause ~pool table cs in
  check_parity ~plan:plan_out ~per_clause:per_clause_out rows;
  H.note "parity: plan matches per-clause baseline on all 4 columns";
  let open Window_plan in
  let per_clause f = List.fold_left (fun acc st -> acc + f st) 0 per_clause_stats in
  let pc_encodes = per_clause (fun st -> st.encode_builds)
  and pc_trees = per_clause (fun st -> st.tree_builds)
  and pc_full_sorts = per_clause (fun st -> st.full_sorts) in
  H.note "plan: %d partition pass(es), %d full + %d partial sort(s), %d clause(s) reusing a sort"
    stats.partition_passes stats.full_sorts stats.partial_sorts stats.reused_sorts;
  H.note "builds: plan %d encodes / %d trees / %d full sort(s) vs per-clause %d / %d / %d"
    stats.encode_builds stats.tree_builds stats.full_sorts pc_encodes pc_trees pc_full_sorts;
  if stats.partition_passes <> 1 || stats.full_sorts <> 1 then
    failwith "sql-multiwindow: expected one shared partition pass and one full sort";
  if stats.comparator_sorts <> 0 then
    failwith
      (Printf.sprintf "sql-multiwindow: %d sort(s) fell back to the comparator path"
         stats.comparator_sorts);
  if stats.encode_builds >= pc_encodes || stats.tree_builds >= pc_trees then
    failwith "sql-multiwindow: shared plan did not reduce encode/tree builds";
  (* memory accounting: one traced plan run; the [mem.structure_bytes]
     counter is deterministic for a given (table, clauses) pair, so the
     regression gate can hold it to a tight tolerance *)
  let _, mem_trace = Holistic_obs.Obs.with_capture (fun () -> Window_plan.run ~pool table cs) in
  let structure_bytes =
    match List.assoc_opt "mem.structure_bytes" mem_trace.Holistic_obs.Obs.counters with
    | Some b -> b
    | None -> 0
  in
  H.note "plan structures: %s" (Holistic_obs.Obs.human_bytes structure_bytes);
  (* now the wall clock, SQL front end against one plan per clause *)
  H.gc_settle ();
  let plan_api_s = H.time (fun () -> Window_plan.run ~pool table cs) in
  H.note "plan via API (no SQL front end): %.3f s" plan_api_s;
  List.iteri
    (fun i c ->
      let t = H.time (fun () -> Window_plan.run ~pool table [ c ]) in
      H.note "clause %d alone: %.3f s" (i + 1) t)
    cs;
  H.gc_settle ();
  let plan_t, per_clause_t =
    H.time_best_pair ~hist_a:"bench.plan_ns" ~hist_b:"bench.per_clause_ns" ~reps:3
      (fun () -> Sql.query ~pool ~evaluator:Ec.Mst ~tables:[ ("t", table) ] query)
      (fun () -> run_per_clause ~pool table cs)
  in
  let plan_s = plan_t.H.best and per_clause_s = per_clause_t.H.best in
  let speedup = per_clause_s /. plan_s in
  (* telemetry A/B: the plan leg above runs with telemetry disabled (one
     atomic load per instrumentation point); leg B runs the same query
     with tracing on AND a per-query JSONL log sink attached, so the
     ratio bounds the cost of the full telemetry stack, not just the
     counters. Disabled-mode overhead of the hooks themselves is gated
     separately (behaviorally) in test/test_telemetry.ml. *)
  let was_enabled = Holistic_obs.Obs.tracing () in
  let qlog_path = Filename.temp_file "holiwin_bench_qlog" ".jsonl" in
  let sink = Sql.Query_stats.Log.open_ qlog_path in
  Holistic_obs.Obs.enable ();
  H.gc_settle ();
  let telemetry_t =
    H.time_best ~reps:3 (fun () ->
        Sql.query ~pool ~evaluator:Ec.Mst ~query_log:sink ~tables:[ ("t", table) ] query)
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
          "one plan per clause (4 plans)";
          Printf.sprintf "%.3f" per_clause_s;
          Printf.sprintf "%.3f±%.3f" per_clause_t.H.mean per_clause_t.H.stddev;
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
        ("per_clause_s", Report.metric ~unit_:"s" per_clause_s);
        ("telemetry_s", Report.metric ~unit_:"s" telemetry_s);
      ]
    ~counters:
      [
        ("plan.stages", stats.stages);
        ("plan.partition_passes", stats.partition_passes);
        ("plan.reused_sorts", stats.reused_sorts);
        ("plan.comparator_sorts", stats.comparator_sorts);
        ("per_clause.encode_builds", pc_encodes);
        ("per_clause.tree_builds", pc_trees);
        ("per_clause.full_sorts", pc_full_sorts);
      ]
    ~histograms:(Holistic_obs.Obs.Histogram.snapshot ())
    ~series:
      (Json.J_obj
         [
           ("plan", H.json_of_timing plan_t);
           ("per_clause", H.json_of_timing per_clause_t);
           ("telemetry", H.json_of_timing telemetry_t);
         ]);
  H.note "wrote BENCH_sql_multiwindow.json"
