(* The [spill] experiment: out-of-core execution under a hard memory
   ceiling.

   One window clause over 10x the sql-multiwindow row count, run three
   ways: ungoverned (the historical in-memory path), governed with no
   budget (to measure the accounted in-memory peak), and governed with a
   budget of a quarter of that peak — forcing the sort through spilled
   OVC run files. The rank item's merge sort trees are built in memory
   either way: the governor governs sorts only.

   Correctness is a hard failure, checked before anything is timed: the
   capped run must produce bit-identical columns (floats compared by
   bits) and identical plan statistics, it must actually have spilled,
   and its accounted peak must stay under the ceiling. The gated metrics
   hold the spill volume and the accounted peaks; bench/check.ml
   additionally refuses a fresh report whose [sort.spill_bytes] counter
   has gone to zero, so the out-of-core path cannot silently stop being
   exercised. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Rng = Holistic_util.Rng
module H = Harness
module Json = Holistic_util.Json
module Task_pool = Holistic_parallel.Task_pool
module Obs = Holistic_obs.Obs

let make_table rng ~rows ~partitions =
  let grp = Array.init rows (fun _ -> Rng.int rng partitions) in
  let shuffled = Array.init rows (fun i -> i) in
  for i = rows - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- t
  done;
  let x = Array.init rows (fun _ -> Rng.float rng 1000.) in
  Table.create
    [ ("grp", Column.ints grp); ("k", Column.ints shuffled); ("x", Column.floats x) ]

(* One shared sort (partition ids + [k] pack into a single key word, the
   cheapest case for the in-memory path and therefore the tightest
   ceiling for the spilled one), a frame deep enough that the rank item
   keeps its merge sort tree busy. *)
let clauses () =
  let back n = Window_spec.rows_between (Window_spec.preceding n) Window_spec.Current_row in
  [
    {
      Window_plan.spec =
        Window_spec.over
          ~partition_by:[ Expr.Col "grp" ]
          ~order_by:[ Sort_spec.asc (Expr.Col "k") ]
          ~frame:(back 999) ();
      items =
        [
          Wf.sum ~name:"s" (Expr.Col "x");
          Wf.rank ~algorithm:Wf.Mst ~name:"r" [ Sort_spec.asc (Expr.Col "x") ];
        ];
    };
  ]

let check_bits_identical ~expected ~actual n =
  List.iter
    (fun name ->
      let ec = Table.column expected name and ac = Table.column actual name in
      for i = 0 to n - 1 do
        let e = Column.get ec i and a = Column.get ac i in
        let same =
          match (e, a) with
          | Value.Float x, Value.Float y ->
              Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          | _ -> compare e a = 0
        in
        if not same then
          failwith
            (Printf.sprintf "spill parity: column %s row %d: in-memory %s <> capped %s" name i
               (Value.to_string e) (Value.to_string a))
      done)
    [ "s"; "r" ]

let run ~rows () =
  H.section "spill: out-of-core execution under a quarter of the in-memory peak";
  let partitions = max 8 (rows / 4_000) in
  let rng = Rng.create 42 in
  let table = make_table rng ~rows ~partitions in
  let cs = clauses () in
  (* >= 2 domains so the governed in-memory path charges the run/merge
     split's scratch: the peak — and hence the ceiling — is then the
     same on every host *)
  let pool = Task_pool.create 2 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  H.note "%d rows, %d partitions, 1 OVER clause (sum + MST rank), 2-domain pool" rows partitions;
  (* 1. the accounted in-memory peak, from a budget-less observing governor *)
  let observe = Mem_governor.create ~dir:(H.scratch_dir ()) () in
  let mem_out, mem_stats = Window_plan.run_with_stats ~pool ~governor:observe table cs in
  let peak = Mem_governor.peak observe in
  let observe_spills, _ = Mem_governor.totals observe in
  Mem_governor.cleanup observe;
  if observe_spills <> 0 then failwith "spill: budget-less governor spilled";
  let ceiling = peak / 4 in
  H.note "accounted in-memory peak %s; ceiling %s (peak/4)" (Obs.human_bytes peak)
    (Obs.human_bytes ceiling);
  (* 2. the capped run: bit-identical output, identical plan stats, real
     spilling, peak under the ceiling — all before any timing *)
  let gov = Mem_governor.create ~budget:ceiling ~dir:(H.scratch_dir ()) () in
  let cap_out, cap_stats = Window_plan.run_with_stats ~pool ~governor:gov table cs in
  let spill_runs, spill_bytes = Mem_governor.totals gov in
  let cap_peak = Mem_governor.peak gov in
  Mem_governor.cleanup gov;
  check_bits_identical ~expected:mem_out ~actual:cap_out rows;
  if cap_stats <> mem_stats then failwith "spill: capped run changed the plan statistics";
  if spill_bytes = 0 then failwith "spill: capped run did not spill";
  if cap_peak > ceiling then
    failwith
      (Printf.sprintf "spill: capped run peaked at %s over the %s ceiling"
         (Obs.human_bytes cap_peak) (Obs.human_bytes ceiling));
  H.note "parity: capped output bit-identical, plan stats unchanged";
  H.note "spilled %d runs, %s; capped peak %s (%.1f%% of in-memory)" spill_runs
    (Obs.human_bytes spill_bytes) (Obs.human_bytes cap_peak)
    (100. *. float_of_int cap_peak /. float_of_int peak);
  (* 3. wall clock: ungoverned in-memory vs capped *)
  H.gc_settle ();
  let mem_t = H.time_best ~hist:"bench.spill_mem_ns" ~reps:3 (fun () -> Window_plan.run ~pool table cs) in
  H.gc_settle ();
  let cap_t =
    H.time_best ~hist:"bench.spill_cap_ns" ~reps:3 (fun () ->
        let g = Mem_governor.create ~budget:ceiling ~dir:(H.scratch_dir ()) () in
        Fun.protect
          ~finally:(fun () -> Mem_governor.cleanup g)
          (fun () -> Window_plan.run ~pool ~governor:g table cs))
  in
  let mem_s = mem_t.H.best and cap_s = cap_t.H.best in
  let slowdown = cap_s /. mem_s in
  H.print_table ~header:[ "path"; "seconds"; "mean±sd"; "vs in-memory" ]
    ~rows:
      [
        [
          "in-memory (no governor)";
          Printf.sprintf "%.3f" mem_s;
          Printf.sprintf "%.3f±%.3f" mem_t.H.mean mem_t.H.stddev;
          "1.00x";
        ];
        [
          "capped (peak/4 budget)";
          Printf.sprintf "%.3f" cap_s;
          Printf.sprintf "%.3f±%.3f" cap_t.H.mean cap_t.H.stddev;
          Printf.sprintf "%.2fx" slowdown;
        ];
      ];
  Report.write "BENCH_spill.json" ~experiment:"spill"
    ~params:
      [
        ("rows", Json.J_int rows);
        ("partitions", Json.J_int partitions);
        ("ceiling_bytes", Json.J_int ceiling);
      ]
    ~metrics:
      [
        (* gated: the accounting and the spill volume are deterministic
           for a given (rows, pool) pair *)
        ("peak_bytes", Report.metric ~unit_:"B" ~tolerance:0.25 (float_of_int peak));
        ("capped_peak_bytes", Report.metric ~unit_:"B" ~tolerance:0.25 (float_of_int cap_peak));
        ("spill_bytes", Report.metric ~unit_:"B" ~tolerance:0.25 (float_of_int spill_bytes));
        ("spill_runs", Report.metric ~tolerance:0.25 (float_of_int spill_runs));
        (* report-only: wall times and their ratio are machine-dependent *)
        ("mem_s", Report.metric ~unit_:"s" mem_s);
        ("capped_s", Report.metric ~unit_:"s" cap_s);
        ("slowdown", Report.metric ~unit_:"x" slowdown);
      ]
    ~counters:
      [
        (* bench/check.ml refuses a fresh report where these are zero *)
        ("sort.spill_bytes", spill_bytes);
        ("sort.spill_runs", spill_runs);
      ]
    ~histograms:(Obs.Histogram.snapshot ())
    ~series:
      (Json.J_obj
         [ ("in_memory", H.json_of_timing mem_t); ("capped", H.json_of_timing cap_t) ]);
  H.note "wrote BENCH_spill.json"
