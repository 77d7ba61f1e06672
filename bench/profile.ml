(* Fig. 14: phase breakdown of a framed running COUNT DISTINCT, built from
   the same library pieces the window operator uses, with an [Obs.span]
   around each pipeline phase (paper §6.7).  Running under [Obs.with_capture]
   means the capture also picks up the library's own spans (sort.runs,
   sort.merge, ...) nested below the phases, so besides the printed table we
   can emit the whole execution as a Chrome trace_event file. *)

module Json = Holistic_util.Json
open Holistic_storage
module Task_pool = Holistic_parallel.Task_pool
module Parallel_sort = Holistic_sort.Parallel_sort
module Mst = Holistic_core.Mst
module Bs = Holistic_util.Binary_search
module Obs = Holistic_obs.Obs

let phases table =
  let pool = Harness.pool () in
  let n = Table.nrows table in
  let phase name f = Obs.span name f in
  (* --- window operator set-up: order by l_shipdate ------------------- *)
  let ship, partkey =
    phase "partition input" (fun () ->
        match
          Column.data (Table.column table "l_shipdate"),
          Column.data (Table.column table "l_partkey")
        with
        | Column.Dates s, Column.Ints p -> (Array.copy s, p)
        | _ -> invalid_arg "unexpected schema")
  in
  let perm = Array.init n (fun i -> i) in
  let order_runs =
    phase "sort by frame order (runs)" (fun () ->
        Parallel_sort.sort_runs pool ~key:ship ~payload:perm ())
  in
  phase "sort by frame order (merge)" (fun () ->
      Parallel_sort.merge_runs pool ~key:ship ~payload:perm ~runs:order_runs);
  (* --- Algorithm 1 --------------------------------------------------- *)
  let ids = phase "populate value array" (fun () -> Array.map (fun row -> partkey.(row)) perm) in
  let key = Array.copy ids in
  let pos = Array.init n (fun i -> i) in
  let value_runs =
    phase "sort values (runs)" (fun () -> Parallel_sort.sort_runs pool ~key ~payload:pos ())
  in
  phase "sort values (merge)" (fun () ->
      Parallel_sort.merge_runs pool ~key ~payload:pos ~runs:value_runs);
  let prev =
    phase "compute prevIdcs" (fun () ->
        let prev = Array.make n 0 in
        Task_pool.parallel_for pool ~lo:0 ~hi:n ~chunk:Task_pool.default_task_size (fun lo hi ->
            for i = max lo 1 to hi - 1 do
              if key.(i) = key.(i - 1) then prev.(pos.(i)) <- pos.(i - 1) + 1
            done);
        prev)
  in
  (* --- merge sort tree ----------------------------------------------- *)
  let tree =
    phase "build merge sort tree" (fun () ->
        let t = Mst.create ~pool prev in
        Obs.record_bytes (fun () -> Mst.footprint_bytes t);
        t)
  in
  (* --- probe ---------------------------------------------------------- *)
  let out = Array.make n 0 in
  phase "compute results" (fun () ->
      Task_pool.parallel_for pool ~lo:0 ~hi:n ~chunk:Task_pool.default_task_size (fun lo hi ->
          for i = lo to hi - 1 do
            (* running frame: unbounded preceding .. end of the current
               row's date peer group *)
            let hi_frame = Bs.upper_bound ship ~lo:0 ~hi:n ship.(i) in
            out.(i) <- Mst.count tree ~lo:0 ~hi:hi_frame ~less_than:1
          done));
  (out, Mst.footprint_bytes tree)

let trace_file = "TRACE_profile.json"

let run ~rows =
  let table = Holistic_data.Tpch.lineitem ~rows () in
  Harness.gc_settle ();
  let (out, mst_bytes), trace = Obs.with_capture (fun () -> phases table) in
  (* Self-times: each span's duration minus its children, so the library
     spans nested below the phases (sort.runs, sort.merge, ...) show up as
     their own rows instead of being double-counted inside their parents. *)
  let timers = List.map (fun (name, (_count, secs)) -> (name, secs)) (Obs.self_totals trace) in
  let total = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 timers in
  Harness.note "rows: %d, total %.3f s, final running distinct count: %d" rows total
    out.(rows - 1);
  Harness.note "merge sort tree footprint: %s" (Obs.human_bytes mst_bytes);
  Harness.print_table
    ~header:[ "phase (self time)"; "seconds"; "share"; "" ]
    ~rows:
      (List.map
         (fun (name, t) ->
           let share = t /. total in
           [
             name;
             Printf.sprintf "%.3f" t;
             Printf.sprintf "%4.1f%%" (100.0 *. share);
             String.make (int_of_float (40.0 *. share)) '#';
           ])
         timers);
  Obs.write_chrome_trace trace_file trace;
  Report.write "BENCH_fig14.json" ~experiment:"fig14"
    ~params:[ ("rows", Json.J_int rows) ]
    ~metrics:
      ([
         (* gated: the tree footprint is deterministic for a fixed input *)
         ("mst_bytes", Report.metric ~unit_:"B" ~tolerance:0.2 (float_of_int mst_bytes));
         (* report-only absolute times *)
         ("total_s", Report.metric ~unit_:"s" total);
       ]
      @ List.map
          (fun (name, t) -> ("self." ^ name, Report.metric ~unit_:"s" t))
          timers)
    ~counters:trace.Obs.counters
    ~series:
      (Json.J_obj (List.map (fun (name, t) -> (name, Json.J_float t)) timers));
  Harness.note "wrote BENCH_fig14.json";
  timers
