(* The [calibrate] experiment: micro-measures the per-operation unit costs
   that {!Holistic_window.Cost_model} predicts evaluation time from, prints
   the measured table next to the committed constants, and emits a
   paste-ready [Cost_model.default] literal.  The committed table in
   lib/window/cost_model.ml is a snapshot of one such run (see its version
   comment); re-run this experiment and paste when the constants drift on
   new hardware or after kernel changes.

   Everything here is report-only: unit costs are machine-dependent, so
   BENCH_calibrate.json carries no gated metric — the regression gate
   exercises the *decisions* (bench/evaluator_choice.ml), not the raw
   nanoseconds. *)

module H = Harness
module Json = Holistic_util.Json
module Cost = Holistic_window.Cost_model
module Mstw = Holistic_core.Mst_width
module Inc = Holistic_baselines.Incremental
module Ost = Holistic_baselines.Order_statistic_tree
module Seg = Holistic_baselines.Segment_tree
module Rng = Holistic_util.Rng

module Int_sum = Seg.Make (struct
  type t = int

  let identity = 0
  let combine = ( + )
end)

(* Matches the Window_plan defaults the model is consulted under. *)
let fanout = 32

let log2f n = Float.max 1.0 (Float.log (Float.max 2.0 (float_of_int n)) /. Float.log 2.0)

(* Best of [reps] timings of [f], in ns per one of [ops] operations. *)
let per_op ~reps ~ops f =
  let best = ref infinity in
  for _ = 1 to reps do
    H.gc_settle ();
    let t = H.time f in
    if t < !best then best := t
  done;
  !best *. 1e9 /. float_of_int ops

let run ~rows () =
  H.section "calibrate: cost-model unit constants";
  let n = max 4_096 rows in
  let w_small = 64 and w_large = 4_096 in
  let rng = Rng.create 7 in
  let data = Array.init n (fun _ -> Rng.int rng n) in
  H.note "n = %d, frames %d/%d, fanout %d" n w_small w_large fanout;
  let levels = Cost.mst_levels ~fanout n in

  (* MST: build per row per level; probe (a windowed count) per row per
     level, measured with the tree built once. *)
  let mst_build_ns = per_op ~reps:3 ~ops:(n * levels) (fun () -> Mstw.create ~fanout data) in
  let tree = Mstw.create ~fanout data in
  let probe w =
    per_op ~reps:3 ~ops:(n * levels) (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + Mstw.count tree ~lo:(max 0 (i - w)) ~hi:(i + 1) ~less_than:data.(i)
        done;
        acc)
  in
  let mst_probe_ns = 0.5 *. (probe w_small +. probe w_large) in

  (* Segment tree: build per row; probe per row per log2 n. *)
  let seg_build_ns = per_op ~reps:3 ~ops:n (fun () -> Int_sum.create n (fun i -> data.(i))) in
  let seg = Int_sum.create n (fun i -> data.(i)) in
  let seg_probe_ns =
    per_op ~reps:3 ~ops:(int_of_float (float_of_int n *. log2f n)) (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + Int_sum.query seg ~lo:(max 0 (i - w_large)) ~hi:(i + 1)
        done;
        acc)
  in

  (* Naive: one summed frame scan per row. *)
  let naive_row_ns =
    per_op ~reps:3 ~ops:(n * w_small) (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          for j = max 0 (i - w_small + 1) to i do
            acc := !acc + data.(j)
          done
        done;
        acc)
  in

  (* Naive holistic kernels: per frame row, a hash-table rebuild
     (distinct count) and a copy + quickselect (median). *)
  let naive_hash_ns =
    per_op ~reps:3 ~ops:(n * w_small) (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc :=
            !acc
            + Holistic_baselines.Naive.distinct_count data
                ~ranges:[| (max 0 (i - w_small + 1), i + 1) |]
        done;
        acc)
  in
  let naive_select_ns =
    let scratch = Array.make w_small 0 in
    per_op ~reps:3 ~ops:(n * w_small) (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          let lo = max 0 (i - w_small + 1) in
          acc :=
            !acc
            + Holistic_baselines.Naive.select_kth data ~scratch ~ranges:[| (lo, i + 1) |]
                ~k:((i + 1 - lo) / 2)
        done;
        acc)
  in

  (* Incremental distinct state: one add + one remove per slid row. *)
  let inc_update_ns =
    let st = Inc.Distinct_count.create () in
    per_op ~reps:3 ~ops:(2 * n) (fun () ->
        Inc.Distinct_count.clear st;
        for i = 0 to n - 1 do
          Inc.Distinct_count.add st data.(i);
          if i >= w_small then Inc.Distinct_count.remove st data.(i - w_small);
          ignore (Inc.Distinct_count.count st)
        done)
  in

  (* Sorted window: each add/remove memmoves about half the window, so the
     slide shifts ~w elements per row. *)
  let sw_shift_ns =
    let sw = Inc.Sorted_window.create () in
    per_op ~reps:3 ~ops:(n * w_large) (fun () ->
        Inc.Sorted_window.clear sw;
        for i = 0 to n - 1 do
          Inc.Sorted_window.add sw data.(i);
          if i >= w_large then Inc.Sorted_window.remove sw data.(i - w_large);
          ignore (Inc.Sorted_window.select sw (Inc.Sorted_window.size sw / 2))
        done)
  in

  (* Counted B-tree: insert + remove + select per slid row, each O(log w). *)
  let ost_update_ns =
    let t = Ost.create () in
    per_op ~reps:3
      ~ops:(int_of_float (3.0 *. float_of_int n *. log2f w_large))
      (fun () ->
        Ost.clear t;
        for i = 0 to n - 1 do
          Ost.insert t data.(i);
          if i >= w_large then Ost.remove t data.(i - w_large);
          ignore (Ost.select t (Ost.size t / 2))
        done)
  in

  let d = Cost.default in
  let measured =
    [
      ("mst_build_ns", mst_build_ns, d.Cost.mst_build_ns);
      ("mst_probe_ns", mst_probe_ns, d.Cost.mst_probe_ns);
      ("seg_build_ns", seg_build_ns, d.Cost.seg_build_ns);
      ("seg_probe_ns", seg_probe_ns, d.Cost.seg_probe_ns);
      ("naive_row_ns", naive_row_ns, d.Cost.naive_row_ns);
      ("naive_hash_ns", naive_hash_ns, d.Cost.naive_hash_ns);
      ("naive_select_ns", naive_select_ns, d.Cost.naive_select_ns);
      ("inc_update_ns", inc_update_ns, d.Cost.inc_update_ns);
      ("sw_shift_ns", sw_shift_ns, d.Cost.sw_shift_ns);
      ("ost_update_ns", ost_update_ns, d.Cost.ost_update_ns);
    ]
  in
  H.print_table ~header:[ "constant"; "measured"; "committed"; "ratio" ]
    ~rows:
      (List.map
         (fun (k, m, c) ->
           [ k; Printf.sprintf "%.2f" m; Printf.sprintf "%.2f" c; Printf.sprintf "%.2fx" (m /. c) ])
         measured);
  H.note "paste into lib/window/cost_model.ml to recalibrate:";
  Printf.printf
    "  let default =\n\
    \    {\n\
    \      version = %d;\n\
    \      mst_build_ns = %.1f;\n\
    \      mst_probe_ns = %.1f;\n\
    \      seg_build_ns = %.1f;\n\
    \      seg_probe_ns = %.1f;\n\
    \      naive_row_ns = %.2f;\n\
    \      naive_hash_ns = %.2f;\n\
    \      naive_select_ns = %.2f;\n\
    \      inc_update_ns = %.1f;\n\
    \      sw_shift_ns = %.2f;\n\
    \      ost_update_ns = %.1f;\n\
    \      choice_floor_ns = %.0f.0;\n\
    \    }\n"
    (d.Cost.version + 1) mst_build_ns mst_probe_ns seg_build_ns seg_probe_ns naive_row_ns
    naive_hash_ns naive_select_ns inc_update_ns sw_shift_ns ost_update_ns d.Cost.choice_floor_ns;
  Report.write "BENCH_calibrate.json" ~experiment:"calibrate"
    ~params:
      [
        ("rows", Json.J_int n);
        ("w_small", Json.J_int w_small);
        ("w_large", Json.J_int w_large);
        ("fanout", Json.J_int fanout);
      ]
    ~metrics:
      (List.map (fun (k, m, _) -> (k, Report.metric ~unit_:"ns" m)) measured
      @ [ ("model_version", Report.metric (float_of_int d.Cost.version)) ]);
  H.note "wrote BENCH_calibrate.json (report-only; the gate checks decisions, not nanoseconds)"
