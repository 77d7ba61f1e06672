(* Calibrated per-clause cost model (paper Figs. 10–12; Cao et al. frame
   per-clause algorithm choice as a planning decision).  Every eligible
   backend gets a predicted per-partition evaluation time in nanoseconds
   from a handful of per-primitive unit costs; [choose] picks the cheapest
   but only leaves [Evaluator_choice.default] when the predicted total saving
   across all partitions clears [choice_floor_ns] — small inputs keep the
   exact historical plans (and their sharing counters, EXPLAIN goldens and
   fuzz behaviour) by construction.

   The unit costs are fitted by [bench/calibrate.ml] (micro-benchmarks of
   the actual structures) and committed here as a versioned table; rerun
   the calibration and paste its suggested literal to refit.  Decisions
   must stay deterministic across pool sizes — the inputs deliberately
   exclude the domain count, so the fuzz determinism leg's stats equality
   at 1/2/4 domains holds. *)

module Ec = Evaluator_choice

type constants = {
  version : int;
  mst_build_ns : float;  (* per row per tree level *)
  mst_probe_ns : float;  (* per probed row per tree level *)
  seg_build_ns : float;  (* per row *)
  seg_probe_ns : float;  (* per probed row per log2 n *)
  naive_row_ns : float;  (* per scanned frame row (plain scans, count_less) *)
  naive_hash_ns : float;  (* per frame row when each frame rebuilds a hash table *)
  naive_select_ns : float;  (* per frame row when each frame copies + quickselects *)
  inc_update_ns : float;  (* per incremental add/remove/result op *)
  sw_shift_ns : float;  (* per element shifted by a sorted-window memmove *)
  ost_update_ns : float;  (* per counted-B-tree op per log2 frame *)
  choice_floor_ns : float;  (* predicted total saving needed to leave the default *)
}

(* calibrate-v2, fitted on the CI baseline host (see EXPERIMENTS.md):
   bench/calibrate.ml, n = 262144, frames 64/4096.  The floor is sized so
   that sub-millisecond plans (unit tests, EXPLAIN goldens, the fuzz
   corpus) never leave [Evaluator_choice.default]: the largest predicted saving
   on a ~600-row input is a few hundred microseconds. *)
let default =
  {
    version = 2;
    mst_build_ns = 57.8;
    mst_probe_ns = 420.4;
    seg_build_ns = 9.4;
    seg_probe_ns = 8.2;
    naive_row_ns = 1.46;
    naive_hash_ns = 23.1;
    naive_select_ns = 17.5;
    inc_update_ns = 58.0;
    sw_shift_ns = 1.44;
    ost_update_ns = 10.3;
    choice_floor_ns = 2_000_000.0;
  }

type inputs = {
  rows : int;  (* average partition rows *)
  nparts : int;
  frame_rows : float;  (* estimated average frame extent, in rows *)
  monotonic : bool;  (* both frame endpoints advance with the row *)
  holed : bool;
  cls : Ec.func_class;
  task_size : int;
  fanout : int;
}

(* ------------------------------------------------------------------ *)
(* Frame-shape estimation                                              *)
(* ------------------------------------------------------------------ *)

(* Crude by design: constant ROWS offsets are exact; a frame anchored at a
   partition edge averages n/2; bounded RANGE/GROUPS extents depend on the
   data so we guess a small fraction; data-dependent offsets additionally
   lose monotonicity (the incremental drivers then morph disjoint frames).
   Only relative order of the candidates matters, and the decision floor
   absorbs estimation error on small inputs. *)
let estimate_frame (spec : Window_spec.t) ~rows =
  let n = float_of_int (max 1 rows) in
  match spec.Window_spec.frame with
  | None -> (Float.max 1.0 (n /. 2.0), true) (* RANGE UNBOUNDED PRECEDING .. CURRENT ROW *)
  | Some f ->
      let const_off = function
        | Window_spec.Current_row -> Some 0
        | Window_spec.Preceding (Holistic_storage.Expr.Const (Holistic_storage.Value.Int k)) ->
            Some (-k)
        | Window_spec.Following (Holistic_storage.Expr.Const (Holistic_storage.Value.Int k)) ->
            Some k
        | _ -> None
      in
      let data_dep = function
        | Window_spec.Preceding e | Window_spec.Following e -> (
            match e with Holistic_storage.Expr.Const _ -> false | _ -> true)
        | _ -> false
      in
      let monotonic = not (data_dep f.start_bound || data_dep f.end_bound) in
      let edge_anchored =
        match (f.start_bound, f.end_bound) with
        | Window_spec.Unbounded_preceding, _ | _, Window_spec.Unbounded_following -> true
        | _ -> false
      in
      let w =
        match (f.start_bound, f.end_bound) with
        | Window_spec.Unbounded_preceding, Window_spec.Unbounded_following -> n
        | _ when f.mode = Window_spec.Rows -> (
            match (const_off f.start_bound, const_off f.end_bound) with
            | Some a, Some b -> Float.min n (float_of_int (max 1 (b - a + 1)))
            | _ -> if edge_anchored then n /. 2.0 else n /. 4.0)
        | _ -> if edge_anchored then n /. 2.0 else n /. 8.0
      in
      (Float.max 1.0 w, monotonic)

(* ------------------------------------------------------------------ *)
(* Per-backend cost                                                    *)
(* ------------------------------------------------------------------ *)

let mst_levels ~fanout n =
  let fanout = max 2 fanout in
  let rec go acc cap = if cap >= n then acc else go (acc + 1) (cap * fanout) in
  max 1 (go 0 1)

(* Predicted evaluation time for one partition, in nanoseconds.  [sunk]
   lists backends whose index structure is already cached for this item
   (a session kept it across queries): their build term is spent, so only
   probes count — which can flip a choice towards the structure that
   exists.  Only the structure-building backends have a build term. *)
let cost ?(sunk = []) c (i : inputs) name =
  let built = List.mem name sunk in
  let n = float_of_int (max 1 i.rows) in
  let w = Float.max 1.0 (Float.min n i.frame_rows) in
  let lg x = Float.log (Float.max 2.0 x) /. Float.log 2.0 in
  let lv = float_of_int (mst_levels ~fanout:i.fanout i.rows) in
  let tasks = float_of_int (max 1 ((i.rows + i.task_size - 1) / i.task_size)) in
  (* monotonic frames enter/leave each row once; otherwise the driver morphs
     between (possibly disjoint) frames, re-adding ~w rows per step *)
  let updates = if i.monotonic then 2.0 *. n else Float.min (2.0 *. n *. w) (2.0 *. n *. n) in
  (* every task restarts its state by inserting one frame from scratch *)
  let rebuilds = tasks *. w in
  (* what naive recomputation does per frame row differs sharply by class:
     plain scans stream, the distinct/mode classes rebuild a hash table per
     frame, the percentile classes copy and quickselect *)
  let naive_ns =
    match i.cls with
    | Ec.C_distinct_count | Ec.C_distinct_sum_avg | Ec.C_mode | Ec.C_dense_rank -> c.naive_hash_ns
    | Ec.C_select -> c.naive_select_ns
    | Ec.C_trivial_count | Ec.C_plain_agg | Ec.C_rank -> c.naive_row_ns
  in
  let build x = if built then 0.0 else x in
  match name with
  | Ec.Naive -> n *. w *. naive_ns
  | Ec.Segment_tree -> build (n *. c.seg_build_ns) +. (n *. lg n *. c.seg_probe_ns)
  | Ec.Mst -> build (n *. lv *. c.mst_build_ns) +. (n *. lv *. c.mst_probe_ns)
  | Ec.Mst_no_cascade ->
      (* no cascade samples: each probe re-binary-searches every level *)
      build (n *. lv *. c.mst_build_ns) +. (1.5 *. n *. lv *. c.mst_probe_ns)
  | Ec.Incremental | Ec.Incremental_serial ->
      let per_op =
        c.inc_update_ns
        +. (if i.cls = Ec.C_select then 0.5 *. w *. c.sw_shift_ns else 0.0)
      in
      (updates +. rebuilds) *. per_op
  | Ec.Order_statistic -> (updates +. rebuilds +. n) *. lg w *. c.ost_update_ns

(* ------------------------------------------------------------------ *)
(* Choice                                                              *)
(* ------------------------------------------------------------------ *)

(* [Mst_no_cascade] (MST at sample 0) and [Incremental_serial]
   (incremental as one task) are reached only by pinned items; an unpinned
   item never resolves to them (same answers, strictly dominated cost
   under the model). *)
let auto_candidates = [ Ec.Mst; Ec.Segment_tree; Ec.Naive; Ec.Incremental; Ec.Order_statistic ]

type decision = {
  chosen : Ec.name;
  default : Ec.name;
  scores : (Ec.name * float) list;  (* per-partition ns for every candidate, incl. chosen *)
}

let choose ?sunk c (i : inputs) =
  let default = Ec.default i.cls ~holed:i.holed in
  let cands = List.filter (fun n -> Ec.supports n i.cls ~holed:i.holed) auto_candidates in
  let cands = if List.mem default cands then cands else default :: cands in
  let scores = List.map (fun n -> (n, cost ?sunk c i n)) cands in
  let best, best_cost =
    List.fold_left
      (fun (bn, bc) (n, x) -> if x < bc then (n, x) else (bn, bc))
      (default, List.assoc default scores)
      scores
  in
  let saving = (List.assoc default scores -. best_cost) *. float_of_int (max 1 i.nparts) in
  let chosen = if saving > c.choice_floor_ns then best else default in
  { chosen; default; scores }
