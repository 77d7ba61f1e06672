(* First-class names for the evaluation backends and their capability
   matrix.  This is the planning-time view of the
   evaluator zoo: [Window_plan] classifies every item, asks [supports] which
   backends can run it, and (for Auto items) lets [Cost_model] pick among
   them.  The evaluator bodies in [Evaluators] stay keyed on
   [Window_func.algorithm]; [to_algorithm]/[of_algorithm] translate. *)

open Window_func

type name =
  | Mst
  | Mst_no_cascade
  | Naive
  | Incremental
  | Incremental_serial
  | Order_statistic
  | Segment_tree

let all =
  [ Mst; Mst_no_cascade; Naive; Incremental; Incremental_serial; Order_statistic; Segment_tree ]

let to_string = function
  | Mst -> "mst"
  | Mst_no_cascade -> "mst-no-cascade"
  | Naive -> "naive"
  | Incremental -> "incremental"
  | Incremental_serial -> "incremental-serial"
  | Order_statistic -> "ost"
  | Segment_tree -> "segment-tree"

let of_string s =
  (* accept both "-" and "_" spellings so env vars read naturally *)
  match String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s) with
  | "mst" -> Some Mst
  | "mst-no-cascade" -> Some Mst_no_cascade
  | "naive" -> Some Naive
  | "incremental" -> Some Incremental
  | "incremental-serial" -> Some Incremental_serial
  | "ost" | "order-statistic" -> Some Order_statistic
  | "segment-tree" -> Some Segment_tree
  | _ -> None

let to_algorithm = function
  | Mst -> Window_func.Mst
  | Mst_no_cascade -> Window_func.Mst_no_cascade
  | Naive -> Window_func.Naive
  | Incremental -> Window_func.Incremental
  | Incremental_serial -> Window_func.Incremental_serial
  | Order_statistic -> Window_func.Order_statistic
  | Segment_tree -> Window_func.Segment_tree

let of_algorithm = function
  | Window_func.Auto -> None
  | Window_func.Mst -> Some Mst
  | Window_func.Mst_no_cascade -> Some Mst_no_cascade
  | Window_func.Naive -> Some Naive
  | Window_func.Incremental -> Some Incremental
  | Window_func.Incremental_serial -> Some Incremental_serial
  | Window_func.Order_statistic -> Some Order_statistic
  | Window_func.Segment_tree -> Some Segment_tree

(* ------------------------------------------------------------------ *)
(* Function classes                                                    *)
(* ------------------------------------------------------------------ *)

type func_class =
  | C_trivial_count
  | C_plain_agg
  | C_distinct_count
  | C_distinct_sum_avg
  | C_mode
  | C_rank
  | C_dense_rank
  | C_select

let classify (item : Window_func.t) =
  match item.func with
  | Aggregate { kind = Count_star; _ } -> C_trivial_count
  | Aggregate { kind = Count; distinct = false; _ } -> C_trivial_count
  | Aggregate { kind = Count; distinct = true; _ } -> C_distinct_count
  | Aggregate { kind = Sum | Avg; distinct = true; _ } -> C_distinct_sum_avg
  | Aggregate _ -> C_plain_agg (* MIN/MAX DISTINCT ≡ MIN/MAX *)
  | Rank _ | Row_number _ | Percent_rank _ | Cume_dist _ | Ntile _ -> C_rank
  | Dense_rank _ -> C_dense_rank
  | Percentile_disc _ | Percentile_cont _ | First_value _ | Last_value _ | Nth_value _
  | Lead _ | Lag _ ->
      C_select
  | Mode _ -> C_mode

let class_to_string = function
  | C_trivial_count -> "count"
  | C_plain_agg -> "plain aggregate"
  | C_distinct_count -> "distinct count"
  | C_distinct_sum_avg -> "distinct sum/avg"
  | C_mode -> "mode"
  | C_rank -> "rank function"
  | C_dense_rank -> "dense_rank"
  | C_select -> "percentile/value function"

(* Mirrors the dispatch matrix in [Evaluators] exactly: a (backend, class)
   pair is supported iff the evaluator body implements it; every other
   pair is an [unsupported] arm there.  Backends driven through
   [Evaluators.incremental_drive] cannot evaluate frames with exclusion
   holes; [holed] gates them out. *)
let supports name cls ~holed =
  match cls with
  | C_trivial_count -> true (* remap + prefix counts; no per-backend structure *)
  | C_plain_agg -> ( match name with Segment_tree | Naive -> true | _ -> false)
  | C_distinct_count -> (
      match name with
      | Mst | Mst_no_cascade | Naive -> true
      | Incremental | Incremental_serial -> not holed
      | Order_statistic | Segment_tree -> false)
  | C_distinct_sum_avg -> ( match name with Mst | Mst_no_cascade | Naive -> true | _ -> false)
  | C_mode -> (
      match name with
      | Naive -> true
      | Incremental | Incremental_serial -> not holed
      | _ -> false)
  | C_rank -> (
      match name with
      | Mst | Mst_no_cascade | Naive -> true
      | Order_statistic -> not holed
      | _ -> false)
  | C_dense_rank -> ( match name with Mst | Mst_no_cascade | Naive -> true | _ -> false)
  | C_select -> (
      match name with
      | Mst | Mst_no_cascade | Naive -> true
      | Incremental | Incremental_serial | Order_statistic -> not holed
      | Segment_tree -> false)

let supported_names cls ~holed = List.filter (fun n -> supports n cls ~holed) all

let unsupported_message name cls ~holed =
  Printf.sprintf "Window: evaluator %s does not support %s%s (supported: %s)" (to_string name)
    (class_to_string cls)
    (if holed && supports name cls ~holed:false then " over frames with exclusion holes" else "")
    (String.concat "/" (List.map to_string (supported_names cls ~holed)))
