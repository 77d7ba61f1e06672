(* The evaluation backends by name, the one (backend, function-class)
   capability table and the one default.  [Window_plan] classifies every
   item, checks a pinned backend with [supports] and resolves an unpinned
   one through [Cost_model], which starts from [default];
   [Evaluators.eval_item] checks the same table and takes the same default
   at its entry, so a backend runs a class exactly when [supports] says it
   does. *)

open Window_func

type name = Window_func.backend =
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

let to_algorithm nm = Some nm

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

(* A (backend, class) pair is supported iff the evaluator body implements
   it.  The no-cascade and serial variants run as settings of [Mst] and
   [Incremental], so they share their rows.  Backends driven through
   [Evaluators.incremental_drive] cannot evaluate frames with exclusion
   holes; [holed] gates them out. *)
let rec supports name cls ~holed =
  match name, cls with
  | Mst_no_cascade, _ -> supports Mst cls ~holed
  | Incremental_serial, _ -> supports Incremental cls ~holed
  | _, C_trivial_count -> true (* remap + prefix counts; no per-backend structure *)
  | _, C_plain_agg -> ( match name with Segment_tree | Naive -> true | _ -> false)
  | _, (C_distinct_sum_avg | C_dense_rank) -> ( match name with Mst | Naive -> true | _ -> false)
  | _, C_distinct_count -> (
      match name with Mst | Naive -> true | Incremental -> not holed | _ -> false)
  | _, C_mode -> ( match name with Naive -> true | Incremental -> not holed | _ -> false)
  | _, C_rank -> ( match name with Mst | Naive -> true | Order_statistic -> not holed | _ -> false)
  | _, C_select -> (
      match name with
      | Mst | Naive -> true
      | Incremental | Order_statistic -> not holed
      | _ -> false)

(* What the planner picked before the cost model existed: the tie-keeper,
   the pick whenever the predicted saving is inside the floor, and the
   backend of an item that reaches the evaluators unpinned. *)
let default cls ~holed =
  match cls with
  | C_plain_agg -> Segment_tree
  | C_mode -> if holed then Naive else Incremental
  | _ -> Mst

let supported_names cls ~holed = List.filter (fun n -> supports n cls ~holed) all

let unsupported_message name cls ~holed =
  Printf.sprintf "Window: evaluator %s does not support %s%s (supported: %s)" (to_string name)
    (class_to_string cls)
    (if holed && supports name cls ~holed:false then " over frames with exclusion holes" else "")
    (String.concat "/" (List.map to_string (supported_names cls ~holed)))
