open Holistic_storage

type backend =
  | Mst
  | Mst_no_cascade
  | Naive
  | Incremental
  | Incremental_serial
  | Order_statistic
  | Segment_tree

type agg_kind = Count_star | Count | Sum | Avg | Min | Max

type value_func = { arg : Expr.t; order : Sort_spec.t; ignore_nulls : bool }

type func =
  | Aggregate of { kind : agg_kind; arg : Expr.t option; distinct : bool }
  | Rank of Sort_spec.t
  | Dense_rank of Sort_spec.t
  | Row_number of Sort_spec.t
  | Percent_rank of Sort_spec.t
  | Cume_dist of Sort_spec.t
  | Ntile of int * Sort_spec.t
  | Percentile_disc of float * Sort_spec.t
  | Percentile_cont of float * Sort_spec.t
  | First_value of value_func
  | Last_value of value_func
  | Nth_value of int * bool * value_func
  | Lead of int * Expr.t option * value_func
  | Lag of int * Expr.t option * value_func
  | Mode of Expr.t

type t = { func : func; filter : Expr.t option; algorithm : backend option; name : string }

let make ?filter ?algorithm ~name func = { func; filter; algorithm; name }

let aggregate ?filter ?algorithm ~name kind arg distinct =
  make ?filter ?algorithm ~name (Aggregate { kind; arg; distinct })

let count_star ?filter ?algorithm ~name () =
  aggregate ?filter ?algorithm ~name Count_star None false

let count ?filter ?algorithm ?(distinct = false) ~name e =
  aggregate ?filter ?algorithm ~name Count (Some e) distinct

let sum ?filter ?algorithm ?(distinct = false) ~name e =
  aggregate ?filter ?algorithm ~name Sum (Some e) distinct

let avg ?filter ?algorithm ?(distinct = false) ~name e =
  aggregate ?filter ?algorithm ~name Avg (Some e) distinct

let min_ ?filter ?algorithm ~name e = aggregate ?filter ?algorithm ~name Min (Some e) false
let max_ ?filter ?algorithm ~name e = aggregate ?filter ?algorithm ~name Max (Some e) false
let rank ?filter ?algorithm ~name order = make ?filter ?algorithm ~name (Rank order)

let dense_rank ?filter ?algorithm ~name order =
  make ?filter ?algorithm ~name (Dense_rank order)

let row_number ?filter ?algorithm ~name order =
  make ?filter ?algorithm ~name (Row_number order)

let percent_rank ?filter ?algorithm ~name order =
  make ?filter ?algorithm ~name (Percent_rank order)

let cume_dist ?filter ?algorithm ~name order = make ?filter ?algorithm ~name (Cume_dist order)

let ntile ?filter ?algorithm ~name n order =
  if n < 1 then invalid_arg "Window_func.ntile: bucket count must be positive";
  make ?filter ?algorithm ~name (Ntile (n, order))

let percentile_disc ?filter ?algorithm ~name p order =
  if p < 0.0 || p > 1.0 then invalid_arg "Window_func.percentile_disc: fraction out of [0,1]";
  make ?filter ?algorithm ~name (Percentile_disc (p, order))

let percentile_cont ?filter ?algorithm ~name p order =
  if p < 0.0 || p > 1.0 then invalid_arg "Window_func.percentile_cont: fraction out of [0,1]";
  make ?filter ?algorithm ~name (Percentile_cont (p, order))

let median ?filter ?algorithm ~name e =
  percentile_disc ?filter ?algorithm ~name 0.5 [ Sort_spec.asc e ]

let mode ?filter ?algorithm ~name e = make ?filter ?algorithm ~name (Mode e)

let value_func ?(ignore_nulls = false) ?(order = []) arg = { arg; order; ignore_nulls }

let first_value ?filter ?algorithm ?ignore_nulls ?order ~name arg =
  make ?filter ?algorithm ~name (First_value (value_func ?ignore_nulls ?order arg))

let last_value ?filter ?algorithm ?ignore_nulls ?order ~name arg =
  make ?filter ?algorithm ~name (Last_value (value_func ?ignore_nulls ?order arg))

let nth_value ?filter ?algorithm ?ignore_nulls ?order ?(from_last = false) ~name n arg =
  if n < 1 then invalid_arg "Window_func.nth_value: n must be >= 1";
  make ?filter ?algorithm ~name (Nth_value (n, from_last, value_func ?ignore_nulls ?order arg))

let lead ?filter ?algorithm ?ignore_nulls ?order ?(offset = 1) ?default ~name arg =
  make ?filter ?algorithm ~name (Lead (offset, default, value_func ?ignore_nulls ?order arg))

let lag ?filter ?algorithm ?ignore_nulls ?order ?(offset = 1) ?default ~name arg =
  make ?filter ?algorithm ~name (Lag (offset, default, value_func ?ignore_nulls ?order arg))

let class_name t =
  match t.func with
  | Aggregate { kind; distinct; _ } ->
      let base =
        match kind with
        | Count_star -> "count(*)"
        | Count -> "count"
        | Sum -> "sum"
        | Avg -> "avg"
        | Min -> "min"
        | Max -> "max"
      in
      if distinct then base ^ " distinct" else base
  | Rank _ -> "rank"
  | Dense_rank _ -> "dense_rank"
  | Row_number _ -> "row_number"
  | Percent_rank _ -> "percent_rank"
  | Cume_dist _ -> "cume_dist"
  | Ntile _ -> "ntile"
  | Percentile_disc _ -> "percentile_disc"
  | Percentile_cont _ -> "percentile_cont"
  | First_value _ -> "first_value"
  | Last_value _ -> "last_value"
  | Nth_value _ -> "nth_value"
  | Lead _ -> "lead"
  | Lag _ -> "lag"
  | Mode _ -> "mode"
