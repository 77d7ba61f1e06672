(** Window function descriptions, including the paper's proposed extensions
    (§2.4): DISTINCT aggregates over windows, and a second, function-local
    ORDER BY for rank functions, percentiles, value functions and LEAD/LAG —
    all freely combinable with arbitrary frames. *)

open Holistic_storage

(** An evaluation backend; the benchmark harness sweeps these.  Two of the
    seven are settings of another: [Mst_no_cascade] is [Mst] at sampling
    rate 0 and [Incremental_serial] is [Incremental] run as one task. *)
type backend =
  | Mst  (** merge sort tree with fractional cascading *)
  | Mst_no_cascade
      (** merge sort tree, cascading disabled — the "segment tree of sorted
          lists" competitor, O(n (log n)²) *)
  | Naive  (** per-frame recomputation (§5.5) *)
  | Incremental
      (** Wesley & Xu incremental state, driven by fixed-size tasks that each
          rebuild their state (the paper's parallelised competitor, §5.5) *)
  | Incremental_serial
      (** Wesley & Xu incremental state in one serial pass (DuckDB-style) *)
  | Order_statistic  (** counted-B-tree window state, task-driven *)
  | Segment_tree  (** distributive aggregates only *)

type agg_kind = Count_star | Count | Sum | Avg | Min | Max

type value_func = {
  arg : Expr.t;
  order : Sort_spec.t;  (** function-local ORDER BY; [\[\]] = window order *)
  ignore_nulls : bool;
}

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
      (** 1-based n; the flag is SQL:2011's FROM LAST (count from the frame's
          last row under the function order) *)
  | Lead of int * Expr.t option * value_func  (** offset, default *)
  | Lag of int * Expr.t option * value_func
  | Mode of Expr.t
      (** most frequent argument value in the frame, smallest value on ties —
          the third Wesley & Xu holistic aggregate (paper §3.1); evaluated by
          the incremental/naive competitors only (range mode has no known
          O(n log n) index structure) *)

type t = {
  func : func;
  filter : Expr.t option;  (** FILTER (WHERE …), §4.7 *)
  algorithm : backend option;
      (** the item's backend; [None] lets the plan decide
          ({!Evaluator_choice.default} or the cost model) *)
  name : string;  (** output column name *)
}

val make : ?filter:Expr.t -> ?algorithm:backend -> name:string -> func -> t

(** Convenience constructors. *)

val count_star : ?filter:Expr.t -> ?algorithm:backend -> name:string -> unit -> t
val count : ?filter:Expr.t -> ?algorithm:backend -> ?distinct:bool -> name:string -> Expr.t -> t
val sum : ?filter:Expr.t -> ?algorithm:backend -> ?distinct:bool -> name:string -> Expr.t -> t
val avg : ?filter:Expr.t -> ?algorithm:backend -> ?distinct:bool -> name:string -> Expr.t -> t
val min_ : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Expr.t -> t
val max_ : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Expr.t -> t
val rank : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Sort_spec.t -> t
val dense_rank : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Sort_spec.t -> t
val row_number : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Sort_spec.t -> t
val percent_rank : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Sort_spec.t -> t
val cume_dist : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Sort_spec.t -> t
val ntile : ?filter:Expr.t -> ?algorithm:backend -> name:string -> int -> Sort_spec.t -> t

val median : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Expr.t -> t
(** [percentile_disc 0.5] ordered by the expression ascending. *)

val mode : ?filter:Expr.t -> ?algorithm:backend -> name:string -> Expr.t -> t

val percentile_disc :
  ?filter:Expr.t -> ?algorithm:backend -> name:string -> float -> Sort_spec.t -> t

val percentile_cont :
  ?filter:Expr.t -> ?algorithm:backend -> name:string -> float -> Sort_spec.t -> t

val first_value :
  ?filter:Expr.t -> ?algorithm:backend -> ?ignore_nulls:bool -> ?order:Sort_spec.t ->
  name:string -> Expr.t -> t

val last_value :
  ?filter:Expr.t -> ?algorithm:backend -> ?ignore_nulls:bool -> ?order:Sort_spec.t ->
  name:string -> Expr.t -> t

val nth_value :
  ?filter:Expr.t -> ?algorithm:backend -> ?ignore_nulls:bool -> ?order:Sort_spec.t ->
  ?from_last:bool -> name:string -> int -> Expr.t -> t

val lead :
  ?filter:Expr.t -> ?algorithm:backend -> ?ignore_nulls:bool -> ?order:Sort_spec.t ->
  ?offset:int -> ?default:Expr.t -> name:string -> Expr.t -> t

val lag :
  ?filter:Expr.t -> ?algorithm:backend -> ?ignore_nulls:bool -> ?order:Sort_spec.t ->
  ?offset:int -> ?default:Expr.t -> name:string -> Expr.t -> t

val class_name : t -> string
(** The function class as a short lower-case label ("rank",
    "percentile_disc", "sum distinct", ...), for traces and EXPLAIN. *)
