(** Planning-time view of the evaluation backends: first-class names and
    the (backend, function-class) capability matrix.
    [Window_plan] classifies every window item with {!classify}, filters
    backends with {!supports}, and resolves [Auto] items through
    {!Cost_model}; forced picks (explicit item algorithm, the [?evaluator]
    knob) are validated here too. *)

(** One evaluation backend. Mirrors {!Window_func.algorithm} minus [Auto]
    — [Auto] is a request for a choice, not a backend. *)
type name =
  | Mst  (** merge sort tree with fractional cascading *)
  | Mst_no_cascade  (** merge sort tree, cascading disabled *)
  | Naive  (** per-frame recomputation *)
  | Incremental  (** Wesley & Xu state, task-parallel rebuilds *)
  | Incremental_serial  (** Wesley & Xu state, one serial pass *)
  | Order_statistic  (** counted B-tree window state *)
  | Segment_tree  (** distributive aggregates only *)

val all : name list

val to_string : name -> string
(** CLI spelling: "mst", "mst-no-cascade", "naive", "incremental",
    "incremental-serial", "ost", "segment-tree". *)

val of_string : string -> name option
(** Accepts the {!to_string} spellings with either ["-"] or ["_"],
    case-insensitively; ["order-statistic"] is an alias for ["ost"]. *)

val to_algorithm : name -> Window_func.algorithm
val of_algorithm : Window_func.algorithm -> name option
(** [None] exactly for [Auto]. *)

(** Function classes sharing one eligibility row and one cost shape.
    [C_trivial_count] (COUNT star and plain COUNT) is structure-free — every
    backend computes it identically from the qualifying-row remap, so no
    decision is made or recorded for it. *)
type func_class =
  | C_trivial_count
  | C_plain_agg
  | C_distinct_count
  | C_distinct_sum_avg
  | C_mode
  | C_rank
  | C_dense_rank
  | C_select

val classify : Window_func.t -> func_class
val class_to_string : func_class -> string

val supports : name -> func_class -> holed:bool -> bool
(** Whether the backend implements the class.  [holed] is true when the
    frame has exclusion holes, which rules out the incrementally-driven
    backends. *)

val unsupported_message : name -> func_class -> holed:bool -> string
(** Error text for rejecting a forced (backend, class) pair. *)
