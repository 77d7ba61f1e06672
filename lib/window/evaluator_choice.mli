(** The evaluation backends by name, the one (backend, function-class)
    capability table ({!supports}) and the one default ({!default}).
    [Window_plan] classifies every window item with {!classify}, checks a
    pinned backend against {!supports} and resolves an unpinned one
    through {!Cost_model}; [Evaluators.eval_item] checks the same table
    and takes the same default at its entry. *)

(** One evaluation backend: {!Window_func.backend} under its planning
    name. *)
type name = Window_func.backend =
  | Mst  (** merge sort tree with fractional cascading *)
  | Mst_no_cascade  (** [Mst] at sampling rate 0 *)
  | Naive  (** per-frame recomputation *)
  | Incremental  (** Wesley & Xu state, task-parallel rebuilds *)
  | Incremental_serial  (** [Incremental] run as one task per partition *)
  | Order_statistic  (** counted B-tree window state *)
  | Segment_tree  (** distributive aggregates only *)

val all : name list

val to_string : name -> string
(** CLI spelling: "mst", "mst-no-cascade", "naive", "incremental",
    "incremental-serial", "ost", "segment-tree". *)

val of_string : string -> name option
(** Accepts the {!to_string} spellings with either ["-"] or ["_"],
    case-insensitively; ["order-statistic"] is an alias for ["ost"]. *)

val to_algorithm : name -> Window_func.backend option
(** [Some]: the item field that pins the backend. *)

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

val default : func_class -> holed:bool -> name
(** The backend of an unpinned item: segment tree for plain aggregates,
    incremental (naive when holed) for MODE, MST for everything else.
    {!Cost_model.choose} leaves it only past its saving floor. *)

val unsupported_message : name -> func_class -> holed:bool -> string
(** Error text for rejecting a forced (backend, class) pair. *)
