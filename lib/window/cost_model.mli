(** Calibrated per-clause evaluator cost model.  [Window_plan] resolves
    every unpinned item through {!choose} once per (stage, item) before
    evaluation; the constants are fitted by [bench/calibrate.ml] and
    committed in {!default} as a versioned table.  Decisions are
    deterministic functions of the inputs below — in particular they do
    not depend on the task pool's domain count, so plans (and their
    sharing stats) are identical at any parallelism. *)

type constants = {
  version : int;
  mst_build_ns : float;  (** per row per tree level *)
  mst_probe_ns : float;  (** per probed row per tree level *)
  seg_build_ns : float;  (** per row *)
  seg_probe_ns : float;  (** per probed row per log2 n *)
  naive_row_ns : float;  (** per scanned frame row (plain scans) *)
  naive_hash_ns : float;
      (** per frame row for the classes whose naive kernel rebuilds a hash
          table every frame (distinct counts/sums, mode, dense rank) *)
  naive_select_ns : float;
      (** per frame row for the percentile classes (copy + quickselect) *)
  inc_update_ns : float;  (** per incremental add/remove/result op *)
  sw_shift_ns : float;  (** per element shifted by a sorted-window memmove *)
  ost_update_ns : float;  (** per counted-B-tree op per log2 frame *)
  choice_floor_ns : float;
      (** predicted total saving (over all partitions) required before the
          choice leaves {!Evaluator_choice.default}; keeps small inputs on the exact
          historical plans *)
}

val default : constants
(** The committed calibration table (see its version comment). *)

type inputs = {
  rows : int;  (** average partition rows *)
  nparts : int;
  frame_rows : float;  (** estimated average frame extent, in rows *)
  monotonic : bool;  (** both frame endpoints advance with the row *)
  holed : bool;
  cls : Evaluator_choice.func_class;
  task_size : int;
  fanout : int;
}

val estimate_frame : Window_spec.t -> rows:int -> float * bool
(** [(frame_rows, monotonic)] for a spec over an average partition of
    [rows] rows.  Constant ROWS offsets are exact; everything else is a
    documented crude fraction of the partition. *)

val mst_levels : fanout:int -> int -> int

val cost : ?sunk:Evaluator_choice.name list -> constants -> inputs -> Evaluator_choice.name -> float
(** Predicted evaluation time for one partition, in nanoseconds.  [sunk]
    lists backends whose index structure is already cached for the item
    (a {!Session} carried it across queries): their build term is treated
    as spent, leaving only probe cost. *)

type decision = {
  chosen : Evaluator_choice.name;
  default : Evaluator_choice.name;
  scores : (Evaluator_choice.name * float) list;
      (** per-partition ns for every eligible candidate, incl. [chosen] *)
}

val choose : ?sunk:Evaluator_choice.name list -> constants -> inputs -> decision
(** The cheapest eligible backend, kept at {!Evaluator_choice.default} unless the
    predicted total saving clears [choice_floor_ns].  [sunk] as in
    {!cost}: an already-cached structure's build cost is sunk, which can
    flip the choice towards reusing it. *)
