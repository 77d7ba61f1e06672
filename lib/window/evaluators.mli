(** Per-partition evaluation of window functions: preprocessing into integer
    arrays, index structure construction (merge sort tree / range tree /
    segment tree / competitor state) and the embarrassingly parallel probe
    phase (§4, §5).

    Used by {!Window_plan}; exposed for tests and the benchmark harness. *)

open Holistic_storage

type ctx = {
  table : Table.t;
  pool : Holistic_parallel.Task_pool.t;
  rows : int array;  (** partition rows in window-frame order (original indices) *)
  frame : Frame.t;
  window_order : Sort_spec.t;
  fanout : int;
  sample : int;
  task_size : int;
  width : Holistic_core.Mst_width.choice;
      (** storage width for merge sort trees ({!Holistic_core.Mst_width}) *)
  cache : Build_cache.t;
      (** per-partition structure cache shared by every item evaluated over
          [rows] — encodings and trees are built once per structural key *)
  gov : Mem_governor.t option;
      (** memory governor: when set, large MST builds stream their leaves
          ({!Holistic_core.Mst_width.create_stream}) whenever
          {!Mem_governor.stream_builds} says the materialized operand would
          overrun the budget *)
}

val eval_item : ctx -> Window_func.t -> out:Value.t array -> unit
(** Evaluates one window function over the partition, writing results into
    [out] at the rows' original indices.
    @raise Invalid_argument for unsupported function/algorithm pairs. *)
