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
      (** unread: the governor decides sorts only ({!Mem_governor.plan_sort}),
          and every structure is built in memory. Kept because external
          harnesses construct [ctx]. *)
}

val peers : Build_cache.t -> Table.t -> Sort_spec.t -> int array -> int array * int array
(** [peers cache table order rows]: {!Frame.peers} of the partition,
    memoized in [cache]; a stale entry (the partition was extended in
    order under a session) is maintained by {!Frame.extend_peers}. *)

val encode : ctx -> Sort_spec.t -> Holistic_core.Rank_encode.t
(** [encode ctx order]: the partition's rank encoding under [order] (§5.1),
    memoized in [ctx.cache]. An [order] that is a prefix of
    [ctx.window_order] — rows are already in it — reads its codes off the
    peer groups; every other order is compiled into {!Key_codec} words
    over the partition's rows and sorted on them.  Both paths yield the
    encoding of the stable sort under [order]. *)

val eval_item : ctx -> Window_func.t -> out:Value.t array -> unit
(** Evaluates one window function over the partition, writing results into
    [out] at the rows' original indices.  An item with no algorithm runs
    on {!Evaluator_choice.default}; [Mst_no_cascade] runs as [Mst] at
    sample 0 and [Incremental_serial] as [Incremental] with the partition
    as its one task.
    @raise Invalid_argument with {!Evaluator_choice.unsupported_message}
      when {!Evaluator_choice.supports} rejects the (backend, function)
      pair. *)

val frame_local : Table.t -> Window_func.t -> bool
(** Whether every row's answer from {!eval_item} is a function of the
    row's frame and its own key alone, bit for bit, whatever the
    partition's length — so that a session may keep an old row's answer
    after an in-order append.  False only for SUM and AVG of a non-integer
    argument on a tree backend: the tree's shape, and so the order its
    float sums add up in, follows the partition's length. *)

val eval_item_at : ctx -> Window_func.t -> at:(int * int) array -> out:Value.t array -> unit
(** [eval_item_at ctx item ~at ~out] is {!eval_item} answering only the
    partition positions in [at] — sorted, disjoint half-open ranges —
    and leaving every other row of [out] as it was.  Structures are built
    (or maintained) over the whole partition as for {!eval_item}; only the
    probes are restricted, cut into tasks of [ctx.task_size] answered
    rows.  [eval_item] is [eval_item_at] over [\[| (0, np) |\]]. *)
