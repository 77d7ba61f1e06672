(** Back-reference preprocessing for windowed DISTINCT aggregates
    (Algorithm 1, §4.2, with the integer encoding of §5.1).

    For each position [i] the previous occurrence of the same value, encoded
    as [prev + 1] (and [0] when the value appears for the first time), so the
    array is directly usable as merge-sort-tree payload: the number of
    distinct values in frame [\[lo, hi\]] equals the number of positions
    [i ∈ [lo, hi]] with [encoded.(i) < lo + 1]. *)

val compute : pool:Holistic_parallel.Task_pool.t -> int array -> int array
(** [compute values] returns the encoded previous-occurrence array. Values
    are compared by integer equality; callers hash non-integer data first
    (§6.7). The sort step runs on [pool]. *)

val distinct_in_frame : int array -> lo:int -> hi:int -> int
(** Reference implementation: counts qualifying back-references by a linear
    scan of the encoded array — O(frame) per call, used by tests and the
    naive competitor. Frame bounds are inclusive positions. *)
