(** Introsort with 3-way partitioning over integer arrays.

    The 3-way (fat-pivot) partitioning is not an optimisation detail: the
    paper (§5.3) reports that 2-way quicksort degenerates to O(n²) on the
    duplicate-heavy arrays produced by the prev-occurrence preprocessing
    (most entries are 0 on low-duplicate columns), and fixed their system the
    same way. Recursion depth is bounded by 2·⌊log₂ n⌋ with a heapsort
    fallback, so the worst case is O(n log n) regardless of input. *)

val sort : int array -> unit
(** Sorts the whole array ascending. *)

val sort_range : int array -> lo:int -> hi:int -> unit
(** Sorts the half-open segment [\[lo, hi)] ascending. *)

val sort_pairs : key:int array -> payload:int array -> unit
(** Sorts both arrays simultaneously by [(key, payload)] lexicographically
    ascending. When [payload] holds original positions this is exactly the
    stable sort of Algorithm 1. Arrays must have equal length. *)

val sort_pairs_range : key:int array -> payload:int array -> lo:int -> hi:int -> unit
(** {!sort_pairs} restricted to [\[lo, hi)]. Key-word sorts reach this and
    {!sort_pairs_tie_range} only through {!Multiway.sort_range}. *)

val sort_pairs_tie_range :
  key:int array -> payload:int array -> tie:(int -> int -> int) -> lo:int -> hi:int -> unit
(** Sorts the segment [\[lo, hi)] of both arrays by [key] ascending, breaking
    key ties with [tie] applied to the payload {e values}. This is the
    multi-word normalized-key run sort: the leading key word lives in [key]
    (unboxed int compares), and [tie] descends into trailing key words and the
    residual comparator only on leading-word collisions. [tie] must be a
    strict total order (end the chain with a row-id compare) for the result to
    be deterministic. *)

val sort_indices_by : int -> cmp:(int -> int -> int) -> int array
(** [sort_indices_by n ~cmp] is the permutation [\[|0..n-1|\]] sorted stably
    by [cmp] on indices (ties keep ascending index order): the reference
    order that tests and benches check the key-word sorts against. *)
