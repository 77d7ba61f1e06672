(** Three-dimensional range counting for framed DENSE_RANK (§4.4).

    A framed dense rank needs the number of {e distinct} key values inside
    the frame that compare below the current row's key — a 3-dimensional
    range count over (frame position, rank key, previous-occurrence index):

    [|{distinct keys < K in [lo, hi)}| =
       |{i ∈ [lo, hi) : key_i < K ∧ prev_i < lo}|]

    following the same back-reference argument as COUNT DISTINCT, with
    [prev_i] the previous position holding the same key.

    The structure layers two merge sort trees (Bentley's range-tree
    construction with the paper's fractional cascading, §3.1): an outer MST
    over the keys decomposes the position range into O(log n) key-sorted
    runs; for each outer level, one inner MST over the prev-indices — laid
    out in that level's key order — counts [prev < lo] inside the
    [key < K] prefix of each run. Query time O((log n)²), space
    O(n (log n)²). *)

type t

val create : pool:Holistic_parallel.Task_pool.t -> ?fanout:int -> ?sample:int -> int array -> t
(** [create keys] preprocesses the dense key codes of a partition in
    window-frame order. *)

val length : t -> int

val distinct_below : t -> lo:int -> hi:int -> key:int -> int
(** [distinct_below t ~lo ~hi ~key] is the number of distinct key values
    occurring at positions [\[lo, hi)] that are strictly smaller than [key].
    A row's framed DENSE_RANK is this count plus one. *)

val stats_bytes : t -> int
(** Total heap bytes of all component trees. *)

val footprint_bytes : t -> int
(** Alias of {!stats_bytes}: the repo-wide memory-accounting contract. *)
