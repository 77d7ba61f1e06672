(** Merge sort trees with relaxed fractional cascading (paper §4 and §5.1).

    A merge sort tree over an integer array [a] of length [n] keeps, for every
    tree level [j], the array re-sorted within consecutive runs of length
    [fanout^j]; the top level is one fully sorted run. The structure is the
    set of intermediate results of an [fanout]-way merge sort, kept instead of
    discarded, and is built in O(n log n).

    Three query families are supported, each O(log n) per query:

    - {!count}: how many elements with {e position} in a range have a
      {e value} below a threshold. This evaluates windowed COUNT DISTINCT
      (over prev-occurrence indices, §4.2) and windowed rank functions (over
      dense order codes, §4.4).
    - {!select}: the (m+1)-th element, in base order, whose {e value} falls
      into given ranges. Over a permutation array (§4.5) this evaluates
      windowed percentiles and value functions.
    - {!neighbour}: the (k+1)-th such element counted outwards from a base
      position. Over the same permutation array this evaluates LEAD/LAG
      with the row's own position in the function order as the start, so
      no ROW_NUMBER count precedes the selection.

    Queries run a single binary search on the top level; sampled merge-cursor
    states recorded during construction (every [sample]-th output position,
    §4.2 "annotate only every kth element") narrow every lower-level search
    to a window of at most [sample] elements, the relaxed fractional
    cascading. [~sample:0] disables cascading entirely, yielding the
    O(n (log n)²) "segment tree with sorted lists" competitor of Table 1 and
    the ablation of Fig. 13's sampling axis.

    The structure is immutable after construction and may be queried from any
    number of domains concurrently. *)

type t

val create :
  pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?sample:int ->
  ?track_payload:bool ->
  int array ->
  t
(** [create a] builds the tree bottom-up with [fanout]-way merges
    (default 32), recording cascading cursor states every [sample] elements
    (default 32, the paper's f = k = 32; [0] disables cascading). Runs of
    each level are merged as independent tasks on [pool].
    [track_payload] additionally records, per level, the base
    position each element came from, which {!Annotated_mst} needs to attach
    aggregate annotations. The input array is copied. *)

val append : t -> int array -> t option
(** [append t a] incrementally maintains the tree for the grown leaf array
    [a] (whose first [length t] elements must equal the existing leaves) by
    run-stacking: runs fully inside the old prefix are blitted, only runs
    overlapping the appended suffix are re-merged. Bit-identical to
    [create a]. [None] when the prefix changed, payloads are tracked, or
    the new operand overflows the storage width (rebuild instead). *)

val length : t -> int
val fanout : t -> int
val sample : t -> int

val count : t -> lo:int -> hi:int -> less_than:int -> int
(** [count t ~lo ~hi ~less_than] is [|{i ∈ [lo,hi) : a.(i) < less_than}|].
    Position bounds are clamped to [\[0, n\]]. One top-level search, then
    one cascaded lookup per child the range covers; a part of the range that
    overlaps a node in at most [fanout] elements is settled by scanning
    those base elements instead of descending further. Allocates nothing. *)

val count_ranges : t -> ranges:(int * int) array -> less_than:int -> int
(** Sum of {!count} over several (disjoint) position ranges — holed frames
    from frame-exclusion clauses (§4.7). Allocates nothing. *)

type scratch = Mst_template.scratch
(** Reusable probe state for {!select} and {!neighbour}: the ranges' value bounds and, per
    level, their positions in the node the descent visits. Not shareable
    between concurrent probes; create one per task. *)

val create_scratch : unit -> scratch
(** An empty scratch; it grows to the largest range count and tree height it
    has served, so a scratch reused across a task's probes allocates only on
    its first ones. *)

val select : t -> scratch:scratch -> ranges:(int * int) array -> nth:int -> int
(** [select t ~scratch ~ranges ~nth] is the value of the (nth+1)-th element,
    scanning base positions ascending, whose {e value} lies in one of the
    half-open value [ranges] (which must be disjoint and ascending). Over a
    permutation array, base order is "ascending by the function's ORDER BY"
    and values are original row positions, so this returns the original
    position of the (nth+1)-th smallest row inside the frame described by
    [ranges]. The top-level searches of the range bounds run once (they also
    give the qualifying total); the descent then picks one child per level
    until a node holds at most [fanout] elements, which it scans in base
    order. Allocates nothing once [scratch] has grown.
    @raise Invalid_argument if fewer than [nth + 1] elements qualify. *)

val neighbour :
  t -> scratch:scratch -> ranges:(int * int) array -> from:int -> k:int -> forward:bool -> int
(** [neighbour t ~scratch ~ranges ~from ~k ~forward] is the value of the
    (k+1)-th element whose value lies in [ranges] (as for {!select}),
    visiting base positions [from], [from + 1], … upwards when [forward],
    else [from - 1], [from - 2], … downwards; [-1] when fewer than [k + 1]
    elements qualify on that side (so values should be non-negative, as
    a permutation's are). [from] may lie anywhere in [\[0, n\]].

    The search scans the leaf block (level-1 node) of the first position
    it visits outwards, then climbs, counting the far-side siblings of
    each level's path child until one holds the target, and finishes with
    {!select}'s walk inside it. A sibling of at most [fanout × sample]
    elements is counted by a search over the whole sibling; above that
    size the path's range bounds come from one cascaded descent from the
    root, made the first time the climb reaches such a level. A target in
    the first leaf block costs an O(fanout) scan and no tree search. The
    worst case (the target far away, or absent) is of the order of a
    {!count} plus a {!select}: up to [fanout - 1] sibling counts per
    level, one cascaded descent and one walk, each direct lookup at most
    [log₂ fanout] steps longer than a cascaded one. Allocates nothing
    once [scratch] has grown.
    @raise Invalid_argument if [k] is negative. *)

val count_value_ranges : t -> ranges:(int * int) array -> int
(** Number of elements whose value lies in the given ranges — the qualifying
    population that {!select} draws from. *)

val iter_covered :
  t -> lo:int -> hi:int -> less_than:int -> (level:int -> base:int -> prefix:int -> unit) -> unit
(** Decomposes the position range [\[lo, hi)] into the same sorted runs a
    {!count} query uses and reports, for each, the run's absolute start
    offset in its level array and the number [prefix] of its elements below
    the threshold. {!Annotated_mst} combines per-run prefix aggregates from
    exactly these [(level, base, prefix)] triples (§4.3). *)

val payload_levels : t -> int array array
(** Per level, the base position each element originated from. Only
    available when built with [~track_payload:true].
    @raise Invalid_argument otherwise. *)

val levels : t -> int array array
(** The raw level arrays (level 0 = base). Do not mutate. *)

type stats = {
  level_elements : int;  (** total elements across all level arrays *)
  cursor_elements : int; (** total recorded cursor-state integers *)
  payload_elements : int;
  heap_bytes : int;      (** total bytes at 8 bytes per element *)
}

val stats : t -> stats

val footprint_bytes : t -> int
(** Bytes held by the built tree (8 per stored element; array headers,
    a negligible constant, excluded) — the repo-wide memory-accounting
    contract. *)

val element_count_formula : n:int -> fanout:int -> sample:int -> int
(** The paper's closed-form element count (§5.1):
    [⌈log_f n⌉·n + (⌈log_f n⌉ − 1)·n·f/k]; used for the §6.6 memory table at
    sizes too large to materialise. *)
