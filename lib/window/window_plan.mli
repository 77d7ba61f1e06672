(** The multi-clause window pipeline: one plan for {e all} OVER clauses of a
    query.

    Clauses are grouped into a DAG of stages:

    + {b Partition pass} — every clause with structurally equal PARTITION BY
      expressions shares one partition-key computation.
    + {b Sort stages} — within a partition group, the requested ORDER BYs
      are reduced to their prefix-maximal set. A clause whose order is a
      prefix of a stage order reuses the stage's permutation and boundaries
      outright (full-sort sharing); a stage after the first re-sorts only
      within the inherited partition boundaries (partial-sort sharing, Cao
      et al., arXiv:1208.0086), never comparing partition keys again.
    + {b Per-partition evaluation} — all frames and items of a stage are
      evaluated over one sorted partition, sharing a {!Build_cache} so rank
      encodings and index trees are built once per structural key.

    Stages and clauses are evaluated in first-appearance order, so runs are
    reproducible and error attribution is stable. Outputs land at original
    row indices, so clause evaluation order never affects results — only
    which clause's error surfaces first. *)

open Holistic_storage

type clause = { spec : Window_spec.t; items : Window_func.t list }

type stage = { order : Sort_spec.t; members : clause list }
(** One sort stage: the (prefix-maximal) order it sorts by and the clauses
    it evaluates, in first-appearance order. *)

type group = { partition_by : Expr.t list; stages : stage list }

val schedule : clause list -> group list
(** The pure scheduling policy of the plan: partition groups by structural
    PARTITION BY equality in first-appearance order, each holding its
    prefix-maximal sort stages with every clause assigned to the first
    stage whose order covers its own. Exposed because stage assignment is
    observable (a clause ordered by a prefix of another's is evaluated
    under the longer stage sort, which ROWS frames see under ties), so
    reference implementations — e.g. the differential fuzz oracle — must
    reproduce it exactly. *)

type stats = {
  stages : int;  (** sort stages across all partition groups *)
  partition_passes : int;  (** partition-key computations (= partition groups) *)
  full_sorts : int;  (** from-scratch (partition, order) sorts *)
  partial_sorts : int;  (** within-boundary re-sorts *)
  reused_sorts : int;  (** clauses served by an existing stage sort *)
  session_sorts : int;
      (** stages served by a {!Session} store entry — no sort ran at all *)
  comparator_sorts : int;
      (** sorts (full or partial) that ran on the closure-comparator path
          because the key codec produced no words — should be zero for any
          spec over int/date/float/string/bool keys *)
  encode_builds : int;  (** {!Holistic_core.Rank_encode} constructions *)
  tree_builds : int;  (** index-structure constructions (MST and friends) *)
}

val run :
  pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?task_size:int ->
  ?governor:Mem_governor.t ->
  ?session:Session.t ->
  Table.t ->
  clause list ->
  Table.t
(** [run table clauses] evaluates every item of every clause and returns the
    input table extended with one column per item (named by the item), in
    the original row order. A single OVER clause is the one-element list
    [[ { spec = over; items } ]]. Sorts, builds and partition morsels run
    on [pool], which the caller owns. [fanout] is the merge sort trees'
    fanout (default 32, §6.6; their pointer sampling is 32); [task_size]
    the morsel size (default {!Holistic_parallel.Task_pool.default_task_size},
    §5.5). Merge sort trees use the narrowest storage width the
    partition's rank encoding fits ({!Holistic_core.Mst_width.Auto}, §5.1).

    Items with no algorithm are resolved to a concrete backend per
    (stage, item) through {!Cost_model.choose}.  An item pinned to a
    backend keeps it, strictly: an unsupported (function, backend) pair
    raises [Invalid_argument] ({!Evaluator_choice.supports}).  Every
    resolution bumps the [plan.evaluator.<name>] counter once and is
    surfaced in EXPLAIN ANALYZE ([choose] spans with the rejected
    candidates' predicted costs, and an [evaluator] arg on item spans).

    [?governor] bounds the plan's sorts: a stage sort spills to disk runs
    whenever {!Mem_governor} says the in-memory sort would overrun the
    budget. Structures are always built in memory, uncharged.  The
    governor stays owned by the caller (create it once, {!Mem_governor.cleanup}
    it when done); its accounted live bytes are back to their starting
    value when the run returns or raises.  Without one the plan runs
    entirely in memory.  Results are bit-identical to the unlimited run; spills are surfaced as
    a [spilled=(runs=n, bytes)] arg on the sort span and the
    [sort.spill_runs] / [sort.spill_bytes] counters.
    @raise Mem_governor.Budget_too_small
      when the budget cannot cover even the minimum spill working set.

    [?session] plugs in a persistent structure store over exactly this
    table (any other table — e.g. a WHERE-filtered copy — runs stateless):
    stage sorts, per-partition caches and finished item outputs are read
    from and written back to the store, and the cost model treats cached
    structures' build cost as sunk.  After an in-order append an item
    probes only the rows whose frame reaches a new row and copies the
    rest from its cached output.  Sort and item spans gain a [cache] arg
    carrying the provenance ([reused(epoch=k)] / [maintained(±n rows)]
    on sorts, [rebuilt(stale)] on builds, [reused(outputs)] /
    [maintained(probed=p of n)] on items), and the capture counts
    [cache.probed_rows] and [cache.copied_rows]. *)

val run_with_stats :
  pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?task_size:int ->
  ?governor:Mem_governor.t ->
  ?session:Session.t ->
  Table.t ->
  clause list ->
  Table.t * stats
(** {!run} plus sharing statistics for tests and benchmarks.  The stats
    (and the cost-model decisions) are deterministic functions of the
    inputs — never of the pool's domain count. *)

val order_permutation :
  pool:Holistic_parallel.Task_pool.t -> Table.t -> over:Window_spec.t -> int array * int array
(** The sorted row permutation and partition boundary offsets for one spec
    (boundaries has one extra trailing entry equal to the row count). *)
