(** Persistent structure store: a table session that carries sorted
    permutations, partition boundaries, per-partition {!Build_cache}s and
    finished item outputs {e across} queries, maintaining them under
    incremental appends and bulk evictions instead of rebuilding.

    The paper's query phase builds each structure once and probes it many
    times; {!Build_cache} extends that guarantee across the items of one
    query, and a session extends it across queries: a stage is keyed on
    its (PARTITION BY, ORDER BY) pair — the same structural keys the plan
    groups by — and its state survives until a mutation invalidates it.

    Mutations maintain rather than invalidate wherever the result is
    {e bit-identical} to a from-scratch rebuild:

    - {b appends} splice the sorted new rows into the partitions they
      touch (the sort layer's one segment sort, and its OVC loser tree
      where new rows interleave with old ones) and copy every other
      partition, so an append costs what its delta touches;
      partitions whose new rows all sort after their old rows keep their
      caches, marked stale for the accessors' incremental [maintain]
      callbacks (rank-encode extension, MST run-stacking, peer-group
      rescans from the last old group), and keep their cached outputs,
      which the next query completes by probing only the rows whose frame
      reaches a new row; out-of-order appends invalidate exactly the
      partitions they interleave into;
    - {b evictions} filter the permutation and renumber the survivors —
      no re-sort at all — keeping every untouched partition's caches and
      cached outputs.

    After every append and every eviction each stored stage equals
    {!full_sort} of the current table: partition labels follow the key
    order ({!partition_ids}), so no mutation reorders partitions.

    Sessions are single-threaded between queries: mutations must not
    overlap a running {!Window_plan.run}. *)

open Holistic_storage
module Task_pool = Holistic_parallel.Task_pool

(** {2 Shared sort primitives}

    The plan's partition-key computation and full sort live here, below
    {!Window_plan}, because maintenance must reproduce them bit for bit. *)

val partition_ids : Task_pool.t -> Table.t -> Expr.t list -> int array option
(** Integer partition keys for the PARTITION BY expressions ([None] for
    an empty list — one global partition): two rows' keys are equal iff
    every expression agrees, and they compare as the key tuples do under
    one fixed total order — lexicographic over the expressions, each
    column by {!Column.distinct_ids} and each other expression by
    [Stdlib.compare] on its values (NULLs together, every NaN together,
    [-0. = +0.], [Int 1] apart from [Float 1.]). So the keys of any subset
    ({!Table.gather}) or superset ({!Table.append}) of the rows keep their
    relative order, and a stored stage's partitions stay in the order a
    fresh sort gives after every append and eviction. *)

val boundaries_of_key0 : key0:int array -> divisor:int -> int -> int array
(** Partition boundary offsets read off the sorted leading key word (the
    partition component is [word / divisor]). *)

type sort_path =
  | Codes  (** a counting sort over a one-key order's column codes *)
  | Encoded  (** key words through the parallel run sort and OVC merge *)
  | Comparator  (** no key word at all: the residual comparator alone *)

val sort_path_name : sort_path -> string

type sorted = {
  perm : int array;
  boundaries : int array;  (** partition offsets, plus a trailing row count *)
  path : sort_path;
  spill : (int * int) option;  (** [(runs, bytes)] when the sort spilled *)
}

val sort :
  ?gov:Mem_governor.t -> Task_pool.t -> Table.t -> pids:int array option -> order:Sort_spec.t -> sorted
(** The plan's from-scratch (partition, order) sort. A one-key order
    over an unpartitioned table whose column holds
    {!Column.order_codes} is a stable counting sort over them
    ({!Key_codec.code_slots}, {!Holistic_sort.Multiway.sort_slots}) when
    their span is at most the row count; any other sort goes through the
    key codec, and when it sorted an unpartitioned table by one uncoded
    column, the column adopts the ranks as its codes
    ({!Key_codec.offer_codes}). Both give the same permutation. With a
    governor the key words (a counting sort's one slot word among them)
    and the chosen path's transients are charged against its budget, and
    the sort runs out of core ({!Parallel_sort.sort_encoded_spill},
    partition boundaries detected on the merge stream, path [Encoded])
    whenever {!Mem_governor.plan_sort} says so, and reports what it
    spilled in [spill]; without one the sort runs in memory. *)

val full_sort :
  ?gov:Mem_governor.t ->
  Task_pool.t ->
  Table.t ->
  pids:int array option ->
  order:Sort_spec.t ->
  int array * int array * sort_path
(** {!sort} as [(perm, boundaries, path)]. *)

(** {2 The store} *)

type status =
  | Reused  (** slice untouched since last query: outputs and caches valid *)
  | Extended
      (** in-order append: the old rows lead the slice unmoved, caches
          stale but incrementally maintainable *)
  | Rebuilt  (** fresh or invalidated: nothing to reuse *)

type okey = Window_spec.t * Window_func.func * Expr.t option
(** Structural key of one item's finished output within a stage
    partition: the clause spec, the function and the FILTER clause. *)

type part = {
  cache : Build_cache.t;
  outputs : (okey * Window_func.backend option, Value.t array) Hashtbl.t;
      (** finished item outputs, values in slice order, keyed on the item
          and the backend that computed it: backends agree on every answer
          but the last ulp of a float sum, which each adds up in its own
          order.  An output is valid for exactly its own length: an array
          of length [k] holds the answers of the first [k] rows of the
          part's current slice.  In-order appends keep it (the slice grows
          behind it); any mutation that moves or removes a row of the
          slice leaves a fresh part with no outputs. *)
  mutable status : status;
      (** what the last mutation did to the part; introspection and the
          cost model's sunk builds read it, output reuse does not *)
}

type t

val create : pool:Task_pool.t -> Table.t -> t
(** A session over [table]. [pool] runs maintenance-time sorts and
    partition-key passes. Registers no gauge: see {!register_gauges}. *)

val table : t -> Table.t
(** The session's current table — pass exactly this to the plan. *)

val epoch : t -> int
(** Mutations applied so far. *)

val counters : t -> Build_cache.counters
(** Session-lifetime build/maintenance totals (the plan reports per-query
    deltas against these). *)

val pids_for : t -> pb:Expr.t list -> compute:(unit -> int array option) -> int array option
(** Cached partition ids for one PARTITION BY list, computing and
    remembering them on first request; mutations refresh every cached
    array on the new table. *)

(** One stored stage; only mutations of the session change it. *)
type stored = private {
  mutable perm : int array;
  mutable boundaries : int array;
  mutable parts : part array;  (** per-partition state *)
  mutable prov : string;
      (** provenance tag for the stage's sort span: [maintained(+n rows)] /
          [maintained(-n rows)] right after a mutation, [reused(epoch=k)]
          thereafter *)
  algs : (okey, Evaluator_choice.name) Hashtbl.t;
      (** the per-item backend memo from the previous query: those
          structures are cached, so the cost model treats their build cost
          as sunk *)
}

val lookup : t -> pb:Expr.t list -> order:Sort_spec.t -> stored option
(** A copy of the stored stage for [(pb, order)], if any, carrying the
    provenance tag, which the store's own entry then drops. *)

val stages : t -> (Expr.t list * Sort_spec.t * int array * int array) list
(** Every stored stage as [(pb, order, perm, boundaries)], in no set
    order, leaving the provenance tags {!lookup} consumes alone. After
    every append and every eviction each equals {!full_sort} of the
    current table. *)

val store :
  t ->
  pb:Expr.t list ->
  order:Sort_spec.t ->
  perm:int array ->
  boundaries:int array ->
  part array * (okey, Evaluator_choice.name) Hashtbl.t
(** Register a freshly computed stage and return its (empty) part states
    for the evaluation that follows. *)

val append_rows : t -> Table.t -> unit
(** Append [delta]'s rows (same column names) below the session table and
    incrementally maintain every stored stage.
    @raise Invalid_argument on column mismatch, like {!Table.append}. *)

val evict : t -> Holistic_util.Bitset.t -> unit
(** [evict s gone] evicts the rows set in [gone], a mask over the
    {e current} table's rows — the mask {!Expr.select} returns for an
    eviction predicate. Every stored order is walked once: the survivors
    are renumbered in order, no row is re-sorted, and a partition that
    lost no row keeps its caches and outputs; the table keeps room for the
    next append. @raise Invalid_argument when the mask's length is not the
    table's row count. *)

val footprint_bytes : t -> int
(** Approximate bytes held by the store: permutations, boundaries, cached
    structures and cached outputs. *)

(** {2 Introspection}

    What the store is holding and how much maintenance has been saving,
    for [holiwin session stats] and the [session.*] gauges. *)

type key_stats = {
  partition_by : string;  (** rendered PARTITION BY list, [""] when none *)
  order_by : string;
  parts : int;
  key_bytes : int;  (** this stage's share of {!footprint_bytes} *)
  cur_reused : int;  (** partitions currently in each status *)
  cur_extended : int;
  cur_rebuilt : int;
}

type stats = {
  s_epoch : int;
  s_rows : int;
  s_bytes : int;  (** = {!footprint_bytes} *)
  reused : int;
      (** lifetime tallies: how mutations (and first builds) classified
          stage partitions since the session was created *)
  extended : int;
  rebuilt : int;
  keys : key_stats list;  (** sorted by (partition_by, order_by) *)
}

val stats : t -> stats

val render_stats : stats -> string
(** Human-readable multi-line rendering (deterministic apart from the
    byte counts' magnitude formatting). *)

val register_gauges : t -> unit
(** Point the process-wide [session.*] gauges ([session.rows],
    [session.bytes], [session.epoch], [session.keys],
    [session.parts_reused]/[_extended]/[_rebuilt]) at this session.
    Gauges are last-registration-wins, so call it only from the owner of
    the process's one session; {!create} never does. *)
