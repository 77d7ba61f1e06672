(** Parallel sorting: task-local introsort runs + balanced parallel multiway
    merge (paper §5.2), each phase in its own span ([sort.runs],
    [sort.merge]). *)

open Holistic_parallel

val sort_runs :
  Task_pool.t ->
  ?task_size:int ->
  key:int array ->
  payload:int array ->
  unit ->
  Multiway.run array
(** Sorts consecutive chunks of [task_size] (default {!Task_pool.default_task_size})
    elements in parallel, each by [(key, payload)] lexicographically, and
    returns the run descriptors. *)

val merge_runs :
  Task_pool.t -> key:int array -> payload:int array -> runs:Multiway.run array -> unit
(** Merges the given sorted runs (which must tile the arrays) back into the
    arrays, in parallel: the output is split at balanced global ranks and
    each segment is merged by an independent task. *)

val sort_pairs : Task_pool.t -> key:int array -> payload:int array -> unit
(** [sort_runs] followed by [merge_runs]: a stable parallel sort by
    [(key, payload)]. One run, and no merge, on a single-domain pool (the
    {!sort_encoded} rule). *)

val sort_encoded :
  Task_pool.t ->
  ?task_size:int ->
  n:int ->
  words:int array array ->
  ?tie:(int -> int -> int) ->
  unit ->
  int array * int array
(** [sort_encoded pool ~n ~words ?tie ()] sorts rows [0..n-1] by the
    row-indexed key words [words] in order, then [tie] (a residual
    comparator on row ids), then ascending row id, and returns
    [(perm, sorted_key0)]: the sorted permutation and the leading key
    word gathered in sorted order ([[||]] when [words] is empty). Single
    word, no residual uses the existing lexicographic run/merge path;
    anything wider is a multi-word sort: task-local introsort runs on
    [(key0, deep-tie)], then multisequence selection at balanced global
    ranks and per-segment offset-value coded loser-tree merges
    ({!Multiway.merge_multiword}).  On a single-domain pool with no
    explicit [task_size] the whole range is one run and the merge phase
    is skipped: the split only pays off when the merges run
    concurrently. *)

val sort_encoded_spill :
  n:int ->
  words:int array array ->
  ?tie:(int -> int -> int) ->
  run_rows:int ->
  read_entries:int ->
  dir:string ->
  ?on_key0:(int -> int -> unit) ->
  ?after_runs:(unit -> unit) ->
  unit ->
  int array * int * int
(** External-memory variant of {!sort_encoded}: forms sorted runs of
    [run_rows] rows sequentially (bounding the transient working set),
    writes each as a checksummed {!Holistic_storage.Run_file} of full
    key words + row id under [dir], then streams all runs through the
    offset-value coded loser-tree merge ({!Multiway.merge_sources}) with
    [read_entries]-entry read buffers per run. Returns
    [(perm, spill_runs, spill_bytes)] — the same permutation
    {!sort_encoded} would produce (the order is a strict total order, so
    any correct merge yields the identical result), plus the run count
    and total bytes written.

    [on_key0 rank key0] is called once per output row in rank order with
    the row's leading key word, letting callers detect partition
    boundaries without materialising the sorted key column.
    [after_runs] fires once formation is complete and before the merge
    allocates its output — the point where [words] may be dropped and
    its memory charge released, since the key words now live on disk.

    All spill files are deleted on return, on success and on failure
    alike; IO failures surface as {!Holistic_storage.Run_file.Error}.
    Updates the counters [sort.spill_bytes] /
    [sort.spill_runs] and tags its [sort.runs] / [sort.merge] spans with
    [spilled(runs=…, bytes)] provenance. *)
