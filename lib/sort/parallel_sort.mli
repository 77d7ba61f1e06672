(** Parallel sorting over normalized key words: task-local
    {!Multiway.sort_range} runs + balanced parallel multiway merge (paper
    §5.2), each phase in its own span ([sort.runs], [sort.merge]). *)

open Holistic_parallel

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
    word gathered in sorted order ([[||]] when [words] is empty). Every
    width takes the one path: task-local {!Multiway.sort_range} runs of
    [task_size] rows, then multisequence selection at balanced global
    ranks ({!Multiway.split_at_rank_by}) and one offset-value coded
    loser-tree merge per output segment ({!Multiway.merge_multiword}).
    On a single-domain pool with no explicit [task_size] the whole range
    is one run and the merge phase is skipped: the split only pays off
    when the merges run concurrently. With no words, rows sort by [tie]
    alone in one sequential segment sort. *)

val merge_appended : Multiway.multiword -> n_old:int -> int array * int array
(** [merge_appended mw ~n_old] sorts a view whose positions
    [\[0, n_old)] are already in order after rows were appended behind
    them: the appended positions get one {!Multiway.sort_range}, then the
    two runs one {!Multiway.merge_multiword}. Returns fresh
    [(perm, sorted_key0)] as {!sort_encoded} does — the same arrays a
    from-scratch sort of all the rows would give, since both runs follow
    its strict total order. Sequential: a session append merges one
    partition's old rows with its delta this way. [mw]'s suffix is sorted
    in place. *)

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
    [run_rows] rows sequentially with {!Multiway.sort_range} (bounding
    the transient working set),
    writes each as a checksummed {!Holistic_storage.Run_file} of full
    key words + row id under [dir], then streams all runs through the
    same offset-value coded loser tree ({!Multiway.merge_sources}) with
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
