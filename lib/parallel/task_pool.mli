(** A fixed pool of worker domains executing submitted closures.

    This is the execution substrate for the morsel-driven, task-based
    parallelism the paper assumes (Leis et al. [26], paper §3.2/§5.5): work is
    cut into many fixed-size independent tasks, far more tasks than threads.

    Work is submitted in {e batches}: each batch owns its task queue, its
    pending count and its error slot, so several batches can be in flight on
    one pool at a time (the window plan overlaps a stage's sort batch with
    the previous stage's partition-evaluation batch) and each waiter helps
    with — and waits for — only its own batch.

    The pool is {e reentrant}: a task that itself calls {!run_list},
    {!parallel_for} or {!submit} on the pool that is executing it runs the
    nested work inline on its own domain.  Blocking a worker on a sub-batch
    of its own pool could deadlock a fully loaded pool; running it inline
    keeps nested algorithms (a merge sort tree built inside a partition
    morsel, say) correct with no caller-side case split.

    A task runs under its submitter's {!Holistic_obs.Obs} capture
    ({!Holistic_obs.Obs.handoff}): the spans it records on a worker domain
    land in the submitter's trace, under the span that submitted it, and
    so do its counts.  With tracing on, every task (inline and nested
    ones included) adds 1 to the [pool.tasks] counter and its run time to
    [pool.busy_ns], raising or not; a queued task also adds its wait for
    a domain to [pool.queue_wait_ns].  Time idle workers spend waiting
    for work goes to [pool.wait_ns], which belongs to no capture.

    A pool of size 1 executes everything inline on the caller, which keeps
    behaviour deterministic on single-core machines while preserving the task
    decomposition itself (and hence the per-task costs the paper measures). *)

type t

val create : int -> t
(** [create n] spawns a pool backed by [n] domains ([n >= 1]; [n = 1] spawns
    none and runs tasks inline). *)

val size : t -> int

val shutdown : t -> unit
(** Terminates the worker domains. The pool must be idle. Idempotent. *)

val run_list : t -> (unit -> unit) list -> unit
(** [run_list t tasks] executes all tasks to completion, possibly
    concurrently, and returns when the last one finishes. If one or more
    tasks raise, the first exception observed is re-raised in the caller
    after all tasks have completed. Called from inside a task of the same
    pool, the whole list runs inline (see reentrancy above); so does a
    list of one task. *)

type batch
(** An in-flight group of tasks: its own queue, pending count and
    first-error slot. *)

val new_batch : unit -> batch

val submit : t -> batch -> (unit -> unit) -> unit
(** [submit t b task] enqueues [task] under batch [b] and returns
    immediately (the task may start on a worker before the call returns).
    On a size-1 pool, or from inside a task of [t], the task runs inline
    before returning, with its error captured into [b]. *)

val wait : t -> batch -> unit
(** [wait t b] helps drain [b]'s queued tasks on the caller, blocks until
    every submitted task of [b] has finished, and re-raises the first
    exception any of them recorded. A batch may be reused for further
    [submit]/[wait] rounds afterwards. *)

val parallel_for :
  t -> ?chunk:int -> ?chunk_max:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~lo ~hi f] partitions [\[lo, hi)] into consecutive
    chunks and runs [f chunk_lo chunk_hi] for each as a pool task.  With
    [?chunk] the chunk size is exactly as given (the historical fixed-size
    behaviour); otherwise it is derived from the range and the pool size —
    roughly [range / (4 * domains)], at least 1, at most [chunk_max]
    (default {!default_task_size}) — so small ranges still fan out across
    every domain instead of serialising on one fixed-size task. *)

val auto_chunk : t -> lo:int -> hi:int -> max:int -> int
(** The derived chunk size [parallel_for] uses when [?chunk] is absent. *)

val domains_of_setting : string option -> int
(** The pool size a [HOLIWIN_DOMAINS]-style setting asks for: a positive
    integer (clamped to 128), else [Domain.recommended_domain_count ()].
    Pure: the caller reads the environment, the libraries never do. *)

val default_task_size : int
(** The paper's fixed task granularity: 20_000 tuples (§5.5). *)
