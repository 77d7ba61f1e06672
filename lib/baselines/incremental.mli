(** The incremental window-state algorithms of Wesley & Xu [38] (paper §5.5):
    aggregation state is updated as tuples enter and leave the frame.

    These are the paper's principal competitors. They are serially optimal
    for distinct counts (O(n) for monotonic frames) but cannot be shared
    across tasks: a task starting mid-partition must first rebuild the state
    of its first frame, which under fixed-size task-based parallelism
    degrades the ensemble to O(n²)-like behaviour (§3.2, observed in §6.4).

    {!Frame_driver} factors the add/remove bookkeeping: it walks per-row
    frames, applying deltas against the previously materialised frame — for
    non-monotonic frames the same tuple is added and removed repeatedly,
    which is exactly the §6.5 pathology. *)

module Distinct_count : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val count : t -> int
  val clear : t -> unit

  val footprint_bytes : t -> int
  (** Estimated live bytes of the multiplicity table (record, bucket array
      and per-binding cells, from [Hashtbl.stats]) — the repo-wide
      memory-accounting contract. *)
end

(** Sorted dynamic array over frame contents — Wesley & Xu's percentile
    state: O(log w) lookup, O(w) insert/delete by memmove, O(1) select. *)
module Sorted_window : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val remove : t -> int -> unit
  (** @raise Not_found if absent. *)

  val size : t -> int

  val select : t -> int -> int
  (** i-th smallest, 0-based. *)

  val rank : t -> int -> int
  (** Number of stored elements strictly smaller than the value. *)

  val clear : t -> unit

  val footprint_bytes : t -> int
  (** Exact live bytes: the record plus the backing array at its current
      capacity (doubling growth, never shrunk by {!clear}). *)
end

(** Windowed MODE state (Wesley & Xu's third holistic aggregate): value
    multiplicities bucketed by count, so add/remove are O(1) amortised (the
    maximum count moves by at most one per update). Tie-breaking among the
    most frequent values is the caller's: {!mode} scans the top bucket with
    a preference predicate. *)
module Mode : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit

  val remove : t -> int -> unit
  (** @raise Invalid_argument if the value is absent. *)

  val size : t -> int

  val max_count : t -> int
  (** Highest multiplicity currently in the window (0 when empty). *)

  val mode : t -> better:(int -> int -> bool) -> int option
  (** The preferred id among those with maximal multiplicity;
      [better a b] means id [a] wins a tie against id [b]. O(top bucket). *)

  val clear : t -> unit

  val footprint_bytes : t -> int
  (** Estimated live bytes across the count table, the bucket index and
      every per-multiplicity id set (via [Hashtbl.stats]). The dominant
      term is proportional to the number of distinct values in the
      window, not the window size. *)
end

module Frame_driver : sig
  val run :
    n:int ->
    frame:(int -> int * int) ->
    add:(int -> unit) ->
    remove:(int -> unit) ->
    result:(int -> unit) ->
    reset:(unit -> unit) ->
    lo:int ->
    hi:int ->
    unit
  (** [run ~n ~frame ~add ~remove ~result ~reset ~lo ~hi] evaluates rows
      [\[lo, hi)] of a partition of [n] rows. [frame i] gives row [i]'s
      half-open frame (clamped to [\[0, n)]); the driver calls [add]/[remove]
      to morph the materialised frame from the previous row's and then
      [result i]. [reset] clears the state; it is called once at [lo] —
      a task-parallel driver calls [run] per task, paying the rebuild. *)
end
