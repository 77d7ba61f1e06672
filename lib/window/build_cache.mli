(** Per-partition cache of preprocessing structures, shared by every window
    item and frame evaluated over one sorted partition.

    The paper's query phase builds each index structure once and probes it
    many times; this cache extends that guarantee across items: within a
    partition, a rank encoding, merge sort tree, annotated tree, range tree
    or segment tree is keyed on the inputs that determine its contents — the
    effective ORDER BY, the qualifying-row filter and (where the structure
    holds argument values) the argument expression — so e.g.
    [rank + percent_rank + cume_dist] over one named window perform one
    encode and one tree build. Keys are pure ASTs compared structurally.

    A cache is valid for exactly one [(table, rows)] pair: the window plan
    creates a fresh one per (stage, partition).

    Thread safety: every accessor may be called from any domain
    concurrently.  Each structure kind lives in its own mutex-guarded
    table, and the lock is held across the build thunk, so a structure is
    built exactly once per key — concurrent requests for the same key
    block until it exists, then read it as a hit.  Build thunks must not
    re-enter the cache table they are being built into (cross-kind
    nesting is fine). *)

open Holistic_storage
module Mstw = Holistic_core.Mst_width
module Rank_encode = Holistic_core.Rank_encode
module Range_tree = Holistic_core.Range_tree
module Seg = Holistic_baselines.Segment_tree

module Sum_count_monoid : sig
  type t = int * float * int
  (** int sum (exact, as a plain SUM), float sum and count *)

  val identity : t
  val combine : t -> t -> t
end

module Sum_count_mst : module type of Holistic_core.Annotated_mst.Make (Sum_count_monoid)

type counters = {
  encode_builds : int Atomic.t;
  tree_builds : int Atomic.t;
  maintained : int Atomic.t;
  rebuilt : int Atomic.t;
}
(** Running build totals, shared across caches (one [counters] record per
    plan run): [encode_builds] counts {!Rank_encode} constructions,
    [tree_builds] counts index-structure constructions (MSTs, annotated
    MSTs, range trees, segment trees).  [maintained]/[rebuilt] count what
    happened to entries stale under a session epoch: incrementally patched
    vs rebuilt from scratch (a rebuild also bumps the build total; a patch
    does not).  Atomics: under the morsel-driven plan the counts are
    bumped from whichever domain evaluates the partition. *)

val fresh_counters : unit -> counters

val encode_build_count : counters -> int
val tree_build_count : counters -> int
val maintained_count : counters -> int
val rebuilt_count : counters -> int

type extra_filter = Ex_none | Ex_nonnull of Expr.t
(** The implicit NULL-skipping component of a qualifying-row predicate:
    [Ex_nonnull e] keeps rows where [e] is non-NULL (IGNORE NULLS, NULL
    skipping aggregates, percentile order keys). *)

type qual = { filter : Expr.t option; extra : extra_filter }
(** Structural key for a qualifying-row predicate: the FILTER clause
    expression plus the implicit NULL-skipping filter. *)

val unfiltered : qual

type codes_class = Rank_codes | Row_codes | Select_perm
(** What a cached counting/selection MST was built over: filtered rank
    codes, filtered row codes, or the sorted permutation of filtered
    positions (§4.5 Fig. 6). *)

type seg_class = Seg_sum | Seg_min | Seg_max
(** Which monoid a cached segment tree combines its argument values under. *)

type t

val create : ?counters:counters -> unit -> t
(** A fresh, empty cache. [counters] defaults to a private record; pass a
    shared one to accumulate build totals across partitions. *)

val counters : t -> counters

val epoch : t -> int
(** The cache's current epoch. Starts at 0 and only moves under a session
    ({!advance}); in per-query use every entry is at the current epoch. *)

val advance : t -> unit
(** Bump the epoch: every cached structure becomes stale (the partition's
    rows were extended), to be incrementally maintained — via the
    accessors' [maintain] callbacks — or rebuilt on its next request.
    Must not race with accessor calls (the session mutates between
    queries). *)

(** Each accessor returns the cached structure for its key, calling the
    build thunk (and counting the build) only on the first request.

    A stale entry (built before the last {!advance}) is passed to the
    [maintain] callback where one is given: [Some (v', detail)] stores the
    incrementally patched structure (provenance [maintained(detail)] on
    the build span); [None] — or no callback — falls back to the build
    thunk (provenance [rebuilt(stale)]).

    Only the [Mst] backend builds MST-family trees ([Mst_no_cascade]
    runs as [Mst] at sample 0), so their keys carry the sample and no
    backend. *)

val encode :
  t ->
  ?maintain:(Rank_encode.t -> (Rank_encode.t * string) option) ->
  order:Sort_spec.t ->
  (unit -> Rank_encode.t) ->
  Rank_encode.t

val remap : t -> qual:qual -> (unit -> Remap.t) -> Remap.t

val peers :
  t -> ?maintain:(int array * int array -> ((int array * int array) * string) option) ->
  order:Sort_spec.t -> (unit -> int array * int array) -> int array * int array

val count_tree :
  t -> ?maintain:(Mstw.t -> (Mstw.t * string) option) ->
  cls:codes_class -> order:Sort_spec.t -> qual:qual -> sample:int ->
  (unit -> Mstw.t) -> Mstw.t

val range_tree :
  t -> order:Sort_spec.t -> qual:qual -> sample:int ->
  (unit -> Range_tree.t) -> Range_tree.t

val arg_ids : t -> arg:Expr.t -> qual:qual -> (unit -> int array) -> int array
val prev_array : t -> arg:Expr.t -> qual:qual -> (unit -> int array) -> int array

val distinct_tree :
  t -> ?maintain:(Mstw.t -> (Mstw.t * string) option) ->
  arg:Expr.t -> qual:qual -> sample:int -> (unit -> Mstw.t) -> Mstw.t

val annotated_tree :
  t -> arg:Expr.t -> qual:qual -> sample:int ->
  (unit -> Sum_count_mst.t) -> Sum_count_mst.t

val seg_tree :
  t -> cls:seg_class -> arg:Expr.t -> qual:qual -> (unit -> Value.t Seg.t) -> Value.t Seg.t

val footprint_bytes : t -> int
(** Total bytes held by every structure currently cached — the sum of the
    members' [footprint_bytes].  Each fresh build also reports its
    footprint to the enclosing [build] span ({!Obs.record_bytes}) and to
    the deterministic [mem.structure_bytes] counter as it happens. *)
