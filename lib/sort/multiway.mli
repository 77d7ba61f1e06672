(** K-way merging of sorted runs and rank-based run splitting.

    These are the building blocks of the balanced parallel multiway merge
    (Francis et al., the paper's §5.2): runs are split at global ranks so
    that independent output segments can be merged by independent tasks. *)

type run = { lo : int; hi : int }
(** A half-open, ascending-sorted segment of the source array. *)

val merge_pairs :
  key:int array ->
  payload:int array ->
  runs:run array ->
  dst_key:int array ->
  dst_payload:int array ->
  dst_pos:int ->
  unit
(** Merges all runs of [key] ascending into [dst_key] starting at
    [dst_pos], moving [payload] along into [dst_payload]. Orders by
    [(key, run index, position)], so the merge is stable with respect to
    run order. *)

val total_length : run array -> int

(** {2 Multi-word normalized keys with offset-value coded merging} *)

type multiword = {
  key0 : int array;  (** leading key word per {e position} *)
  payload : int array;  (** row id per position (moves with [key0]) *)
  deep : int array array;
      (** trailing key words, [deep.(w).(row_id)] — indexed by {e row id},
          so they never move during sorting *)
  tie : (int -> int -> int) option;
      (** residual comparator on row ids for key parts no word could
          express; applied after all words, before the final row-id
          tie-break *)
}
(** A multi-word normalized-key view of a permutation being sorted: the
    full sort order is [key0] ascending, then [deep] words in order, then
    [tie], then ascending row id — a strict total order. *)

val deep_compare : multiword -> int -> int -> int
(** [deep_compare mw r1 r2] compares two {e row ids} by the trailing
    words, the residual and the row-id tie-break (everything below
    [key0]). *)

val compare_positions : multiword -> int -> int -> int
(** Full strict comparison of two {e positions}: [key0], then
    {!deep_compare} on the rows they hold. *)

val merge_multiword :
  mw:multiword ->
  runs:run array ->
  dst_key0:int array ->
  dst_payload:int array ->
  dst_pos:int ->
  unit
(** Merges runs of [mw] (each sorted by {!compare_positions}) into
    [dst_key0]/[dst_payload] starting at [dst_pos], using a tree of
    losers with offset-value codes (Do & Graefe): comparisons between
    keys sharing a prefix with the incumbent collapse to a single int
    compare, and key words are only read when the codes tie. The [deep]
    words are row-indexed and therefore shared between [mw] and the
    destination.  Each merge adds its comparison tallies to the counters
    [sort.ovc_decided] (settled by the codes alone) and
    [sort.ovc_scanned] (needed a key-word scan); read them from a
    {!Holistic_obs.Obs.with_capture} trace. *)

(** {2 Run sources: merging spilled runs} *)

type source
(** A buffered stream over one sorted run of interleaved entries —
    [nwords] key words then the payload row id, stride [nwords + 1].
    Backed by a refill function, e.g. a spilled
    {!Holistic_storage.Run_file} reader. *)

val make_source :
  nwords:int -> buf_entries:int -> refill:(int array -> int) -> close:(unit -> unit) -> source
(** [refill buf] fills [buf] with as many whole entries as fit and
    returns the entry count; [0] means the run is exhausted (it is not
    called again after that). [nwords >= 1]. The first refill happens
    eagerly, inside [make_source]. *)

val source_close : source -> unit

val merge_sources :
  sources:source array -> ?tie:(int -> int -> int) -> emit:(int -> int -> unit) -> unit -> unit
(** Merges the sources (each sorted by: key words in order, then [tie],
    then ascending row id — the {!compare_positions} order) with the
    same offset-value coded tree of losers as {!merge_multiword},
    calling [emit key0 payload] once per entry in globally sorted order.
    All sources must share one word count. Updates the same
    [sort.ovc_decided] / [sort.ovc_scanned] counters. Does {e not}
    close the sources. *)

val lower_bound_by : less:(int -> int -> bool) -> lo:int -> hi:int -> int -> int
(** [lower_bound_by ~less ~lo ~hi p] is the first position [q] in
    [\[lo, hi)] with [not (less q p)], for a segment sorted by the strict
    order [less] on positions. *)

val split_at_rank_by : less:(int -> int -> bool) -> runs:run array -> rank:int -> int array
(** {!split_at_rank} under an arbitrary strict {e total} order on
    positions (multisequence selection): returns one cut per run such
    that the prefixes hold exactly the [rank] smallest elements. [less]
    must never call with out-of-run positions and must be total (break
    ties by row id), which makes the cut unique. *)

val split_at_rank : src:int array -> runs:run array -> rank:int -> int array
(** [split_at_rank ~src ~runs ~rank] returns one cut position per run (an
    absolute index within that run's bounds) such that the cut prefixes
    together contain exactly [rank] elements and every prefix element sorts
    no later than every suffix element under the stable merge order of
    {!merge}. [rank] must lie in [\[0, total_length runs\]]. *)
