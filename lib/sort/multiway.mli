(** The one key-word sort: segment sorts, the offset-value coded K-way
    merge and rank-based run splitting over normalized key words.

    Every sort of row ids by {!Holistic_storage.Key_codec} words goes
    through here: the parallel sort's runs and merge (Francis et al., the
    paper's §5.2: runs are split at global ranks so that independent
    output segments can be merged by independent tasks), the plan's
    partial sorts, a session's append maintenance, the rank encoder's
    delta sort, the spilled sort's run formation and merge, and the
    counting sort over a coded column's one word. All of them
    order rows by one strict total order — key words, then the residual,
    then ascending row id — so their outputs agree bit for bit. *)

type run = { lo : int; hi : int }
(** A half-open segment of positions, sorted by {!compare_positions}. *)

val total_length : run array -> int

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

val of_words : words:int array array -> ?tie:(int -> int -> int) -> int array -> multiword
(** [of_words ~words ?tie rows] views the row ids [rows] (the payload,
    not copied) under the row-indexed key words [words]: [key0] gathers
    [words.(0)] through [rows] — all zeros when [words] is empty, so a
    residual-only order sorts by [tie] alone — and [deep] is the rest. *)

val compare_keys : int array array -> (int -> int -> int) option -> int -> int -> int
(** [compare_keys words tie r1 r2] compares two {e row ids} by the
    row-indexed [words] in order, then [tie]; [0] means peers. The one key
    comparator: {!deep_compare} and the merge's full-tie path extend it
    with the row-id tie-break. *)

val deep_compare : multiword -> int -> int -> int
(** [deep_compare mw r1 r2] compares two {e row ids} by the trailing
    words, the residual and the row-id tie-break (everything below
    [key0]). *)

val compare_positions : multiword -> int -> int -> int
(** Full strict comparison of two {e positions}: [key0], then
    {!deep_compare} on the rows they hold. *)

val sort_range : multiword -> lo:int -> hi:int -> unit
(** [sort_range mw ~lo ~hi] sorts positions [\[lo, hi)] of [key0] and
    [payload] together by {!compare_positions}: the one segment sort.
    [key0] is compared unboxed; key0 ties descend into {!deep_compare}
    (no deep words and no residual: straight to the row id). *)

val sort_slots : int array -> span:int -> int array
(** [sort_slots slots ~span] is the permutation of rows [0..n-1] sorted
    by the one word [slots], every slot in [\[0, span)], ties by ascending
    row id: the order a sort of [slots] as the only key word gives, by a
    stable counting sort in O(n + span). *)

val merge_multiword :
  mw:multiword ->
  runs:run array ->
  dst_key0:int array ->
  dst_payload:int array ->
  dst_pos:int ->
  unit
(** Merges runs of [mw] into [dst_key0]/[dst_payload] starting at
    [dst_pos], using the tree of losers with offset-value codes (Do &
    Graefe): comparisons between keys sharing a prefix with the incumbent
    collapse to a single int compare, and key words are only read when
    the codes tie. The [deep] words are row-indexed and therefore shared
    between [mw] and the destination. Each merge of two or more runs adds
    its comparison tallies to the counters [sort.ovc_decided] (settled by
    the codes alone) and [sort.ovc_scanned] (needed a key-word scan); read
    them from a {!Holistic_obs.Obs.with_capture} trace. *)

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
    then ascending row id — the {!compare_positions} order) through the
    very loser tree {!merge_multiword} runs, calling [emit key0 payload]
    once per entry in globally sorted order: the same runs give the same
    order and the same [sort.ovc_decided] / [sort.ovc_scanned] counts
    whether they sit in memory or on disk. All sources must share one
    word count. Does {e not} close the sources. *)

val split_at_rank_by : less:(int -> int -> bool) -> runs:run array -> rank:int -> int array
(** Multisequence selection under a strict {e total} order on positions:
    returns one cut per run (an absolute position within that run's
    bounds) such that the prefixes hold exactly the [rank] smallest
    elements. [rank] must lie in [\[0, total_length runs\]]. [less] must
    never call with out-of-run positions and must be total (break ties
    by row id), which makes the cut unique. *)
