(** Integer preprocessing for order-based window functions (§5.1, Fig. 8 and
    §4.5, Fig. 6).

    All ORDER BY complexity — multiple sort keys, directions, NULLS
    FIRST/LAST, expressions — is compiled here into dense integer arrays so
    the merge sort tree only ever stores integers. *)

type t = {
  rank_codes : int array;
      (** [rank_codes.(i)]: dense code of row [i]'s peer group under the
          ordering; tied rows share a code. A row's framed RANK is the count
          of frame rows with a strictly smaller code, plus one. *)
  row_codes : int array;
      (** [row_codes.(i)]: position of row [i] in the stable sort by the
          ordering — unique codes, ties broken by position (ROW_NUMBER
          disambiguation, §4.4). *)
  permutation : int array;
      (** [permutation.(r)]: the row at sorted position [r] — the §4.5
          permutation array. The merge sort tree for percentiles and value
          functions is built over this array. *)
}

val footprint_bytes : t -> int
(** Bytes held by the three code arrays (incl. headers) — the repo-wide
    memory-accounting contract. *)

val of_words :
  pool:Holistic_parallel.Task_pool.t -> words:int array array -> ?tie:(int -> int -> int) -> int -> t
(** [of_words ~pool ~words ?tie n] encodes rows [0..n-1] from compiled
    order-preserving key words ([words.(w).(i)] is row [i]'s word [w], most
    significant first — a {!Holistic_storage.Key_codec} compile) and the
    residual comparator [tie] over the keys the words do not decide. Rows
    sort by words, then [tie], then ascending row id
    ({!Holistic_sort.Parallel_sort.sort_encoded}); two rows are peers when
    all their words are equal and [tie] returns 0. *)

val of_sorted :
  pool:Holistic_parallel.Task_pool.t -> words:int array array -> ?tie:(int -> int -> int) -> int array -> t
(** [of_sorted ~pool ~words ?tie permutation] is {!of_words} given its
    sort: [permutation] lists rows [0..n-1] sorted by [words], [tie] and
    row id, and is kept as the encoding's permutation. *)

val of_codes : pool:Holistic_parallel.Task_pool.t -> int array -> span:int -> t
(** [of_codes ~pool slots ~span] encodes rows [0..n-1] whose order is the
    one exact key word [slots] (every slot in [\[0, span)], e.g.
    {!Holistic_storage.Key_codec.code_slots} over a coded column): a
    stable counting sort ({!Holistic_sort.Multiway.sort_slots}) in
    O(n + span), bit-identical to [of_words ~words:[| slots |] n]. Worth it
    when [span] is at most about [n]. *)

val of_peers : int array -> t
(** [of_peers peer_start] encodes rows that are already sorted by the
    ordering, given each row's peer-group start ([peer_start.(r)] is the
    first position tied with [r]). Permutation and row codes are the
    identity and rank codes are peer-group ordinals: bit-identical to
    sorting under the ordering, with no sort. *)

val extend_words : t -> words:int array array -> ?tie:(int -> int -> int) -> int -> t option
(** [extend_words old ~words ?tie n] incrementally extends an encoding of
    rows [0..m-1] to rows [0..n-1] after an append (densified-rank delta
    patch), given the grown rows' words and residual as for {!of_words}:
    the old arrays are blitted, the appended rows are sorted among
    themselves and their rank codes continue the last old peer group. The
    result is bit-identical to [of_words ~words ?tie n]. [None] when any
    appended row sorts strictly before the old maximum (out-of-order
    append — the caller rebuilds from scratch) or the old encoding is
    empty. *)

val of_cmp : pool:Holistic_parallel.Task_pool.t -> int -> cmp:(int -> int -> int) -> t
(** [of_cmp ~pool n ~cmp] encodes rows [0..n-1] under an arbitrary row
    comparator (which must be a total preorder): the reference the
    encoders above are tested against. *)

(** On the sorting constructors, a [pool] of more than one domain (plus
    an input above {!Holistic_parallel.Task_pool.default_task_size} rows)
    parallelises the code-array scatter as a two-pass chunked prefix sum;
    the arrays produced are bit-identical to the sequential construction. *)
