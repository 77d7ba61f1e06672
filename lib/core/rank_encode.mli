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

val of_cmp : pool:Holistic_parallel.Task_pool.t -> int -> cmp:(int -> int -> int) -> t
(** [of_cmp ~pool n ~cmp] encodes rows [0..n-1] under an arbitrary row
    comparator (which must be a total preorder). *)

val of_peers : int array -> t
(** [of_peers peer_start] encodes rows that are already sorted by the
    ordering, given each row's peer-group start ([peer_start.(r)] is the
    first position tied with [r]). Permutation and row codes are the
    identity and rank codes are peer-group ordinals: bit-identical to
    {!of_cmp} under the ordering's comparator, with no sort. *)

val of_ints : pool:Holistic_parallel.Task_pool.t -> ?nulls:(int -> bool) * bool -> int array -> t
(** Fast path for a single ascending integer key, using the parallel pair
    sort. [nulls = (is_null, last)] marks NULL positions: they tie with each
    other, never with a value, and form one block in position order after
    (when [last]) or before every value; their entries in the key array are
    ignored. *)

val of_floats :
  pool:Holistic_parallel.Task_pool.t -> ?desc:bool -> ?nulls:(int -> bool) * bool -> float array -> t
(** Fast path for a single plain float key (either direction), using the
    unboxed float pair sort. Equal floats tie; NaNs form their own group,
    ordered as the comparator's [Float.compare] orders them. [nulls] as in
    {!of_ints}. *)

val extend_cmp : t -> int -> cmp:(int -> int -> int) -> t option
(** [extend_cmp old n ~cmp] incrementally extends an encoding of rows
    [0..m-1] to rows [0..n-1] after an append (densified-rank delta patch):
    the old arrays are blitted, the appended rows are sorted among
    themselves and their rank codes continue the last old peer group. The
    result is bit-identical to [of_cmp n ~cmp]. [None] when any appended
    row sorts strictly before the old maximum (out-of-order append — the
    caller rebuilds from scratch) or the old encoding is empty. *)

val extend_ints : t -> int array -> t option
(** [extend_ints old values] — the {!of_ints} counterpart of
    {!extend_cmp}; [values] is the full grown key array. *)

val extend_floats : ?desc:bool -> t -> float array -> t option
(** The {!of_floats} counterpart of {!extend_cmp}. *)

(** On every sorting constructor, a [pool] of more than one domain (plus
    an input above {!Holistic_parallel.Task_pool.default_task_size} rows)
    parallelises the code-array scatter as a two-pass chunked prefix sum;
    the arrays produced are bit-identical to the sequential construction. *)
