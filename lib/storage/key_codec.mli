(** Sort-key compilation into order-preserving integer words.

    Compiles [(partition ids, ORDER BY spec)] into at most a handful of
    row-indexed 63-bit key words such that comparing rows word-by-word with
    [Int.compare] — and only then falling back to the [residual] comparator
    and a final ascending row-id tie-break — reproduces {e exactly} the
    permutation of the stable comparator sort
    ([Introsort.sort_indices_by ~cmp:(Sort_spec.comparator table spec)],
    with partition ids prepended when present). Encodings:

    - ints/dates pass through ([lnot] for DESC);
    - floats via a sign-magnitude bit flip matching [Stdlib.compare]
      (nan lowest, [-0. = +0.]), one word when all low bits are even, else
      a high word plus a one-bit word;
    - bools as 0/1, strings via a one-time densified rank of the distinct
      set;
    - NULLS FIRST/LAST as an extra slot (packed keys) or an extreme
      sentinel (full-range keys);
    - small-range keys are packed greedily into shared words, so a
      partitioned multi-column sort commonly needs one or two words.

    Keys whose values no word can express (intervals, mixed types, lossy
    int-in-float mixes, sentinel collisions) end the word chain: their word
    (if any) remains a correct coarsening, and [residual] decides from that
    key onward. Word arrays may alias column storage — treat them as
    read-only. *)

type source = { table : Table.t; key : Sort_spec.key }
(** One ORDER BY key together with the table its expression resolves
    against (multi-table specs arise in final ORDER BY over computed
    output columns). *)

type t = {
  n : int;  (** number of rows *)
  words : int array array;  (** row-indexed key words, most significant first *)
  residual : (int -> int -> int) option;
      (** comparator over the spec keys not fully expressed by words
          (from key [covered] onward); [None] when the words are exact *)
  pid_divisor : int option;
      (** present iff partition ids were supplied: [words.(0) / d] is a
          monotone image of the partition id, so partition boundaries can
          be read off the sorted leading word with no second pass *)
  covered : int;  (** spec keys fully decided by words *)
  total : int;  (** spec keys overall *)
}

val compile : ?pids:int array -> ?rows:int array -> Table.t -> Sort_spec.t -> t
(** [compile ?pids ?rows table spec] compiles the spec against one table,
    with [pids] as a virtual leading no-NULL int key (its word-0 position
    is recorded in [pid_divisor]). With [rows] (a partition's table rows,
    in any order) the compile covers [Array.length rows] rows and word
    entry [i] — like [pids.(i)] and the residual's row argument [i] —
    describes table row [rows.(i)]: only the key columns are gathered
    (strings through {!Column.order_codes}), an expression key is
    evaluated once per listed row, and the sort order equals that of a
    compile over [Table.gather table rows]. @raise Not_found for unknown
    columns, like [Sort_spec.comparator]. *)

val compile_sources : n:int -> ?pids:int array -> source list -> t
(** Generalisation of {!compile} where each key resolves against its own
    table (all of [n] rows). *)

