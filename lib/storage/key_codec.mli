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
    - bools as 0/1;
    - a column holding {!Column.order_codes} — every string column, and
      any other column once a sort of all its rows left them behind — as
      its codes, whatever its type;
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
    (coded columns through {!Column.order_codes}), an expression key is
    evaluated once per listed row, and the sort order equals that of a
    compile over [Table.gather table rows]. @raise Not_found for unknown
    columns, like [Sort_spec.comparator]. *)

val compile_sources : n:int -> ?pids:int array -> source list -> t
(** Generalisation of {!compile} where each key resolves against its own
    table (all of [n] rows). *)


(** {2 Order codes}

    A one-key order over a plain column can be served from the column's
    {!Column.order_codes}; a sort of all of a table's rows by such a key
    leaves them behind for the column when it had none. *)

val code_slots : ?rows:int array -> Table.t -> Sort_spec.t -> (int array * int) option
(** [code_slots ?rows table spec], for a one-key [spec] over a column
    holding order codes, is [Some (slots, span)]: the single exact word a
    {!compile} of the same arguments sorts by, every slot in [\[0, span)]
    — the codes (gathered through [rows]) with DESC mirrored and NULLs in
    their own first or last slot — when [span] is at most the row count,
    as it always is over all of a column's rows. [None] for any other
    spec, an uncoded column, or codes spread wider than the rows (a
    {!Column.take} of a coded column can leave them so): {!compile} then
    reads the codes as that one word. The array may be the column's
    shared codes: treat it as read-only. *)

val offer_codes : Table.t -> Sort_spec.t -> (unit -> int array) -> unit
(** [offer_codes table spec ranks] hands a one-key [spec]'s column, when
    it holds no order codes yet, the ranks of a finished sort of all of
    [table]'s rows by [spec] ({!Column.adopt_ranks}; [ranks ()] is row
    [i]'s dense peer-group ordinal in the sort order). It forces [ranks]
    only then, so a sort that leaves codes behind costs one O(n) pass and
    never a sort of its own. *)
