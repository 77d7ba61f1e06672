(** Typed columnar storage with NULL masks. *)

type data =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of bool array
  | Dates of int array

type t

val make : ?nulls:Holistic_util.Bitset.t -> data -> t
(** [nulls] marks NULL rows (set bit = NULL); it must match the data
    length. *)

val length : t -> int
val data : t -> data
val null_mask : t -> Holistic_util.Bitset.t option
val is_null : t -> int -> bool

val get : t -> int -> Value.t
(** Boxed row access (slow path; hot paths use {!data} directly). *)

val of_values : Value.t array -> t
(** Infers the column type from the non-NULL values: the first one's type,
    except that Ints and Floats in any order make a Floats column.
    @raise Invalid_argument on any other mix of types. *)

val ints : int array -> t
val floats : float array -> t
val strings : string array -> t
val dates : int array -> t

val float_at : t -> int -> float
(** Numeric read with Int→Float widening; NULL reads as [nan].
    @raise Invalid_argument for non-numeric columns. *)

val take : t -> int array -> t
(** [take c rows] gathers the given row indices into a fresh column
    (projection/selection support for the SQL layer). When [c] already
    holds {!order_codes}, of any type, the new column gets them gathered
    too: they still follow the column's order and stay one-to-one on the
    distinct values, but are no longer dense. *)

val append : t -> t -> t
(** [append a b] concatenates two columns (the session-layer append path).
    Same-typed payloads blit; an Int/Float mix follows {!of_values}'s
    numeric promotion. The result holds no {!order_codes}: they are
    computed afresh on first use. @raise Invalid_argument on incompatible
    types. *)

val dense_numbering : int -> 'a -> int
(** [dense_numbering size] is a fresh numbering that maps each value to
    its first-appearance index among the distinct values it has seen: 0,
    1, 2, ... Values compare with polymorphic equality, so NULLs group
    together and [nan] equals [nan]. [size] is the initial hash table
    size. *)

val ranks : ('a -> 'a -> int) -> 'a array -> int array
(** [ranks cmp keys] gives each key its dense rank under [cmp]: keys equal
    under [cmp] share a rank, and ranks run [0..d-1] in ascending key
    order. O(n log n) comparisons. *)

val distinct_ids : t -> int array
(** Order-preserving integer equality keys: two rows receive the same id
    iff their values are equal, and ids ascend with the value. NULLs all
    share [min_int], below every other id (callers filter NULLs for
    NULL-ignoring semantics). [Ints]/[Dates] give the raw value, [Bools]
    0 and 1, [Strings] their {!order_codes} ([String.compare] order) and
    [Floats] their {!ranks} under [Float.compare] (every NaN equal and
    below every number, [-0. = +0.]). Ids are exact — unlike the paper's
    sort-the-hashes shortcut (§6.7), no hash collision can merge two
    values — and, as a monotone image of the value, any subset or
    superset of the rows keeps their relative order. *)

val string_ranks : int -> (int -> string) -> (int -> bool) -> int array
(** [string_ranks n get is_null] densifies a string key over rows
    [0..n-1]: row [i]'s code is the rank of [get i] among the distinct
    strings of the rows where [is_null] fails, in [String.compare] order
    (equal strings share a code). Codes of NULL rows are unspecified, and
    [get] is never called on them. The one densifier: {!order_codes}
    memoizes it per string column, and expression keys call it directly. *)

val order_codes : t -> int array option
(** [order_codes c] is the column's order codes, when it holds them: one
    int per row whose [Int.compare] order is the column's ascending key
    order on the non-NULL rows — [String.compare] for strings,
    [Stdlib.compare] for floats (NaN below every number, [-0. = +0.]),
    integer order for ints, dates and bools. Equal values share a code and
    the codes are dense ranks [0..d-1]; NULL rows hold 0, and DESC and
    NULLS FIRST/LAST are the key codec's to apply. A string column
    densifies on first use ({!string_ranks}). Any other column only holds
    codes after a sort of all its rows left them behind ({!adopt_ranks}):
    [None] until then, because numeric codes never cost a sort of their
    own. {!take} gathers existing codes (no longer dense) and {!append}
    drops them. Once published, every later call — from any domain —
    returns the same array; it is shared and must not be written to. *)

val adopt_ranks : t -> desc:bool -> int array -> unit
(** [adopt_ranks c ~desc ranks] publishes order codes for a column that
    holds none, from a finished sort of all its rows by the column alone:
    [ranks.(i)] is row [i]'s dense peer-group ordinal in that sort (DESC
    when [desc]; the NULL rows, all at one end, form a group of their
    own). [ranks] is rewritten into the codes in O(n) and kept. A column
    that already holds codes is left as it is, so when two domains adopt at
    once one array is published. @raise Invalid_argument on a length
    mismatch. *)

val memo_cell_bytes : int
(** Bytes every column spends on its (possibly empty) {!order_codes} cell;
    {!footprint_bytes} and [Table.footprint_bytes] leave them out. *)

val footprint_bytes : t -> int
(** Reachable bytes of the column (data array, null bitset, string
    payloads, and the {!order_codes} once computed) — the repo-wide
    memory-accounting contract. The empty memo cell is not counted, so a
    column without codes weighs what its data does. Deterministic for a
    given column; strings shared {e within} the column count once. *)
