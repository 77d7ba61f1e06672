(** Typed columnar storage with NULL masks.

    {2 Ownership}

    A column is a view of its first {!length} rows over a buffer — its
    arrays and the bytes of its NULL mask — that may hold more: the rest
    is room. {!append} writes a delta into that room, without copying the
    column, when the column owns it: its length equals the buffer's
    high-water mark (the rows any view over the buffer has claimed), and
    one compare-and-set on that mark makes the claim. Otherwise it copies
    once into a fresh buffer with room. The rows of an older, shorter view
    never change and it never reads past its own length, so every column a
    caller holds keeps reading its own rows whatever is appended after it;
    of two columns with the same length over one buffer, the first to
    append claims the room and the other copies.

    Readers in the library take the arrays with {!buffer} and read only
    their first {!length} entries; {!data} returns exactly [length]
    entries, copying when the column has room. *)

type data =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of bool array
  | Dates of int array

type t

val make : ?nulls:Holistic_util.Bitset.t -> data -> t
(** [nulls] marks NULL rows (set bit = NULL); its length must match the
    data length. The column has no room. *)

val length : t -> int

val data : t -> data
(** The column's rows: arrays of exactly {!length} entries. They alias
    the buffer when it has no room, else they are a fresh copy. *)

val buffer : t -> data
(** The column's buffer, without a copy: arrays that may run past
    {!length}. Only their first [length] entries are this column's; the
    rest is room, or rows of a longer column over the same buffer. Read
    only, like {!data}. *)

val trim : t -> t
(** The column itself when it has no room, else a copy of exactly its rows
    (order codes shared). *)

val null_mask : t -> Holistic_util.Bitset.t option
(** The NULL mask, of the column's length; its bytes may hold room. *)

val is_null : t -> int -> bool

val get : t -> int -> Value.t
(** Boxed row access (slow path; hot paths read {!buffer} directly).
    @raise Invalid_argument for a row past {!length}. *)

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

val take : ?room:bool -> t -> int array -> t
(** [take c rows] gathers the given row indices into a fresh column
    (projection/selection support for the SQL layer); with [~room:true]
    its buffer has room for about an eighth as many rows again, for a
    column that keeps growing by {!append}. When [c] already
    holds {!order_codes}, of any type, the new column gets them gathered
    too: they still follow the column's order and stay one-to-one on the
    distinct values, but are no longer dense. *)

val take_all : ?room:bool -> t list -> int array -> t list
(** [take_all cols rows] is [List.map (fun c -> take c rows) cols], with
    the rows checked once for all the columns rather than once per
    column. @raise Invalid_argument for a row past any column's
    {!length}. *)

val append : t -> t -> t
(** [append a b] concatenates two columns (the session-layer append path).
    Same-typed payloads blit: only [b]'s rows when [a] owns its buffer's
    room (see the ownership notes above), else both into a fresh buffer
    with room for about half as many rows again. An Int/Float mix follows
    {!of_values}'s numeric promotion. The result holds no {!order_codes}:
    they are computed afresh on first use; [a] keeps its own.
    @raise Invalid_argument on incompatible types. *)

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
    share one id, below every other id (callers filter NULLs for
    NULL-ignoring semantics): [min_int], except for an [Ints]/[Dates]
    column with NULLs that holds [min_int] itself, whose rows get their
    {!ranks} instead, NULL lowest. [Ints]/[Dates] give the raw value, [Bools]
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

val bookkeeping_bytes : int
(** Bytes every column spends on its length, its buffer's high-water mark
    and its (possibly empty) {!order_codes} cell; {!footprint_bytes} and
    [Table.footprint_bytes] leave them out. *)

val footprint_bytes : t -> int
(** Reachable bytes of the column (data array, null bitset, string
    payloads, and the {!order_codes} once computed) — the repo-wide
    memory-accounting contract. The bookkeeping is not counted, so a
    column without codes weighs what its data does, and a column with
    room weighs what its {!trim} does: the room is the next append's. Deterministic for a
    given column; strings shared {e within} the column count once. *)
