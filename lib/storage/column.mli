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
    (projection/selection support for the SQL layer). *)

val append : t -> t -> t
(** [append a b] concatenates two columns (the session-layer append path).
    Same-typed payloads blit; an Int/Float mix follows {!of_values}'s
    numeric promotion. @raise Invalid_argument on incompatible types. *)

val dense_numbering : int -> 'a -> int
(** [dense_numbering size] is a fresh numbering that maps each value to
    its first-appearance index among the distinct values it has seen: 0,
    1, 2, ... Values compare with polymorphic equality, so NULLs group
    together and [nan] equals [nan]. [size] is the initial hash table
    size. *)

val distinct_ids : t -> int array
(** Dense integer equality keys: two rows receive the same id iff their
    values are SQL-equal (NULLs all share one id; callers filter NULLs for
    NULL-ignoring semantics). For [Ints]/[Dates] columns this is the raw
    value; other types go through an exact hash table, so — unlike the
    paper's sort-the-hashes shortcut (§6.7) — hash collisions cannot corrupt
    distinct counts. *)

val footprint_bytes : t -> int
(** Reachable bytes of the column (data array, null bitset, string
    payloads) — the repo-wide memory-accounting contract.  Deterministic
    for a given column; strings shared {e within} the column count once. *)
