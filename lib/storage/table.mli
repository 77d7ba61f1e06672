(** Named-column tables.

    A table is a list of columns of one length. Its columns may be views
    over buffers with room (see {!Column}): {!append} writes only the
    delta when every column owns its buffer's room, and an older table
    keeps its own length and rows whatever is appended after it. *)

type t

val create : (string * Column.t) list -> t
(** @raise Invalid_argument on duplicate names or ragged column lengths. *)

val nrows : t -> int
val column_names : t -> string list

val column : t -> string -> Column.t
(** @raise Not_found for unknown names. *)

val column_opt : t -> string -> Column.t option
val add_column : t -> string -> Column.t -> t
val columns : t -> (string * Column.t) list

val gather : ?room:bool -> t -> int array -> t
(** Row selection: the table restricted to (and reordered by) the given row
    indices, in fresh columns; with [~room:true] they have room to grow
    ({!Column.take}), for a table that later {!append}s. The indices are
    checked once for all the columns ({!Column.take_all}).
    @raise Invalid_argument for an index outside [0, nrows). *)

val append : t -> t -> t
(** [append t delta] concatenates [delta]'s rows below [t]'s. Both tables
    must have the same column names in the same order. A column of [t]
    that owns its buffer's room takes only [delta]'s rows; any other is
    copied once into a buffer with room ({!Column.append}), so appending
    to the newest table costs the delta, and appending to an older one a
    copy. [t] is unchanged. @raise Invalid_argument otherwise. *)

val print : ?max_rows:int -> ?out:out_channel -> t -> unit
(** Debug/CLI pretty printer. *)

val footprint_bytes : t -> int
(** Reachable bytes of the whole table in one traversal, so columns
    shared (e.g. after {!add_column}) count once. Like
    {!Column.footprint_bytes}, it leaves out the columns' bookkeeping,
    counts computed codes, and measures a column with room as its
    {!Column.trim}. *)
