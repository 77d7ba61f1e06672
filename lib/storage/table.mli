(** Named-column tables. *)

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

val gather : t -> int array -> t
(** Row selection: the table restricted to (and reordered by) the given row
    indices. *)

val append : t -> t -> t
(** [append t delta] concatenates [delta]'s rows below [t]'s. Both tables
    must have the same column names in the same order.
    @raise Invalid_argument otherwise. *)

val print : ?max_rows:int -> ?out:out_channel -> t -> unit
(** Debug/CLI pretty printer. *)

val footprint_bytes : t -> int
(** Reachable bytes of the whole table in one traversal, so columns
    sharing arrays (e.g. after {!add_column}) count once. Like
    {!Column.footprint_bytes}, it leaves out the columns' empty
    order-code cells and counts computed codes. *)
