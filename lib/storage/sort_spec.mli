(** ORDER BY specifications and compiled row comparators. *)

type direction = Asc | Desc

type nulls_order =
  | Nulls_default  (** SQL default: NULLS LAST for ASC, NULLS FIRST for DESC *)
  | Nulls_first
  | Nulls_last

type key = { expr : Expr.t; direction : direction; nulls : nulls_order }

type t = key list

val asc : ?nulls:nulls_order -> Expr.t -> key
val desc : ?nulls:nulls_order -> Expr.t -> key

val key_to_string : key -> string

val to_string : t -> string
(** SQL-ish rendering ("x desc nulls first, y") for plans and traces. *)

val nulls_last_flag : key -> bool
(** Resolved NULL placement: [Nulls_default] means LAST for ASC, FIRST for
    DESC (the SQL default). *)

val comparator : Table.t -> t -> int -> int -> int
(** [comparator table spec] is a compiled total preorder on row indices:
    keys are evaluated once per comparison with column references resolved
    up front. *)

val key_comparator : Table.t -> key -> int -> int -> int
(** The single-key building block of {!comparator}: direction and NULL
    placement applied to one compiled expression. Exposed so multi-table
    sort pipelines (the key codec's residual) can mix keys resolved against
    different tables. *)

val is_prefix : t -> t -> bool
(** [is_prefix o1 o2]: [o1] is a (possibly equal) prefix of [o2], keys
    compared structurally — rows sorted by [o2] are also sorted by [o1]. *)
