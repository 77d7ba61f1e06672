(** Scalar expressions over table rows: column references, constants,
    arithmetic, comparison and boolean logic, with SQL NULL propagation and
    three-valued logic. *)

type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Neg of t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t
  | Case of (t * t) list * t option
      (** searched CASE: WHEN cond THEN value …, optional ELSE (NULL when
          absent) *)
  | Abs of t
  | Greatest of t list
  | Least of t list

val compile : Table.t -> t -> int -> Value.t
(** [compile table e] resolves column references once and returns a per-row
    evaluator. Comparisons involving NULL yield NULL; [And]/[Or] follow SQL
    three-valued logic. @raise Not_found for unknown columns. *)

val eval : Table.t -> t -> int -> Value.t
(** One-shot evaluation: [eval table e i] is [compile table e i], so every
    call compiles [e] again — a closure per node and a column lookup by
    name. Loops over rows {!compile} once and apply the result. *)

val to_bool : Value.t -> bool
(** SQL predicate truth: [Bool true] is true; NULL and [Bool false] are
    not. @raise Invalid_argument for non-boolean non-NULL values. *)

val select : Table.t -> ?rows:int array -> t -> Holistic_util.Bitset.t
(** [select table ?rows e] evaluates the predicate [e] on the given rows
    (default: every row of [table]) and returns the positions where it is
    TRUE: bit [i] is set iff [to_bool (compile table e rows.(i))]. It
    evaluates one column at a time: a comparison of a column with a
    constant is one typed loop over the column's buffer, a NULL test of a
    column reads its mask, and [And]/[Or]/[Not] combine TRUE and FALSE
    masks by three-valued logic; any other subtree is compiled and
    evaluated row by row. It raises what the row-at-a-time loop raises at
    its first failing row: @raise Invalid_argument for a non-boolean
    predicate (as {!to_bool}) or a row out of bounds, and @raise Not_found
    for an unknown column. *)

val to_string : t -> string
