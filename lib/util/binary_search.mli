(** Binary-search kernels over sorted integer array segments.

    All functions operate on the half-open segment [\[lo, hi)] of [a], which
    must be sorted in non-decreasing order. Results are absolute indices. *)

val lower_bound : int array -> lo:int -> hi:int -> int -> int
(** [lower_bound a ~lo ~hi x] is the smallest index [i] in [\[lo, hi\]] such
    that every element of [a.(lo..i-1)] is [< x]; equivalently the position
    where [x] would be inserted to keep the segment sorted, before any equal
    elements. Returns [hi] when every element is [< x]. *)

val upper_bound : int array -> lo:int -> hi:int -> int -> int
(** [upper_bound a ~lo ~hi x] is the smallest index [i] such that every
    element of [a.(lo..i-1)] is [<= x]. *)

val lower_bound_by : (int -> int) -> lo:int -> hi:int -> int
(** [lower_bound_by cmp ~lo ~hi] generalises {!lower_bound} to an abstract
    monotone predicate: [cmp i < 0] must mean "element [i] is below the
    target". Returns the first index whose [cmp] is [>= 0], or [hi]. *)
