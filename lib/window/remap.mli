(** Index remapping between a partition and its filtered representation
    (paper §4.5/§4.7): FILTER clauses, IGNORE NULLS and NULL-skipping
    aggregates drop rows {e before} any tree is built; frame ranges are then
    translated into the filtered index space in O(1) via prefix counts. *)

type t

val create : np:int -> qualifies:(int -> bool) -> t

val all : int -> t
(** Identity remap over [np] rows (no filtering). It holds no arrays and
    answers like [create ~np ~qualifies:(fun _ -> true)]. *)

val footprint_bytes : t -> int
(** Bytes held by the prefix and position arrays (incl. headers) — the
    repo-wide memory-accounting contract; 0 for {!all}. *)

val filtered_count : t -> int

val qualifies : t -> int -> bool

val position : t -> int -> int
(** Partition position of the [i]-th qualifying row. *)

val rank : t -> int -> int
(** Number of qualifying rows before partition position [r]: the filtered
    position of [r] when it qualifies (inverse of {!position}). *)

val map_range : t -> int * int -> int * int
(** Frame range in partition positions → range in filtered positions. *)

val map_ranges : t -> (int * int) array -> (int * int) array
(** Maps and drops ranges that became empty. *)
