(** Automatic storage-width selection for merge sort trees (§5.1).

    Window-operator MST operands are rank encodings: dense integers bounded
    by the partition size. The narrowest fitting width is therefore known
    before the build, and building narrow directly halves or quarters both
    the tree's footprint and the build-phase memory traffic. This module
    owns the narrow instantiations of {!Mst_template} ({!Mst} is the 64-bit
    one) and is the dispatch the operator builds and probes through. *)

module M16 : module type of Mst_template.Make (Mst_storage.Int16u)
(** The int16_unsigned-bigarray instance: a quarter of the 64-bit
    footprint, and reads come back as immediate ints, so nothing boxes.
    Fits operands whose values {e and} length stay below 2^16. *)

module M32 : module type of Mst_template.Make (Mst_storage.Int32s)
(** The int32-bigarray instance: half the 64-bit footprint. *)

type width = W16 | W32 | W64

type choice =
  | Auto  (** narrowest width that fits the operand (the default) *)
  | Force of width
      (** benchmarking knob: use the given width, widened just enough if the
          operand does not fit it (a forced [W16] over 10^6 rows still
          computes correct results at the narrowest fitting width) *)

type t

type scratch = Mst.scratch

val create_scratch : unit -> scratch

val bits : width -> int

val width_for : n:int -> min_value:int -> max_value:int -> width
(** The §5.1 selection rule: narrowest width whose value range covers
    [\[min_value, max_value\]] {e and} whose count range covers [n] (cursor
    states count elements of a run, so lengths must fit too). *)

val create :
  pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?sample:int ->
  ?choice:choice ->
  int array ->
  t
(** Builds at the width selected by [choice] (default [Auto]) after a
    single scan for the operand's value bounds. *)

val try_extend : ?fanout:int -> ?sample:int -> ?choice:choice -> t -> int array -> t option
(** [try_extend t a] maintains [t] incrementally for the grown operand [a]
    (run-stacking append; see {!Mst.append}). [None] — with no rebuild
    attempted — when run-stacking cannot apply (width change, knob
    mismatch, prefix mismatch, shrink), for callers that fall back through
    their own build path (the {!Build_cache} [maintain] callbacks). *)

val width : t -> width
val length : t -> int
val count : t -> lo:int -> hi:int -> less_than:int -> int
val count_ranges : t -> ranges:(int * int) array -> less_than:int -> int
val count_value_ranges : t -> ranges:(int * int) array -> int
val select : t -> scratch:scratch -> ranges:(int * int) array -> nth:int -> int
(** {!Mst.select} at the tree's width, through a probe scratch from
    {!create_scratch} (one scratch serves every width). *)

val neighbour :
  t -> scratch:scratch -> ranges:(int * int) array -> from:int -> k:int -> forward:bool -> int
(** {!Mst.neighbour} at the tree's width. *)

val footprint_bytes : t -> int
(** The repo-wide memory-accounting contract: element bytes at the
    selected width. *)
