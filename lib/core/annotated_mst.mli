(** Merge sort trees annotated with per-run prefix aggregates (§4.3):
    windowed DISTINCT variants of arbitrary distributive and algebraic
    aggregates.

    The tree is built over prev-occurrence codes ({!Prev_occurrence}); within
    every sorted run, each element carries the running aggregate of the
    {e argument values} of all run elements up to and including itself.
    A frame's DISTINCT aggregate is then the combination of one prefix
    aggregate per covering run: inside each run, the elements whose
    back-reference points before the frame start — exactly the first
    occurrences of the distinct values — form a prefix, because runs are
    sorted by back-reference.

    Only a {e combine} function is required; no inverse, so user-defined
    aggregates qualify (§4.3).

    Frames with exclusion holes cannot be answered by per-range queries
    (a back-reference can point into a hole); {!Window} evaluates holed
    DISTINCT frames as a whole-span query plus an O(hole) correction. *)

module type MONOID = sig
  type t

  val identity : t
  val combine : t -> t -> t
end

module Make (M : MONOID) : sig
  type t

  val create :
    pool:Holistic_parallel.Task_pool.t ->
    ?fanout:int ->
    ?sample:int ->
    keys:int array ->
    value:(int -> M.t) ->
    unit ->
    t
  (** [create ~keys ~value ()] builds the annotated tree; [keys] are the
      encoded prev-occurrence codes in window-frame order and [value i] is
      row [i]'s aggregate argument. *)

  val query : t -> lo:int -> hi:int -> less_than:int -> M.t
  (** Combination of [value i] over positions [i ∈ [lo, hi)] with
      [keys.(i) < less_than]. For a frame [\[lo, hi)] in frame order, passing
      [~less_than:(lo + 1)] yields the frame's DISTINCT aggregate. *)

  val footprint_bytes : t -> int
  (** Tree element bytes plus the reachable words of the per-run prefix
      aggregates — the repo-wide memory-accounting contract. *)
end
