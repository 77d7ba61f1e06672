(** Segment trees for framed distributive and algebraic aggregates
    (Leis et al. [27], the paper's only parallelisable competitor and the
    substrate for non-holistic framed aggregates in the window operator).

    O(n) build, O(log n) per range query, read-only and shareable between
    domains after construction. The aggregate only needs to be associative;
    left-to-right combination order is preserved, and no inverse is
    required. *)

module type MONOID = sig
  type t

  val identity : t
  val combine : t -> t -> t
end

module Make (M : MONOID) : sig
  type t

  val create : int -> (int -> M.t) -> t
  (** [create n leaf] builds the tree over leaves [leaf 0 .. leaf (n-1)]. *)

  val length : t -> int

  val query : t -> lo:int -> hi:int -> M.t
  (** Aggregate of leaves [\[lo, hi)], clamped to [\[0, n)]; identity when
      empty. *)

  val footprint_bytes : t -> int
  (** Reachable bytes of the node array (boxed payloads included) — the
      repo-wide memory-accounting contract. *)
end

module Int_sum : sig
  type t

  val create : int array -> t
  val query : t -> lo:int -> hi:int -> int
  val footprint_bytes : t -> int
end
