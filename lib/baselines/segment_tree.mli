(** Segment trees for framed distributive and algebraic aggregates
    (Leis et al. [27], the paper's only parallelisable competitor and the
    substrate for non-holistic framed aggregates in the window operator).

    O(n) build, O(log n) per range query, read-only and shareable between
    domains after construction. The aggregate only needs to be associative;
    left-to-right combination order is preserved, and no inverse is
    required. *)

type 'a t

val create : identity:'a -> combine:('a -> 'a -> 'a) -> int -> (int -> 'a) -> 'a t
(** [create ~identity ~combine n leaf] builds the tree over leaves
    [leaf 0 .. leaf (n-1)] under the monoid ([identity], [combine]). *)

val query : 'a t -> lo:int -> hi:int -> 'a
(** Aggregate of leaves [\[lo, hi)], clamped to [\[0, n)]; identity when
    empty. *)

val footprint_bytes : 'a t -> int
(** Reachable bytes of the node array (boxed payloads included) — the
    repo-wide memory-accounting contract. *)
