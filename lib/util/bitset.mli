(** Mutable bitsets of a fixed length, used for NULL masks and row filters.

    A bitset's bytes may hold room past its length ({!capacity}), which
    {!extend} fills in place to make a longer bitset over the same bytes.
    Every function reads and writes only a bitset's own {!length} bits, so
    an older, shorter bitset keeps reading what it held even after a
    longer one over its bytes was written. *)

type t

val create : ?capacity:int -> int -> t
(** [create n] is a bitset of length [n] with all bits cleared, with room
    for [capacity] bits in all (default: [n]). *)

val length : t -> int
(** The length given at creation time. *)

val capacity : t -> int
(** The number of bits its bytes hold: at least {!length}. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val get : t -> int -> bool

val unsafe_get : t -> int -> bool
(** {!get} without the bounds check. *)

val set_all : t -> unit
val clear_all : t -> unit

val count : t -> int
(** Number of set bits. *)

val copy : t -> t
(** A fresh bitset of the same length and bits, without room. *)

val init : int -> (int -> bool) -> t
(** [init n f] is a fresh bitset of length [n] whose bit [i] is [f i],
    called for [i = 0 .. n-1] in order. *)

val union : t -> t -> t
(** [union a b] is a fresh bitset with the elementwise OR; lengths must
    match. *)

val inter : t -> t -> t
(** [inter a b] is a fresh bitset with the elementwise AND; lengths must
    match. *)

val complement : t -> t
(** A fresh bitset of the same length with every bit flipped. *)

val append : ?capacity:int -> t -> t -> t
(** [append a b] is a fresh bitset of length [length a + length b] whose
    first [length a] bits are [a]'s and whose rest are [b]'s, with room for
    [capacity] bits in all (default: none). *)

val extend : t -> t -> t
(** [extend a b] writes [b]'s bits into [a]'s room, after [a]'s own, and
    returns the bitset of length [length a + length b] over [a]'s bytes;
    [a] itself is unchanged. The caller must own that room: no other
    bitset over the same bytes may have written bits past [length a].
    @raise Invalid_argument when [a]'s capacity is too small. *)

val gather : ?capacity:int -> t -> int array -> t
(** [gather t rows] is a fresh bitset of length [Array.length rows] whose
    bit [i] is bit [rows.(i)] of [t], with room for [capacity] bits in all
    (default: none). *)

val iter_set : t -> (int -> unit) -> unit
(** [iter_set t f] applies [f] to the index of every set bit, ascending. *)
