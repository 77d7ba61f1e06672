(** Fixed-capacity mutable bitsets, used for NULL masks and row filters. *)

type t

val create : int -> t
(** [create n] is a bitset of capacity [n] with all bits cleared. *)

val length : t -> int
(** Capacity given at creation time. *)

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

val union : t -> t -> t
(** [union a b] is a fresh bitset with the elementwise OR; capacities must
    match. *)

val append : t -> t -> t
(** [append a b] is a fresh bitset of capacity [length a + length b]
    whose first [length a] bits are [a]'s and whose rest are [b]'s. *)

val gather : t -> int array -> t
(** [gather t rows] is a fresh bitset of capacity [Array.length rows]
    whose bit [i] is bit [rows.(i)] of [t]. *)

val iter_set : t -> (int -> unit) -> unit
(** [iter_set t f] applies [f] to the index of every set bit, ascending. *)
