(** Growable integer vectors with amortised O(1) push. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val clear : t -> unit

val to_array : t -> int array
(** Fresh array with the current contents. *)
