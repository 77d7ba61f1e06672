(** Per-row window-frame bounds within one partition (§2.2, §4.7).

    Bounds are computed for every row independently — nothing requires
    monotonicity, so arbitrary per-row bound expressions are supported and
    the resulting frames may jump around freely (§6.5). Frame-exclusion
    clauses carve up to two holes out of the base frame, yielding at most
    three continuous ranges (§4.7).

    Row loops read unboxed data (§5.1): peers compare each ORDER BY
    column's typed array, offsets are compiled once per bound, and RANGE
    binary-searches one int or float array of the partition's keys. *)

open Holistic_storage

type t

val compute :
  ?peers:int array * int array -> Table.t -> spec:Window_spec.t -> rows:int array -> t
(** [compute table ~spec ~rows] evaluates the frame specification for the
    partition whose rows (original indices, already in window-frame order)
    are [rows]. RANGE mode requires exactly one ORDER BY key of a numeric or
    date type; rows with a NULL RANGE key frame their null peer group, as in
    PostgreSQL. An offset is checked only when a row asks for it, so an
    invalid one over an empty partition raises nothing; a RANGE offset
    whose type does not fit the key (say, an interval on an int key)
    raises. [peers] supplies precomputed peer-group bounds (from
    {!peers}) so plans evaluating several frames over one sorted partition
    scan for peer groups once. @raise Invalid_argument on malformed specs. *)

val peers : Table.t -> Sort_spec.t -> int array -> int array * int array
(** [(peer_start, peer_end)] per partition position for the given window
    ORDER BY — shareable across every frame with the same ORDER BY. *)

val extend_peers :
  Table.t -> Sort_spec.t -> int array -> int array * int array -> int array * int array
(** [extend_peers table order_by rows old] is [peers table order_by rows]
    when [old] is the peers of a prefix of [rows] (a partition extended in
    order): groups before the prefix's last one are copied, and only the
    rows from that group's start on are rescanned. *)

val size : t -> int
(** Number of rows in the partition. *)

val start_ : t -> int -> int
(** Base frame start (inclusive partition position, before exclusion). *)

val end_ : t -> int -> int
(** Base frame end (exclusive). May be [<= start_] for an empty frame. *)

val peer_start : t -> int -> int
(** Start of the row's peer group under the window ORDER BY. *)

val peer_end : t -> int -> int

val ranges : t -> int -> (int * int) array
(** The frame of row [r] after applying the exclusion clause: up to three
    disjoint half-open ranges of partition positions, ascending, each
    non-empty. *)

val covered : t -> int -> int
(** Total number of positions in [ranges t r]. *)

val exclusion : t -> Window_spec.exclusion
