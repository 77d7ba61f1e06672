(** Footprint-driven memory governor for out-of-core execution.

    A governor tracks the engine's accounted live bytes against an
    optional budget and decides, per stage, whether the stage runs in
    memory (the exact historical path) or spills to disk. With no
    governor — or a budget that the working set fits under — every
    decision is [Sort_in_memory] and execution, spans and goldens are
    byte-identical to the in-memory engine.

    Budgets govern the {e accounted} working set (key words, sort
    transients, structure bytes), not the process RSS. *)

exception Budget_too_small of string
(** The budget is below the minimum working set of a required stage.
    Raised instead of thrashing; the message says what did not fit. *)

type policy =
  | Auto  (** spill only when the accounted working set exceeds the budget *)
  | Always_spill
      (** force every spillable stage down the spill path regardless of
          footprint — the differential-testing mode behind
          [HOLIWIN_MEM_LIMIT=spill] *)

type t

val create : ?budget:int -> ?policy:policy -> ?dir:string -> unit -> t
(** [budget] is in bytes; omitting it with [Auto] yields a governor that
    never spills (but still tracks peaks). [dir] is the parent directory
    for spill files (default: the system temp dir). *)

val policy : t -> policy
val budget : t -> int option

(** {2 Footprint accounting} *)

val charge : t -> int -> unit
val release : t -> int -> unit

val live : t -> int
(** Currently accounted bytes. *)

val peak : t -> int
(** High-water mark of {!live}. *)

(** {2 Stage decisions} *)

type sort_plan =
  | Sort_in_memory
  | Sort_spill of { run_rows : int; read_entries : int }
      (** form sorted runs of [run_rows] rows, merge them back with
          [read_entries]-entry read buffers per run *)

val plan_sort : t -> n:int -> nwords:int -> multi_run:bool -> sort_plan
(** Decides how to sort [n] rows of [nwords] key words, assuming the
    words themselves are already charged. [multi_run] tells the governor
    whether the in-memory path would allocate merge scratch (2 extra
    arrays of [n]). Raises {!Budget_too_small} when even the spill
    path's minimum working set (run formation chunks, then output
    permutation + per-run read buffers) exceeds the budget. *)

val stream_builds : t -> bytes:int -> bool
(** Whether a structure build that would materialise [bytes] of operand
    array should stream its leaves instead (chunked
    [Mst_*.create_stream]). True under [Always_spill], or when charging
    [bytes] would exceed the budget. *)

val pick_spills : candidates:(string * int) list -> need:int -> string list
(** Pure eviction policy: given [(name, bytes)] candidates, returns the
    names to spill, largest first, until at least [need] bytes are
    freed (or the candidates run out). *)

(** {2 Spill files} *)

val spill_dir : t -> string
(** The governor's private temp directory, created on first use. *)

val cleanup : t -> unit
(** Removes the spill directory and anything left in it. Never raises;
    safe to call repeatedly. *)

(** {2 Spill provenance} *)

val note_spill : t -> runs:int -> bytes:int -> unit
val take_last_spill : t -> (int * int) option
(** [(runs, bytes)] of the most recent spill since the last take — the
    hook EXPLAIN ANALYZE uses to tag the owning span. *)

val totals : t -> int * int
(** Cumulative [(runs, bytes)] spilled through this governor. *)

(** {2 Configuration} *)

val parse_limit : string -> int option * policy
(** Parses a [--mem-limit] / [HOLIWIN_MEM_LIMIT] value: ["spill"]
    (force-spill everything), a byte count, or a count with a [K] / [M] /
    [G] suffix, e.g. ["64K"], ["512M"], ["1G"]. Raises [Invalid_argument]
    with a usage hint otherwise. *)
