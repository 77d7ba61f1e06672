(** Per-query resource records and the structured query log.

    Every query the engine runs can be summarised as one {!t}: wall time,
    row counts, the plan's sort/build provenance ({!Window_plan.stats}),
    byte counters (structures, sort scratch, spill), cache hit/miss and
    maintenance tallies, evaluator picks and GC deltas.  Records are
    collected by {!measure} (which wraps a query thunk and diffs the
    registered counters around it, enabling tracing for the duration when
    it was off — the same counter semantics as EXPLAIN ANALYZE) and
    appended to a JSONL query log with the versioned [holiwin-qlog/1]
    schema: one self-describing JSON object per line, written and read
    ({!of_json_line}) with the shared {!Holistic_util.Json} codec, so SLO
    tooling needs no JSON dependency.

    The log sink ({!Log}) rotates by size: when a record would push the
    file past [max_bytes], the file is renamed to [PATH.1] (replacing any
    previous [PATH.1]) and a fresh file starts — bounded disk, always
    line-atomic.  The CLI opens one from [--query-log FILE] or the
    [HOLIWIN_QUERY_LOG] environment variable and hands it to [Sql.query]. *)

open Holistic_storage

val schema_version : string
(** ["holiwin-qlog/1"]. *)

type t = {
  seq : int;  (** per-sink record number, assigned by {!Log.append} *)
  unix_ms : int;  (** wall-clock stamp, milliseconds since the epoch *)
  sql : string;  (** statement text, [""] when not collected via SQL *)
  wall_ns : int;
  rows_in : int;  (** rows of the FROM table *)
  rows_out : int;  (** rows of the result *)
  plan : Window_plan.stats option;  (** [None] for window-free queries *)
  structure_bytes : int;  (** [mem.structure_bytes] delta *)
  scratch_bytes : int;  (** [sort.scratch_bytes] delta *)
  spill_runs : int;
  spill_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_maintained : int;
  cache_rebuilt : int;
  evaluators : (string * int) list;
      (** per-backend [plan.evaluator.*] deltas, non-zero entries only,
          sorted by backend name *)
  alloc_w : int;  (** words allocated on the calling domain *)
  promoted_w : int;
  majors : int;
  session_epoch : int option;
}

val measure :
  ?sql:string ->
  ?session_epoch:int ->
  rows_in:int ->
  (unit -> Table.t * Window_plan.stats option) ->
  Table.t * t
(** Run the thunk and assemble its record ([seq] is 0 until a sink
    assigns one).  Tracing is enabled for the duration if it was off —
    the gated byte/cache/evaluator counters must move — and restored
    (with the span buffer cleared via {!Holistic_obs.Obs.clear_spans})
    afterwards, so cumulative counters keep flowing to the metrics
    exporter.  Also records [wall_ns] into the [sql.query_ns] histogram
    and the [sql.query_window_ns] windowed histogram. *)

val note_latency : int -> unit
(** Record one query latency (ns) into [sql.query_ns] and
    [sql.query_window_ns].  Gated: one atomic load and out when tracing
    is disabled — the hook [Sql.query] runs when no query log is open. *)

val to_json_line : t -> string
(** One [holiwin-qlog/1] JSON object, single line, no trailing newline. *)

val of_json_line : string -> t
(** Parse one log line.  @raise Failure on malformed input or a schema
    mismatch. *)

module Log : sig
  type sink

  val open_ : ?max_bytes:int -> string -> sink
  (** Append-mode sink at [path]; an existing file is continued (its size
      counts toward the rotation threshold).  [max_bytes] defaults to
      16 MiB; the minimum is 4 KiB. *)

  val append : sink -> t -> unit
  (** Assign the next sequence number, write the record as one line and
      flush.  Rotates to [path.1] first when the line would push the
      current file past [max_bytes]. *)

  val path : sink -> string
  val rotations : sink -> int
  val close : sink -> unit

  val load : string -> t list
  (** Parse every line of a log file (for tests and tooling). *)
end
