(** Low-overhead execution tracing: nested monotonic-clock spans, named
    counters, log-bucketed latency histograms, per-span memory accounting,
    a process-wide registry, a plan-tree renderer and Chrome [trace_event]
    JSON export.

    {!with_capture} is the one way to observe a run.  A capture owns the
    spans its run records, bounded at 2{^18}: spans go to the capture open
    on the domain that records them, and a pool task carries its
    submitter's capture to the worker that runs it ({!handoff}), so worker
    spans land in the same trace under their real parent.  A span with no
    capture open on its domain records nothing.  Counters and histograms
    count the same way: each capture owns its own cells, and an increment
    lands in the process-wide cell the metrics exporter ({!Metrics})
    reads and in the cells of the capture on its domain (opened there or
    handed over) and of every capture that one nests in.  So captures
    running at the same time, on any domains, see only their own work,
    and nothing resets the process-wide registries.  Overlapping captures
    never switch tracing off for each other: tracing is on while
    {!enable} is set or any capture is open.

    The overhead contract: with tracing off (the default), every entry point
    but the ungated recorders ({!Histogram.add},
    {!Windowed_histogram.add_always}, for per-query latencies and bench
    repetitions) costs one atomic load and returns — no clock reads, no
    GC sampling, no buffer writes, no formatting.  Argument lists and byte counts are
    therefore passed as thunks ([?args], {!record_bytes}) that are only
    forced with tracing on.  Instrumentation sits at partition/stage
    granularity, never per row, so even the call-site closure allocations
    are negligible (see DESIGN.md "Observability" and "Resource
    observability"). *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds since an arbitrary origin. *)

val tracing : unit -> bool
(** Whether tracing is on: {!enable} is set or a capture is open. *)

val enable : unit -> unit
(** Turn tracing on outside captures: gated counters and histograms count
    (spans still need a capture). *)

val disable : unit -> unit

val span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; with a capture open on this domain it
    records a span covering the call into that capture, parented under
    the innermost open span of the current domain (in a task handed over
    by {!handoff}: under the span that submitted it).  [args] is forced
    once, when the span finishes.  The span is closed (and recorded) even
    if [f] raises.

    Each enabled span also samples [Gc.quick_stat] at entry and exit and
    stores the deltas: words allocated ([alloc_w], minor + direct-major,
    promotions not double-counted), words promoted and major collections
    finished during the span.  The counters are per-domain — work a span
    hands to pool workers is accounted to the workers' own spans. *)

val handoff : (unit -> 'a) -> unit -> 'a
(** [handoff task] binds [task] to the calling domain's open capture and
    innermost open span: run on any domain, its spans go to that capture,
    parented under that span.  [Task_pool] wraps every submitted task with
    it.  Without a capture open it returns [task] itself. *)

val annotate : (string * string) list -> unit
(** Append key/value arguments to the innermost open span of the current
    domain.  No-op when tracing is disabled or no span is open. *)

val record_bytes : (unit -> int) -> unit
(** [record_bytes f] adds [f ()] bytes to the innermost open span of the
    current domain — the footprint of a structure the span just built.
    The thunk is only forced with tracing on, so call sites may use
    [Obj.reachable_words]-based accounting freely.  No-op when disabled
    or no span is open. *)

module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Find-or-create the counter registered under this name.  Counters
      are process-wide; [make] at module-initialisation time is free.
      [help] is the metric's description for the metrics exporter; a
      non-empty [help] on a later [make] of the same name replaces the
      stored one (so find-or-create callers without a description never
      erase it). *)

  val name : t -> string

  val help : t -> string

  val add : t -> int -> unit
  (** Gated: no-op while tracing is disabled.  With tracing on, adds to
      the process-wide value and to every capture on this domain's chain
      (see the module header). *)

  val incr : t -> unit
  val value : t -> int
  (** The process-wide value. *)

  val snapshot : unit -> (string * int) list
  (** All registered counters with their process-wide values, sorted by
      name. *)
end

module Histogram : sig
  (** Registered log-bucketed histograms for latency (or any non-negative
      integer) distributions, process-wide and per capture.  HDR-style
      bucketing with 16 sub-buckets per power of two: values 0–15 are exact, larger values
      quantise with < 1/16 relative error, and 960 buckets cover the whole
      non-negative [int] range.  Recording takes a per-histogram mutex —
      fine at stage granularity, not meant for per-row use. *)

  type t

  type summary = {
    count : int;
    sum : int;
    min : int;
    max : int;
    p50 : int;
    p90 : int;
    p99 : int;
  }

  val make : ?help:string -> string -> t
  (** Find-or-create the histogram registered under this name; [help] as
      in {!Counter.make}. *)

  val name : t -> string

  val help : t -> string

  val add : t -> int -> unit
  (** Always records into the process-wide histogram; with tracing on,
      also into every capture on this domain's chain, like
      {!Counter.add}.  Negative values clamp to 0. *)

  val count : t -> int
  (** Process-wide, like the rest of this module's readers. *)

  val quantile : t -> float -> int
  (** [quantile h q] for [q ∈ (0, 1]]: the smallest recorded bucket whose
      cumulative count reaches [q·count], reported as the bucket's lower
      bound clamped into [[min, max]] — a conservative (never
      over-reporting) estimate, exact for values < 16.  0 when empty. *)

  val summary : t -> summary

  val reset : t -> unit

  val snapshot : unit -> (string * summary) list
  (** All registered histograms with at least one recorded value, sorted
      by name. *)

  (**/**)

  (* Exposed for white-box tests and bucket-layout tooling. *)
  val bucket_count : int
  val bucket_of_value : int -> int
  val bucket_lower_bound : int -> int

  (**/**)
end

module Gauge : sig
  (** Pull-model gauges: a registered name plus a sampling callback, read
      only when a metrics snapshot is taken.  Nothing in the query path
      touches a gauge, so their disabled-mode cost is exactly zero.
      Re-registering a name replaces the callback (last registration
      wins), so the owner of the sampled state registers it — e.g. the CLI
      points the [session.*] gauges at its one session. *)

  type t

  val register : ?help:string -> string -> (unit -> int) -> t
  (** [register name read] registers (or re-points) the gauge [name] at
      the callback [read].  [help] as in {!Counter.make}. *)

  val name : t -> string
  val help : t -> string

  val value : t -> int
  (** Sample the callback now.  A raising callback reads as 0. *)

  val snapshot : unit -> (string * int) list
  (** All registered gauges sampled now, sorted by name.  Callbacks run
      outside the registry lock. *)
end

module Windowed_histogram : sig
  (** Sliding-window latency quantiles: a ring of [slots] log-bucketed
      histogram slices, each covering a fixed number of recorded events.
      When the ring wraps onto the oldest slice its buckets are zeroed in
      one O(bucket_count) pass — bulk eviction, never per-sample deletion
      — so p50/p90/p99 cover "the last k events" with at most one slice
      of slack.  Same bucketing (and therefore the same conservative
      quantile semantics) as {!Histogram}; {!add} keeps the
      one-atomic-load disabled contract.  Process-wide only: a capture
      holds no windows. *)

  type t

  type window = Last_events of int  (** window covers this many trailing records *)

  val make : ?help:string -> ?slots:int -> window:window -> string -> t
  (** Find-or-create.  [slots] (default 16, min 2) is the ring size; each
      slice covers [window / slots] events, so a larger [slots] trades
      memory (960 buckets per slice) for finer eviction.  The window of
      an existing registration is kept. *)

  val name : t -> string
  val help : t -> string

  val window_label : t -> string
  (** ["1024ev"] — the [window] label the exporter attaches to this
      metric's samples. *)

  val add : t -> int -> unit
  (** Gated: no-op while tracing is disabled (one atomic load, no lock). *)

  val add_always : t -> int -> unit
  (** Ungated: always records. *)

  val summary : t -> Histogram.summary
  (** Merged summary of the slices inside the window. *)

  val quantile : t -> float -> int

  val events : t -> int
  (** Total records ever added (not just those still in the window). *)

  val reset : t -> unit

  val snapshot : unit -> (string * Histogram.summary) list
  (** All registered windowed histograms with a non-empty live window,
      sorted by name. *)
end

type span = {
  id : int;
  parent : int;  (** -1 for roots *)
  name : string;
  tid : int;  (** domain id *)
  t0_ns : int;
  mutable dur_ns : int;
  mutable args : (string * string) list;
  mutable alloc_w : int;  (** words allocated during the span (this domain) *)
  mutable promoted_w : int;  (** words promoted minor→major during the span *)
  mutable majors : int;  (** major collections finished during the span *)
  mutable bytes : int;  (** structure bytes attributed via {!record_bytes} *)
}

type trace = {
  spans : span list;  (** in start order: parents precede children *)
  counters : (string * int) list;
      (** the capture's non-zero counters, by name: what its own run
          added, on whichever domains it ran *)
  hists : (string * Histogram.summary) list;
      (** the capture's non-empty histograms, by name *)
  dropped : int;  (** spans lost to the capture's bound *)
}

val with_capture : (unit -> 'a) -> 'a * trace
(** [with_capture f] runs [f] with tracing on and returns its result with
    the trace of the run, as the module header describes.  Captures nest
    — an inner capture's spans, counts and records also land in the
    enclosing one.  If [f] raises, the capture closes and the exception
    propagates. *)

val totals : trace -> (string * (int * float)) list
(** Per span name, in first-appearance order: (count, total seconds).
    Nested spans of the same name double-count; see {!self_totals}. *)

val self_totals : trace -> (string * (int * float)) list
(** Per span name and [kind] arg, keyed ["build{kind=prev}"] (just the
    name for spans without a [kind]), in first-appearance order: (count,
    total {e self} seconds — each span's duration minus its direct
    children's).  Unlike {!totals} this neither double-counts nested
    same-name spans nor attributes a child's time to its parent, so the
    values sum to the roots' wall time when no children overlap. *)

val human_bytes : int -> string
(** ["842 B"], ["1.4 KB"], ["26.0 MB"], ... — deterministic for a given
    byte count (used for the render memory column and EXPLAIN ANALYZE). *)

val render : trace -> string
(** Plan-tree rendering: spans indented under their parents, sibling
    spans with identical (name, args) aggregated into one [xN] line, and
    per line three columns — wall time, structure bytes recorded via
    {!record_bytes} ([-] when none), and allocated words.  A trailing
    counter table and histogram table follow.  Times, [_ns]-suffixed
    counters/histograms and allocation figures print as ["%.3f ms"] /
    ["%.1f kw"] so tests can mask them with a regexp; structure bytes are
    deterministic and left unmasked. *)

val to_chrome_json : trace -> string
(** Chrome [trace_event] JSON (open in chrome://tracing or Perfetto):
    spans as ph="X" complete events with tid = domain id and
    alloc/bytes/GC args when non-zero, counters as a final ph="C"
    event. *)

val write_chrome_trace : string -> trace -> unit
(** Write {!to_chrome_json} to a file; the channel is closed even when
    the write fails. *)

module Metrics : sig
  (** One coherent snapshot of every registered metric — counters,
      sampled gauges, cumulative histograms and windowed histograms, each
      with its help string — renderable as Prometheus text exposition or
      as a [holiwin-metrics/1] JSON document.  Surfaced by the
      [holiwin metrics] subcommand and the session REPL. *)

  type t = {
    counters : (string * string * int) list;  (** name, help, value *)
    gauges : (string * string * int) list;
    histograms : (string * string * Histogram.summary) list;
    windows : (string * string * string * Histogram.summary) list;
        (** name, help, window label, live-window summary *)
  }

  val snapshot : unit -> t
  (** Sample everything now, each section sorted by name.  Unlike a
      {!trace} this includes zero counters and empty histograms — a
      scrape endpoint exposes the full inventory. *)

  val filter : (string -> bool) -> t -> t
  (** Keep only metrics whose name satisfies the predicate (deterministic
      goldens filter to a test-owned prefix). *)

  val inventory : t -> (string * string * string) list
  (** [(kind, name, help)] for every metric in the snapshot; the
      help-string lint iterates this. *)

  val to_prometheus : ?stamp_ms:int -> t -> string
  (** Prometheus text exposition: dotted names are sanitised under a
      [holiwin_] prefix, counters/gauges carry [# HELP]/[# TYPE] headers,
      histograms render as summaries with [quantile] labels plus
      [_sum]/[_count], windowed histograms add a [window="..."] label.
      [stamp_ms] (wall clock, supplied by the caller — this library reads
      only the monotonic clock) prepends a snapshot-time comment. *)

  val to_json : ?stamp_ms:int -> t -> string
  (** The same snapshot as a single-line [holiwin-metrics/1] JSON object:
      [{"schema":"holiwin-metrics/1","counters":{name:{help,value}},
      "gauges":{...},"histograms":{name:{help,count,sum,min,max,p50,p90,
      p99}},"windows":{name:{...,"window":label}}}]. *)
end
