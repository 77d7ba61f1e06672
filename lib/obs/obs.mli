(** Low-overhead execution tracing: nested monotonic-clock spans, named
    counters, log-bucketed latency histograms, per-span memory accounting,
    a process-wide registry, a plan-tree renderer and Chrome [trace_event]
    JSON export.

    The overhead contract: when tracing is disabled (the default), every
    entry point costs one atomic load and returns — no clock reads, no GC
    sampling, no buffer writes, no formatting.  Argument lists and byte
    counts are therefore passed as thunks ([?args], {!record_bytes}) that
    are only forced with tracing on.  Instrumentation sits at
    partition/stage granularity, never per row, so even the call-site
    closure allocations are negligible (see DESIGN.md "Observability" and
    "Resource observability"). *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds since an arbitrary origin. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; with tracing enabled it records a span
    covering the call, parented under the innermost open span of the
    current domain.  [args] is forced once, when the span finishes.  The
    span is closed (and recorded) even if [f] raises.

    Each enabled span also samples [Gc.quick_stat] at entry and exit and
    stores the deltas: words allocated ([alloc_w], minor + direct-major,
    promotions not double-counted), words promoted and major collections
    finished during the span.  The counters are per-domain — work a span
    hands to pool workers is accounted to the workers' own spans. *)

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
  (** Gated: no-op while tracing is disabled. *)

  val add_always : t -> int -> unit
  (** Ungated: for statistics that must stay on regardless of tracing
      (e.g. the OVC merge stats asserted by benches and tests). *)

  val incr : t -> unit
  val value : t -> int
  val set : t -> int -> unit

  val snapshot : unit -> (string * int) list
  (** All registered counters with their current values, sorted by name. *)

  val reset_all : unit -> unit
end

module Histogram : sig
  (** Process-wide registered log-bucketed histograms for latency (or any
      non-negative integer) distributions.  HDR-style bucketing with 16
      sub-buckets per power of two: values 0–15 are exact, larger values
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
  (** Gated: no-op while tracing is disabled (same one-atomic-load fast
      path as {!Counter.add}).  Negative values clamp to 0. *)

  val add_always : t -> int -> unit
  (** Ungated: always records, e.g. for bench harness timing loops that
      run with tracing off. *)

  val count : t -> int

  val quantile : t -> float -> int
  (** [quantile h q] for [q ∈ (0, 1]]: the smallest recorded bucket whose
      cumulative count reaches [q·count], reported as the bucket's lower
      bound clamped into [[min, max]] — a conservative (never
      over-reporting) estimate, exact for values < 16.  0 when empty. *)

  val summary : t -> summary

  val merge : into:t -> t -> unit
  (** Fold [src]'s recorded values into [into] (e.g. per-domain histograms
      into a global one).  Merging a histogram into itself is a no-op. *)

  val reset : t -> unit

  val snapshot : unit -> (string * summary) list
  (** All registered histograms with at least one recorded value, sorted
      by name. *)

  val reset_all : unit -> unit

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
      wins) — e.g. each new [Session] takes over the [session.*] gauges. *)

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
      histogram slices, each covering a fixed span of nanoseconds
      ({!Last_ns}) or of recorded events ({!Last_events}).  When the ring
      wraps onto an expired slice its buckets are zeroed in one
      O(bucket_count) pass — bulk eviction, never per-sample deletion —
      and summaries merge only the slices still inside the window, so
      p50/p90/p99 cover "the last N seconds" / "the last k events" with
      at most one slice of slack.  Same bucketing (and therefore the same
      conservative quantile semantics) as {!Histogram}; {!add} keeps the
      one-atomic-load disabled contract. *)

  type t

  type window =
    | Last_ns of int  (** window covers this many trailing nanoseconds *)
    | Last_events of int  (** window covers this many trailing records *)

  val make : ?help:string -> ?slots:int -> window:window -> string -> t
  (** Find-or-create.  [slots] (default 16, min 2) is the ring size; each
      slice covers [window / slots], so a larger [slots] trades memory
      (960 buckets per slice) for finer expiry granularity.  The window
      of an existing registration is kept. *)

  val name : t -> string
  val help : t -> string
  val window : t -> window

  val window_label : t -> string
  (** ["30s"], ["1500ms"], ["1024ev"] — the [window] label the exporter
      attaches to this metric's samples. *)

  val add : t -> int -> unit
  (** Gated: no-op while tracing is disabled (one atomic load — no clock
      read, no lock). *)

  val add_always : t -> int -> unit
  (** Ungated: always records, stamping the sample with {!now_ns}. *)

  val add_always_at : t -> now_ns:int -> int -> unit
  (** Ungated record with an explicit clock reading — deterministic
      expiry for tests.  Event-count windows ignore the clock. *)

  val summary : t -> Histogram.summary
  (** Merged summary of the slices inside the window as of now.  Slices
      that aged out without being overwritten are excluded (time windows
      expire by clock even when no new samples arrive). *)

  val summary_at : t -> now_ns:int -> Histogram.summary
  val quantile : t -> float -> int
  val quantile_at : t -> now_ns:int -> float -> int

  val events : t -> int
  (** Total records ever added (not just those still in the window). *)

  val evictions : t -> int
  (** Expired slices bulk-zeroed so far. *)

  val reset : t -> unit

  val snapshot : unit -> (string * Histogram.summary) list
  (** All registered windowed histograms with a non-empty live window,
      sorted by name. *)

  val reset_all : unit -> unit
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
  counters : (string * int) list;  (** non-zero registered counters *)
  hists : (string * Histogram.summary) list;  (** non-empty histograms *)
  dropped : int;  (** spans lost to the bounded buffer *)
}

val capture : unit -> trace
val reset : unit -> unit
(** Clear the span buffer, zero every registered counter and reset every
    registered histogram. *)

val clear_spans : unit -> unit
(** Clear only the bounded span buffer, leaving counters, histograms and
    windowed histograms untouched — for collectors (the query log) that
    enable tracing per query without wiping the process-lifetime
    registries the metrics endpoint exports. *)

val with_capture : (unit -> 'a) -> 'a * trace
(** [with_capture f]: reset, enable, run [f], capture, restore the
    previous enabled state.  The trace contains exactly the spans,
    counter increments and histogram records of this run. *)

val totals : trace -> (string * (int * float)) list
(** Per span name, in first-appearance order: (count, total seconds).
    Nested spans of the same name double-count; see {!self_totals}. *)

val self_totals : trace -> (string * (int * float)) list
(** Per span name, in first-appearance order: (count, total {e self}
    seconds — each span's duration minus its direct children's).  Unlike
    {!totals} this neither double-counts nested same-name spans nor
    attributes a child's time to its parent, so the values sum to the
    roots' wall time; used by [bench/profile.ml] phase breakdowns. *)

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
  (** Sample everything now, each section sorted by name.  Unlike
      {!capture} this includes zero counters and empty histograms —
      a scrape endpoint exposes the full inventory. *)

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
