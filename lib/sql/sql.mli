(** Front door of the SQL layer: parse and execute the window-function SQL
    subset, including the paper's proposed extensions (§2.4) — framed
    DISTINCT aggregates, framed percentiles/ranks/value functions with a
    second ORDER BY, FILTER, frame exclusion, named WINDOW clauses.

    {[
      let pool = Holistic_parallel.Task_pool.create 4 in
      let result =
        Sql.query ~pool
          ~tables:[ ("lineitem", lineitem) ]
          "select l_shipdate, \
                  percentile_disc(0.99 order by l_receiptdate - l_shipdate) over w \
           from lineitem \
           window w as (order by l_shipdate \
                        range between interval '1 week' preceding and current row)"
    ]} *)

open Holistic_storage

exception Parse_error of string * int  (** message, character offset *)

exception Semantic_error of string

module Session = Holistic_window.Session

module Query_stats = Holistic_window.Query_stats
(** Per-query resource records and the [holiwin-qlog/1] JSONL query log;
    see {!Holistic_window.Query_stats}. *)

val query :
  pool:Holistic_parallel.Task_pool.t ->
  ?evaluator:Holistic_window.Evaluator_choice.name ->
  ?governor:Holistic_window.Mem_governor.t ->
  ?session:Session.t ->
  ?query_log:Query_stats.Log.sink ->
  tables:(string * Table.t) list ->
  string ->
  Table.t
(** Parses and executes one SELECT statement against the named tables,
    running its sorts, builds and probes on the caller's [pool].
    [evaluator] pins every window item to one backend (strict; see
    {!Holistic_window.Window_plan.run}); [governor] bounds the
    window stage's sorts — they spill to disk runs under pressure, with
    bit-identical results, while structures are built in memory
    (caller-owned; see {!Holistic_window.Mem_governor}); [session] is a
    persistent structure store consulted and refilled when the FROM table
    is the session's table and no WHERE clause filters it — bind it with
    [~tables:[ (name, Session.table s) ]]; [query_log] receives one
    {!Query_stats.t} record per statement: {!Query_stats.of_trace} of the
    one run {!explain_analyze_trace} would make (a capture open around the
    call keeps that run's spans too).  Without a sink the statement still
    feeds the [sql.query_ns] latency histograms whenever tracing is on.
    The library reads no environment variables: the CLI turns
    [HOLIWIN_DOMAINS], [HOLIWIN_MEM_LIMIT] and [HOLIWIN_QUERY_LOG] into
    these arguments. *)

(** {2 Sessions}

    A session pins one table and carries its sorted orders, partition
    layouts, per-partition index structures and per-item outputs across
    queries. Appends and evictions maintain the cached state incrementally
    (run-stacked merge-sort trees, extended rank encodings, merged sort
    runs) instead of discarding it; results are bit-identical to evaluating
    from scratch. See {!Holistic_window.Session}. *)

val session_create : pool:Holistic_parallel.Task_pool.t -> Table.t -> Session.t
(** A fresh session owning [table]; structures populate on first query,
    and maintenance runs on [pool]. It registers no gauge: the owner of
    the process's one session calls {!Session.register_gauges}. *)

val session_table : Session.t -> Table.t
(** The session's current table (appends and evictions replace it). *)

val session_append : Session.t -> Table.t -> unit
(** Appends [delta]'s rows (same schema) to the session's table and
    incrementally maintains every cached structure; see
    {!Holistic_window.Session.append_rows}. *)

val session_evict : Session.t -> string -> unit
(** [session_evict s pred] parses [pred] as a scalar predicate over the
    session table's columns (e.g. ["ts < date '2024-01-01'"]), evaluates
    it one column at a time ({!Holistic_storage.Expr.select}) and
    bulk-evicts every row where it is TRUE, compacting the cached
    structures in place; see {!Holistic_window.Session.evict}.
    @raise Parse_error / Semantic_error on a malformed predicate.
    @raise Invalid_argument on a non-boolean one, as WHERE does; the
    session is then unchanged. *)

val explain : string -> string
(** Parses the statement and renders the recognised structure (for the CLI
    and tests). *)

val explain_analyze_trace :
  pool:Holistic_parallel.Task_pool.t ->
  ?evaluator:Holistic_window.Evaluator_choice.name ->
  ?governor:Holistic_window.Mem_governor.t ->
  ?session:Session.t ->
  tables:(string * Table.t) list ->
  string ->
  Table.t * Holistic_obs.Obs.trace
(** EXPLAIN ANALYZE's one observed run: executes the statement (arguments
    as in {!query}) with {!Holistic_obs.Obs} tracing captured around it
    and returns the result with the captured trace — render it with
    {!render_analyze}, or export it with
    {!Holistic_obs.Obs.write_chrome_trace}.  The trace is rooted at a
    [sql.query] span; spans that pool workers record sit under the span
    that submitted their task, and counters are deltas over the run.
    Through a [session], sort and item spans carry cache provenance tags
    — [reused(epoch=k)], [maintained(+n rows)], [rebuilt(stale)] —
    showing how each structure was obtained. *)

val render_analyze : string -> Table.t * Holistic_obs.Obs.trace -> string
(** [render_analyze sql run] is the EXPLAIN ANALYZE report of [run] (as
    returned by {!explain_analyze_trace} for [sql]): the {!explain} plan
    description, a [rows:] line, then the executed span tree (per-stage
    wall time, sort kind/path provenance, rows, partitions, per-item
    evaluation) and the non-zero counters (cache hits/misses, plan sharing
    statistics, OVC merge decisions, pool activity).  Wall times print as
    ["%.3f ms"]; on a 1-domain pool everything else is deterministic. *)

val print_query : Ast.query -> string
(** Renders a query AST back to SQL text; [parse (print_query q)] yields a
    query equal to [q] (the parser round-trip property checked by the test
    suite). *)
