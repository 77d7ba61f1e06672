(** Front door of the SQL layer: parse and execute the window-function SQL
    subset, including the paper's proposed extensions (§2.4) — framed
    DISTINCT aggregates, framed percentiles/ranks/value functions with a
    second ORDER BY, FILTER, frame exclusion, named WINDOW clauses.

    {[
      let result =
        Sql.query
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
  ?pool:Holistic_parallel.Task_pool.t ->
  ?algorithm:Holistic_window.Window_func.algorithm ->
  ?evaluator:Holistic_window.Evaluator_choice.name ->
  ?governor:Holistic_window.Mem_governor.t ->
  ?session:Session.t ->
  ?query_log:Query_stats.Log.sink ->
  tables:(string * Table.t) list ->
  string ->
  Table.t
(** Parses and executes one SELECT statement against the named tables.
    [algorithm] overrides the evaluation algorithm of every window
    function; [evaluator] forces every [Auto] window item onto one backend
    (strict; see {!Holistic_window.Window_plan.run}); [governor] bounds the
    window stage's working set — sorts spill to disk runs and index builds
    stream under pressure, with bit-identical results (caller-owned; see
    {!Holistic_window.Mem_governor}); [session] is a persistent structure
    store consulted and refilled when the FROM table is the session's
    table and no WHERE clause filters it — bind it with
    [~tables:[ (name, Session.table s) ]]; [query_log] receives one
    {!Query_stats.t} record per statement, collected with
    {!Query_stats.measure}.  Without a sink the statement still feeds the
    [sql.query_ns] latency histograms whenever tracing is enabled.  The
    library reads no environment variables here: the CLI turns
    [HOLIWIN_MEM_LIMIT] and [HOLIWIN_QUERY_LOG] into these arguments. *)

(** {2 Sessions}

    A session pins one table and carries its sorted orders, partition
    layouts, per-partition index structures and per-item outputs across
    queries. Appends and evictions maintain the cached state incrementally
    (run-stacked merge-sort trees, extended rank encodings, merged sort
    runs) instead of discarding it; results are bit-identical to evaluating
    from scratch. See {!Holistic_window.Session}. *)

val session_create : ?pool:Holistic_parallel.Task_pool.t -> Table.t -> Session.t
(** A fresh session owning [table]; structures populate on first query. *)

val session_table : Session.t -> Table.t
(** The session's current table (appends and evictions replace it). *)

val session_append : Session.t -> Table.t -> unit
(** Appends [delta]'s rows (same schema) to the session's table and
    incrementally maintains every cached structure; see
    {!Holistic_window.Session.append_rows}. *)

val session_evict : Session.t -> string -> unit
(** [session_evict s pred] parses [pred] as a scalar predicate over the
    session table's columns (e.g. ["ts < date '2024-01-01'"]) and bulk-
    evicts every row it selects, compacting the cached structures in place;
    see {!Holistic_window.Session.evict_where}.
    @raise Parse_error / Semantic_error on a malformed predicate. *)

val explain : string -> string
(** Parses the statement and renders the recognised structure (for the CLI
    and tests). *)

val explain_analyze_trace :
  ?pool:Holistic_parallel.Task_pool.t ->
  ?algorithm:Holistic_window.Window_func.algorithm ->
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
    {!Holistic_obs.Obs.write_chrome_trace}.  The previous tracing state is
    restored afterwards.  Through a [session], sort and item spans carry
    cache provenance tags — [reused(epoch=k)], [maintained(+n rows)],
    [rebuilt(stale)] — showing how each structure was obtained. *)

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
