(** Semantic analysis and execution of parsed queries: resolves columns and
    named windows, lowers AST expressions to {!Holistic_storage.Expr},
    window calls to {!Holistic_window.Window_func} items, groups calls by
    window specification and runs the window operator once per group. *)

open Holistic_storage

exception Error of string

val lower_expr : Table.t -> Ast.expr -> Expr.t
(** Lowers a scalar AST expression against [table]'s columns (for the
    session layer's eviction predicates and tests).
    @raise Error on unknown columns or functions. *)

val run :
  pool:Holistic_parallel.Task_pool.t ->
  ?evaluator:Holistic_window.Evaluator_choice.name ->
  ?governor:Holistic_window.Mem_governor.t ->
  ?session:Holistic_window.Session.t ->
  tables:(string * Table.t) list ->
  Ast.query ->
  Table.t
(** Executes the query on the caller's [pool]; [evaluator] pins every lowered window item to one
    backend, strictly — an unsupported (function, backend) pair raises
    (for the CLI's --evaluator flag; see
    {!Holistic_window.Window_plan.run}); [governor] bounds the window
    stage's sorts, which spill to disk runs under pressure, while
    structures are built in memory (caller-owned; see
    {!Holistic_window.Mem_governor});
    [session] is a persistent
    structure store consulted when the query's FROM table is the session's
    table and no WHERE clause filters it (see
    {!Holistic_window.Window_plan.run}).
    @raise Error on unknown tables/columns/functions or malformed calls. *)

val run_with_stats :
  pool:Holistic_parallel.Task_pool.t ->
  ?evaluator:Holistic_window.Evaluator_choice.name ->
  ?governor:Holistic_window.Mem_governor.t ->
  ?session:Holistic_window.Session.t ->
  tables:(string * Table.t) list ->
  Ast.query ->
  Table.t * Holistic_window.Window_plan.stats option
(** {!run} plus the window plan's sharing statistics ([None] when the
    query has no window calls) — the sort/build provenance the query log
    records per query. *)

