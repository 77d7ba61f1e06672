(* holiwin — command-line interface to the holistic window-function engine.

     holiwin gen lineitem --rows 100000 -o lineitem.csv
     holiwin query "select ... from lineitem window w as (...)" \
        --table lineitem=lineitem.csv --evaluator mst --time
     holiwin query "..." --table lineitem=tpch:50000      # generate inline
     holiwin explain "select rank(order by tps desc) over w from t window w as (...)"

   The libraries hold no task pool and read no environment: every
   subcommand that runs queries creates the run's one pool here, sized by
   HOLIWIN_DOMAINS, and shuts it down on exit.
*)

open Holistic_storage
module Ec = Holistic_window.Evaluator_choice
module Mg = Holistic_window.Mem_governor
module Qs = Holistic_window.Query_stats
module Sql = Holistic_sql.Sql
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool

(* The HOLIWIN_* environment is read here and nowhere in the libraries:
   HOLIWIN_DOMAINS sizes the task pool, HOLIWIN_MEM_LIMIT stands in for
   --mem-limit, HOLIWIN_QUERY_LOG for --query-log, and
   HOLIWIN_QUERY_LOG_BYTES sets the log's rotation size.  Unset or empty
   means absent; a malformed value is an error naming the variable, except
   HOLIWIN_DOMAINS, which falls back to the runtime's recommendation. *)
let getenv name = match Sys.getenv_opt name with None | Some "" -> None | Some v -> Some v

(* The run's one task pool, reported by the pool.domains gauge. *)
let with_pool f =
  let pool = Task_pool.create (Task_pool.domains_of_setting (getenv "HOLIWIN_DOMAINS")) in
  ignore
    (Obs.Gauge.register ~help:"Worker domains of the CLI's task pool" "pool.domains" (fun () ->
         Task_pool.size pool));
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) (fun () -> f pool)

(* --mem-limit (else HOLIWIN_MEM_LIMIT): bytes with optional K/M/G suffix,
   or "spill" (spill every sort regardless of budget — a testing mode).
   The governor is created here so its spill directory is cleaned up
   whatever happens, and lives for every statement of the run. *)
let with_governor mem_limit f =
  let limit =
    match mem_limit, getenv "HOLIWIN_MEM_LIMIT" with
    | Some spec, _ -> Some (Mg.parse_limit spec)
    | None, Some v -> (
        try Some (Mg.parse_limit v)
        with Invalid_argument msg -> failwith ("HOLIWIN_MEM_LIMIT: " ^ msg))
    | None, None -> None
  in
  match limit with
  | None -> f None
  | Some (budget, policy) ->
      let g = Mg.create ?budget ~policy () in
      Fun.protect ~finally:(fun () -> Mg.cleanup g) (fun () -> f (Some g))

(* --query-log (else HOLIWIN_QUERY_LOG), rotating at
   HOLIWIN_QUERY_LOG_BYTES when set. *)
let with_query_log path f =
  let max_bytes =
    Option.map
      (fun v ->
        match int_of_string_opt (String.trim v) with
        | Some b when b > 0 -> b
        | _ ->
            failwith (Printf.sprintf "HOLIWIN_QUERY_LOG_BYTES: %S is not a positive byte count" v))
      (getenv "HOLIWIN_QUERY_LOG_BYTES")
  in
  match if path = None then getenv "HOLIWIN_QUERY_LOG" else path with
  | None -> f None
  | Some path ->
      let sink = Qs.Log.open_ ?max_bytes path in
      Fun.protect ~finally:(fun () -> Qs.Log.close sink) (fun () -> f (Some sink))

(* Every subcommand reports a failed statement the same way: one line on
   stderr (and exit status 1 when it ends the run). Other exceptions are
   bugs and propagate. *)
let report_errors ~on_error f =
  let fail msg =
    prerr_endline msg;
    on_error
  in
  try f () with
  | Holistic_sql.Parser.Error (msg, off) | Sql.Parse_error (msg, off) ->
      fail (Printf.sprintf "parse error at offset %d: %s" off msg)
  | Sql.Semantic_error msg | Mg.Budget_too_small msg | Failure msg | Invalid_argument msg
  | Sys_error msg ->
      fail ("error: " ^ msg)

let evaluators = List.map (fun n -> (Ec.to_string n, n)) Ec.all

let generators =
  [
    ("lineitem", fun rows -> Holistic_data.Tpch.lineitem ~rows ());
    ("orders", fun rows -> Holistic_data.Tpch.orders ~rows ());
    ("tpcc_results", fun rows -> Holistic_data.Scenarios.tpcc_results ~rows ());
    ("stock_orders", fun rows -> Holistic_data.Scenarios.stock_orders ~rows ());
  ]

let load_table spec =
  (* NAME=PATH.csv or NAME=GENERATOR:ROWS *)
  match String.index_opt spec '=' with
  | None -> failwith (Printf.sprintf "--table expects NAME=PATH or NAME=GEN:ROWS, got %S" spec)
  | Some eq -> begin
      let name = String.sub spec 0 eq in
      let src = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match String.index_opt src ':' with
      | Some c when Filename.extension src <> ".csv" -> begin
          let gen = String.sub src 0 c in
          let rows = int_of_string (String.sub src (c + 1) (String.length src - c - 1)) in
          match List.assoc_opt gen generators with
          | Some f -> (name, f rows)
          | None ->
              failwith
                (Printf.sprintf "unknown generator %S (available: %s)" gen
                   (String.concat ", " (List.map fst generators)))
        end
      | _ -> (name, Csv.load src)
    end

open Cmdliner

(* --- gen ------------------------------------------------------------- *)

let gen_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (n, _) -> (n, n)) generators))) None
      & info [] ~docv:"TABLE" ~doc:"Table to generate: lineitem, orders, tpcc_results, stock_orders.")
  in
  let rows = Arg.(value & opt int 10_000 & info [ "rows"; "n" ] ~doc:"Row count.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output CSV (default stdout).") in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Generator seed.") in
  let run kind rows output seed =
    let table =
      match kind, seed with
      | "lineitem", Some s -> Holistic_data.Tpch.lineitem ~seed:s ~rows ()
      | "orders", Some s -> Holistic_data.Tpch.orders ~seed:s ~rows ()
      | "tpcc_results", Some s -> Holistic_data.Scenarios.tpcc_results ~seed:s ~rows ()
      | "stock_orders", Some s -> Holistic_data.Scenarios.stock_orders ~seed:s ~rows ()
      | _, None -> (List.assoc kind generators) rows
      | _ -> assert false
    in
    (match output with
    | Some path ->
        Csv.save path table;
        Printf.printf "wrote %d rows to %s\n" (Table.nrows table) path
    | None -> Csv.write stdout table);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark table as CSV")
    Term.(const run $ kind $ rows $ output $ seed)

(* --- query ----------------------------------------------------------- *)

let query_cmd =
  let sql = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL") in
  let tables =
    Arg.(value & opt_all string [] & info [ "table"; "t" ] ~docv:"NAME=SRC"
           ~doc:"Bind a table: NAME=file.csv or NAME=generator:rows.")
  in
  let evaluator =
    Arg.(value & opt (some (enum evaluators)) None & info [ "evaluator" ]
           ~doc:"Force a backend for every window function; unsupported \
                 (function, backend) pairs are rejected with an error.")
  in
  let mem_limit =
    Arg.(value & opt (some string) None & info [ "mem-limit" ] ~docv:"BYTES"
           ~doc:"Bound the window operator's sorts: they spill to disk runs \
                 when the budget would overflow, with bit-identical results; \
                 structures are always built in memory. Accepts bytes with \
                 an optional K/M/G suffix (e.g. 64M), or $(b,spill) to force \
                 every sort out of core. $(b,HOLIWIN_MEM_LIMIT) is the same knob as an \
                 environment variable.")
  in
  let timing = Arg.(value & flag & info [ "time" ] ~doc:"Print execution time.") in
  let max_rows = Arg.(value & opt int 40 & info [ "max-rows" ] ~doc:"Rows to display.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Write full result as CSV.") in
  let query_log =
    Arg.(value & opt (some string) None & info [ "query-log" ] ~docv:"FILE"
           ~doc:"Append one holiwin-qlog/1 JSONL record per statement (wall time, \
                 rows, byte counters, cache and evaluator tallies) to FILE, \
                 rotating to FILE.1 by size. $(b,HOLIWIN_QUERY_LOG) is the same \
                 knob as an environment variable.")
  in
  let run sql table_specs evaluator mem_limit timing max_rows output query_log =
    report_errors ~on_error:1 @@ fun () ->
    with_governor mem_limit @@ fun governor ->
    with_query_log query_log @@ fun query_log ->
    with_pool @@ fun pool ->
    let tables = List.map load_table table_specs in
    let t0 = Unix.gettimeofday () in
    let result = Sql.query ~pool ?evaluator ?governor ?query_log ~tables sql in
    let dt = Unix.gettimeofday () -. t0 in
    (match output with
    | Some path -> Csv.save path result
    | None -> Table.print ~max_rows result);
    if timing then
      Printf.printf "\n%d rows in %.3f s (%.3g M rows/s)\n" (Table.nrows result) dt
        (float_of_int (Table.nrows result) /. dt /. 1e6);
    0
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a SQL query with extended window functions")
    Term.(const run $ sql $ tables $ evaluator $ mem_limit $ timing $ max_rows
          $ output $ query_log)

(* --- explain ---------------------------------------------------------- *)

let explain_cmd =
  let sql = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL") in
  let tables =
    Arg.(value & opt_all string [] & info [ "table"; "t" ] ~docv:"NAME=SRC"
           ~doc:"Bind a table (for --analyze): NAME=file.csv or NAME=generator:rows.")
  in
  let analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: execute the query with tracing on and append the \
                 span tree (per-stage wall time, rows, sort provenance) and counters.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"With --analyze, also write the capture as Chrome trace_event JSON \
                 (open in chrome://tracing or Perfetto).")
  in
  let evaluator =
    Arg.(value & opt (some (enum evaluators)) None & info [ "evaluator" ]
           ~doc:"With --analyze, force a backend for every window function \
                 (strict: unsupported pairs are an error); the executed \
                 choice shows up in the span tree's choose/item lines.")
  in
  let mem_limit =
    Arg.(value & opt (some string) None & info [ "mem-limit" ] ~docv:"BYTES"
           ~doc:"With --analyze, bound the working set as in $(b,query) \
                 --mem-limit; spills show up as spilled=(runs=n, bytes) on \
                 the sort spans and the sort.spill_* counters.")
  in
  let run sql table_specs analyze trace_out evaluator mem_limit =
    report_errors ~on_error:1 @@ fun () ->
    if analyze then begin
      with_governor mem_limit @@ fun governor ->
      with_pool @@ fun pool ->
      let tables = List.map load_table table_specs in
      let run = Sql.explain_analyze_trace ~pool ?evaluator ?governor ~tables sql in
      print_string (Sql.render_analyze sql run);
      Option.iter (fun path -> Obs.write_chrome_trace path (snd run)) trace_out
    end
    else print_string (Sql.explain sql);
    0
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show a query's structure; --analyze executes it with tracing")
    Term.(const run $ sql $ tables $ analyze $ trace_out $ evaluator $ mem_limit)

(* --- metrics ---------------------------------------------------------- *)

(* Run a workload with telemetry on and print one coherent snapshot of
   every registered metric — counters, gauges (live heap, session
   residency, pool domains), latency histograms and the sliding-window
   SLO quantiles — as Prometheus text exposition and/or JSON. *)
let metrics_cmd =
  let sqls =
    Arg.(value & pos_all string [] & info [] ~docv:"SQL"
           ~doc:"Statements to run before the snapshot (each repeated \
                 $(b,--repeat) times). With none, the snapshot still reports \
                 every registered metric at its current value.")
  in
  let tables =
    Arg.(value & opt_all string [] & info [ "table"; "t" ] ~docv:"NAME=SRC"
           ~doc:"Bind a table: NAME=file.csv or NAME=generator:rows. The first \
                 binding becomes a session's table, so the session.* residency \
                 gauges populate.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat"; "r" ] ~docv:"N"
           ~doc:"Run each statement N times (fills the sliding-window latency \
                 quantiles).")
  in
  let format =
    Arg.(value
         & opt (enum [ ("prometheus", `Prom); ("json", `Json); ("both", `Both) ]) `Prom
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: prometheus, json or both.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Write to FILE (default stdout).")
  in
  let query_log =
    Arg.(value & opt (some string) None & info [ "query-log" ] ~docv:"FILE"
           ~doc:"Also append one holiwin-qlog/1 record per executed statement.")
  in
  let run sqls table_specs repeat format output query_log =
    report_errors ~on_error:1 @@ fun () ->
    with_governor None @@ fun governor ->
    with_query_log query_log @@ fun query_log ->
    with_pool @@ fun pool ->
    let tables = List.map load_table table_specs in
    Obs.enable ();
    let session =
      match tables with
      | (_, t) :: _ ->
          let s = Sql.session_create ~pool t in
          Sql.Session.register_gauges s;
          Some s
      | [] -> None
    in
    for _ = 1 to max 1 repeat do
      List.iter (fun sql -> ignore (Sql.query ~pool ?governor ?session ?query_log ~tables sql)) sqls
    done;
    let snap = Obs.Metrics.snapshot () in
    let stamp_ms = int_of_float (Unix.gettimeofday () *. 1000.) in
    let text =
      match format with
      | `Prom -> Obs.Metrics.to_prometheus ~stamp_ms snap
      | `Json -> Obs.Metrics.to_json ~stamp_ms snap ^ "\n"
      | `Both ->
          Obs.Metrics.to_prometheus ~stamp_ms snap
          ^ Obs.Metrics.to_json ~stamp_ms snap ^ "\n"
    in
    (match output with
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
    | None -> print_string text);
    0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a workload with telemetry on and print a metrics snapshot \
             (Prometheus text exposition or JSON)")
    Term.(const run $ sqls $ tables $ repeat $ format $ output $ query_log)

(* --- session ---------------------------------------------------------- *)

(* Interactive/scripted driver for the persistent structure store: one
   table pinned for the whole run, structures cached across statements and
   incrementally maintained by appends and evictions. *)
let session_cmd =
  let table_spec =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME=SRC"
           ~doc:"The session table: NAME=file.csv or NAME=generator:rows.")
  in
  let script =
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"Read commands from FILE instead of stdin.")
  in
  let max_rows = Arg.(value & opt int 40 & info [ "max-rows" ] ~doc:"Rows to display.") in
  let query_log =
    Arg.(value & opt (some string) None & info [ "query-log" ] ~docv:"FILE"
           ~doc:"Append one holiwin-qlog/1 JSONL record per query to FILE \
                 (rotating to FILE.1 by size).")
  in
  let run table_spec script max_rows query_log =
    report_errors ~on_error:1 @@ fun () ->
    with_governor None @@ fun governor ->
    with_query_log query_log @@ fun query_log ->
    with_pool @@ fun pool ->
    let name, table = load_table table_spec in
    let session = Sql.session_create ~pool table in
    Sql.Session.register_gauges session;
    let tables () = [ (name, Sql.session_table session) ] in
    let interactive = script = None && Unix.isatty Unix.stdin in
    let ic = match script with Some path -> open_in path | None -> stdin in
    let stats () =
      let c = Sql.Session.counters session in
      Printf.printf "epoch %d: %d rows (%s cached); builds %d+%d, maintained %d, rebuilt %d\n"
        (Sql.Session.epoch session)
        (Table.nrows (Sql.session_table session))
        (Obs.human_bytes (Sql.Session.footprint_bytes session))
        (Atomic.get c.Holistic_window.Build_cache.encode_builds)
        (Atomic.get c.Holistic_window.Build_cache.tree_builds)
        (Atomic.get c.Holistic_window.Build_cache.maintained)
        (Atomic.get c.Holistic_window.Build_cache.rebuilt)
    in
    let strip s = String.trim s in
    let split_cmd line =
      match String.index_opt line ' ' with
      | Some i ->
          (String.sub line 0 i, strip (String.sub line i (String.length line - i)))
      | None -> (line, "")
    in
    (* command words match case-insensitively, like SQL keywords *)
    let exec line =
      let cmd, arg = split_cmd line in
      match String.lowercase_ascii cmd, arg with
      | ("query" | "select"), _ ->
          (* "select ..." runs verbatim; "query select ..." strips the prefix *)
          let sql = if String.lowercase_ascii cmd = "select" then line else arg in
          let t0 = Unix.gettimeofday () in
          let result = Sql.query ~pool ?governor ?query_log ~session ~tables:(tables ()) sql in
          let dt = Unix.gettimeofday () -. t0 in
          Table.print ~max_rows result;
          Printf.printf "%d rows in %.3f s\n" (Table.nrows result) dt
      | "explain", sql ->
          let run = Sql.explain_analyze_trace ~pool ?governor ~session ~tables:(tables ()) sql in
          print_string (Sql.render_analyze sql run)
      | "append", src ->
          let _, delta = load_table (name ^ "=" ^ src) in
          Sql.session_append session delta;
          stats ()
      | "evict", pred ->
          let before = Table.nrows (Sql.session_table session) in
          Sql.session_evict session pred;
          Printf.printf "evicted %d rows\n"
            (before - Table.nrows (Sql.session_table session));
          stats ()
      | "stats", _ ->
          stats ();
          print_string (Sql.Session.render_stats (Sql.Session.stats session))
      | "metrics", _ ->
          print_string
            (Obs.Metrics.to_prometheus (Obs.Metrics.snapshot ()))
      | ("help" | "?"), _ ->
          print_string
            "commands:\n\
            \  select ...          run a query against the session table\n\
            \  explain SQL         EXPLAIN ANALYZE with cache provenance tags\n\
            \  append SRC          append rows (file.csv or generator:rows)\n\
            \  evict PRED          evict rows matching a predicate\n\
            \  stats               epoch, rows, footprint, per-key structures, reuse tallies\n\
            \  metrics             Prometheus snapshot of every registered metric\n\
            \  quit                exit\n"
      | cmd, _ -> Printf.eprintf "unknown command %S (try: help)\n" cmd
    in
    let rec loop () =
      if interactive then (print_string (name ^ "> "); flush stdout);
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          let line = strip line in
          if List.mem (String.lowercase_ascii line) [ "quit"; "exit" ] then ()
          else begin
            if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "--")
            then begin
              report_errors ~on_error:() (fun () -> exec line);
              flush stdout
            end;
            loop ()
          end
    in
    if interactive then
      Printf.printf "session over %S (%d rows); type 'help' for commands\n" name
        (Table.nrows table);
    loop ();
    if script <> None then close_in ic;
    0
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Open a persistent session over one table: cached window structures survive \
             across queries and are incrementally maintained by appends and evictions")
    Term.(const run $ table_spec $ script $ max_rows $ query_log)

let () =
  let doc = "Arbitrarily-framed holistic window aggregates (merge sort trees)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "holiwin" ~doc)
          [ gen_cmd; query_cmd; explain_cmd; metrics_cmd; session_cmd ]))
