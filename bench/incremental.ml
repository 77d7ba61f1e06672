(* The [incremental] experiment: cross-query structure reuse under a
   {!Holistic_window.Session}.  A four-clause window query runs warm
   against a session store, then the table mutates — appends of 1% of the
   rows landing in a couple of hot partitions (the streaming shape:
   new data arrives at the tail of a few keys), and a bulk eviction of one
   whole partition — and the re-query is timed against a from-scratch
   stateless run over the identical table.

   Parity is a hard failure and is checked bit-for-bit (floats compared by
   their IEEE bits, like the differential fuzz): the session's maintained
   permutations, extended rank encodes, run-stacked MSTs and reused
   outputs must be indistinguishable from a rebuild.  The append-path
   speedup is also a hard floor (>= 5x, the acceptance bar), and the
   session queries must report zero full sorts. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Rng = Holistic_util.Rng
module H = Harness
module Json = Holistic_util.Json

let hot_parts = 2

let make_table rng ~rows ~partitions =
  Table.create
    [
      ("grp", Column.ints (Array.init rows (fun _ -> Rng.int rng partitions)));
      (* distinct, globally increasing: appended rows always sort after
         the old rows of their partition, the in-order maintenance path *)
      ("ts", Column.ints (Array.init rows (fun i -> i)));
      ("x", Column.floats (Array.init rows (fun _ -> Rng.float rng 1000.)));
      ("k", Column.ints (Array.init rows (fun _ -> Rng.int rng 100)));
    ]

let make_delta rng ~base ~rows =
  Table.create
    [
      ("grp", Column.ints (Array.init rows (fun _ -> Rng.int rng hot_parts)));
      ("ts", Column.ints (Array.init rows (fun i -> base + i)));
      ("x", Column.floats (Array.init rows (fun _ -> Rng.float rng 1000.)));
      ("k", Column.ints (Array.init rows (fun _ -> Rng.int rng 100)));
    ]

(* Pinned to MST: the experiment measures structure maintenance, so the
   per-item evaluator choice must not move with the cost model's
   calibration. *)
let clauses () =
  let grp = Expr.Col "grp" in
  let by_ts = [ Sort_spec.asc (Expr.Col "ts") ] in
  let back n = Window_spec.rows_between (Window_spec.preceding n) Window_spec.Current_row in
  let over frame = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ~frame () in
  [
    { Window_plan.spec = over (back 99); items = [ Wf.rank ~algorithm:Wf.Mst ~name:"r" [] ] };
    {
      Window_plan.spec = over (back 999);
      items = [ Wf.percent_rank ~algorithm:Wf.Mst ~name:"pr" [] ];
    };
    {
      Window_plan.spec = over (back 499);
      items =
        [ Wf.percentile_disc ~algorithm:Wf.Mst ~name:"med" 0.5 [ Sort_spec.asc (Expr.Col "x") ] ];
    };
    {
      Window_plan.spec = over (back 99);
      items = [ Wf.count ~algorithm:Wf.Mst ~distinct:true ~name:"dk" (Expr.Col "k") ];
    };
  ]

let out_cols = [ "r"; "pr"; "med"; "dk" ]

let value_identical a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b || (Value.is_null a && Value.is_null b)

let check_parity ~what ~session ~rebuild n =
  List.iter
    (fun name ->
      let sc = Table.column session name and rc = Table.column rebuild name in
      for i = 0 to n - 1 do
        if not (value_identical (Column.get sc i) (Column.get rc i)) then
          failwith
            (Printf.sprintf "incremental parity (%s): column %s row %d: session %s <> rebuild %s"
               what name i
               (Value.to_string (Column.get sc i))
               (Value.to_string (Column.get rc i)))
      done)
    out_cols

(* One timed session re-query with its invariants: the store must serve
   the stage sort (no full sort ran) and the result must be bit-identical
   to a from-scratch run over the same table. *)
let requery ~what ~session cs =
  let table = Session.table session in
  let out = ref None in
  let s = H.time (fun () -> out := Some (Window_plan.run_with_stats ~session table cs)) in
  let result, stats = Option.get !out in
  if stats.Window_plan.full_sorts <> 0 then
    failwith
      (Printf.sprintf "incremental (%s): %d full sort(s) ran under the session" what
         stats.Window_plan.full_sorts);
  if stats.Window_plan.session_sorts = 0 then
    failwith (Printf.sprintf "incremental (%s): no stage was served by the store" what);
  let rebuild = ref None in
  let full_s = H.time (fun () -> rebuild := Some (Window_plan.run table cs)) in
  check_parity ~what ~session:result ~rebuild:(Option.get !rebuild) (Table.nrows table);
  (s, full_s)

let run ~rows () =
  H.section "incremental: session re-query vs full rebuild after append / evict";
  let partitions = max 8 (rows / 2_000) in
  let rng = Rng.create 42 in
  let table = make_table rng ~rows ~partitions in
  let cs = clauses () in
  let session = Session.create table in
  H.note "%d rows, %d partitions, 4 OVER clauses; appends land in %d hot partition(s)" rows
    partitions hot_parts;
  (* warm the store (builds everything once) and check it against a
     stateless run before any timing *)
  let warm = Window_plan.run ~session table cs in
  check_parity ~what:"warm" ~session:warm ~rebuild:(Window_plan.run table cs) rows;
  H.note "warm query parity holds; store footprint %s"
    (Holistic_obs.Obs.human_bytes (Session.footprint_bytes session));
  (* append phase: three cycles of +1% at the tail of the hot partitions *)
  let delta_rows = max 1 (rows / 100) in
  let cycles = 3 in
  H.gc_settle ();
  let inc_s = ref 0.0 and full_s = ref 0.0 in
  for c = 1 to cycles do
    Session.append_rows session (make_delta rng ~base:(rows + (c * delta_rows)) ~rows:delta_rows);
    let i, f = requery ~what:(Printf.sprintf "append cycle %d" c) ~session cs in
    inc_s := !inc_s +. i;
    full_s := !full_s +. f
  done;
  let append_speedup = !full_s /. !inc_s in
  H.note "append +1%% x%d: session %.4f s vs rebuild %.4f s (%.1fx)" cycles !inc_s !full_s
    append_speedup;
  if append_speedup < 5.0 then
    failwith
      (Printf.sprintf "incremental: append re-query speedup %.2fx is below the 5x floor"
         append_speedup);
  (* evict phase: drop one cold partition wholesale — survivors renumber,
     nothing re-sorts, untouched partitions keep their outputs *)
  let victim = partitions - 1 in
  let grp = Table.column (Session.table session) "grp" in
  let before = Table.nrows (Session.table session) in
  H.gc_settle ();
  let evict_s =
    H.time (fun () ->
        Session.evict_where session (fun r ->
            match Column.get grp r with Value.Int g -> g = victim | _ -> false))
  in
  let after = Table.nrows (Session.table session) in
  H.note "evicted partition %d: %d rows dropped in %.4f s" victim (before - after) evict_s;
  let inc_evict, full_evict = requery ~what:"evict" ~session cs in
  let evict_speedup = full_evict /. inc_evict in
  H.note "post-evict re-query: session %.4f s vs rebuild %.4f s (%.1fx)" inc_evict full_evict
    evict_speedup;
  let counters = Session.counters session in
  let maintained = Build_cache.maintained_count counters in
  let rebuilt = Build_cache.rebuilt_count counters in
  if maintained = 0 then failwith "incremental: no structure was incrementally maintained";
  H.print_table ~header:[ "phase"; "session (s)"; "rebuild (s)"; "speedup" ]
    ~rows:
      [
        [
          Printf.sprintf "append +1%% x%d" cycles;
          Printf.sprintf "%.4f" !inc_s;
          Printf.sprintf "%.4f" !full_s;
          Printf.sprintf "%.1fx" append_speedup;
        ];
        [
          "evict 1 partition";
          Printf.sprintf "%.4f" inc_evict;
          Printf.sprintf "%.4f" full_evict;
          Printf.sprintf "%.1fx" evict_speedup;
        ];
      ];
  Report.write "BENCH_incremental.json" ~experiment:"incremental"
    ~params:
      [
        ("rows", Json.J_int rows);
        ("partitions", Json.J_int partitions);
        ("delta_rows", Json.J_int delta_rows);
        ("cycles", Json.J_int cycles);
      ]
    ~metrics:
      [
        (* gated: ratios survive machine changes; parity and the 5x floor
           are hard failures above, so the gate only guards drift *)
        ("append_speedup",
         Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 append_speedup);
        ("evict_speedup",
         Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 evict_speedup);
        (* report-only: absolute wall times are machine-dependent *)
        ("append_session_s", Report.metric ~unit_:"s" !inc_s);
        ("append_rebuild_s", Report.metric ~unit_:"s" !full_s);
        ("evict_session_s", Report.metric ~unit_:"s" inc_evict);
        ("evict_rebuild_s", Report.metric ~unit_:"s" full_evict);
      ]
    ~counters:
      [
        ("session.maintained", maintained);
        ("session.rebuilt", rebuilt);
        ("session.encode_builds", Build_cache.encode_build_count counters);
        ("session.tree_builds", Build_cache.tree_build_count counters);
        ("session.epoch", Session.epoch session);
        ("session.footprint_bytes", Session.footprint_bytes session);
      ]
    ~histograms:(Holistic_obs.Obs.Histogram.snapshot ());
  H.note "wrote BENCH_incremental.json"
