(* The [evaluator-choice] experiment: a mixed four-clause window query where
   the calibrated cost model should route each clause to a different
   backend, against the same query with every item pinned to its
   pre-cost-model default (MST everywhere, segment tree for the plain SUM).

   Small frames are where the paper's §6.4 crossover lives: a 20-row
   distinct count and a 50-row median are cheaper to slide incrementally
   than to probe a merge sort tree for, while the 100-row rank and the
   400-row framed SUM stay with MST / segment tree.  So the cost-based run
   must (a) return bit-identical columns, (b) actually re-route the two
   small-frame clauses (deterministic, gated exactly), and (c) never be
   slower than the pinned defaults beyond gate tolerance. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Rng = Holistic_util.Rng
module H = Harness
module Json = Holistic_util.Json
module Obs = Holistic_obs.Obs
module Ec = Evaluator_choice

let make_table rng ~rows ~partitions =
  let grp = Array.init rows (fun _ -> Rng.int rng partitions) in
  let k = Array.init rows (fun i -> i) in
  for i = rows - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = k.(i) in
    k.(i) <- k.(j);
    k.(j) <- t
  done;
  let v = Array.init rows (fun _ -> Rng.int rng (max 16 (rows / 50))) in
  let x = Array.init rows (fun _ -> Rng.float rng 1000.) in
  Table.create
    [
      ("grp", Column.ints grp);
      ("k", Column.ints k);
      ("v", Column.ints v);
      ("x", Column.floats x);
    ]

(* [force] pins each item; otherwise every item is unpinned so the plan
   consults the cost model.  The pinned backends are exactly the
   {!Evaluator_choice.default}s for these four items. *)
let clauses ?(force = false) () =
  let grp = Expr.Col "grp" in
  let by_k = [ Sort_spec.asc (Expr.Col "k") ] in
  let back n = Window_spec.rows_between (Window_spec.preceding n) Window_spec.Current_row in
  let over frame = Window_spec.over ~partition_by:[ grp ] ~order_by:by_k ~frame () in
  let pin a = if force then Some a else None in
  [
    {
      Window_plan.spec = over (back 19);
      items = [ Wf.count ?algorithm:(pin Wf.Mst) ~distinct:true ~name:"dc" (Expr.Col "v") ];
    };
    {
      Window_plan.spec = over (back 49);
      items = [ Wf.median ?algorithm:(pin Wf.Mst) ~name:"med" (Expr.Col "x") ];
    };
    {
      Window_plan.spec = over (back 99);
      items = [ Wf.rank ?algorithm:(pin Wf.Mst) ~name:"r" [] ];
    };
    {
      Window_plan.spec = over (back 399);
      items = [ Wf.sum ?algorithm:(pin Wf.Segment_tree) ~name:"s" (Expr.Col "x") ];
    };
  ]

let check_parity ~auto ~forced n =
  List.iter
    (fun name ->
      let ac = Table.column auto name and fc = Table.column forced name in
      for i = 0 to n - 1 do
        let a = Column.get ac i and f = Column.get fc i in
        let same =
          match a, f with
          | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          | _ -> Value.equal a f
        in
        if not same then
          failwith
            (Printf.sprintf "evaluator-choice parity: column %s row %d: cost-based %s <> pinned %s"
               name i (Value.to_string a) (Value.to_string f))
      done)
    [ "dc"; "med"; "r"; "s" ]

let counter trace name = Option.value ~default:0 (List.assoc_opt name trace.Obs.counters)

let run ~rows () =
  H.section "evaluator-choice: cost-based routing vs pinned defaults";
  let pool = H.pool () in
  let partitions = 16 in
  let rng = Rng.create 1234 in
  let table = make_table rng ~rows ~partitions in
  let auto_cs = clauses () and forced_cs = clauses ~force:true () in
  H.note "%d rows, %d partitions: distinct-count w=20, median w=50, rank w=100, sum w=400" rows
    partitions;
  (* parity + routing first: hard failures at any size *)
  let auto_out, trace = Obs.with_capture (fun () -> Window_plan.run ~pool table auto_cs) in
  let forced_out = Window_plan.run ~pool table forced_cs in
  check_parity ~auto:auto_out ~forced:forced_out rows;
  H.note "parity: cost-based run matches pinned defaults bit-for-bit on all 4 columns";
  let picks =
    List.filter_map
      (fun nm ->
        let c = counter trace ("plan.evaluator." ^ Ec.to_string nm) in
        if c > 0 then Some (Printf.sprintf "%s x%d" (Ec.to_string nm) c) else None)
      Ec.all
  in
  H.note "picks: %s" (String.concat ", " picks);
  let non_default_picks =
    List.fold_left
      (fun acc nm -> acc + counter trace ("plan.evaluator." ^ Ec.to_string nm))
      0
      [ Ec.Naive; Ec.Incremental; Ec.Incremental_serial; Ec.Order_statistic; Ec.Mst_no_cascade ]
  in
  if non_default_picks = 0 then
    failwith "evaluator-choice: the cost model never left the default backend";
  (* wall clock: cost-based vs pinned defaults *)
  H.gc_settle ();
  let auto_t = H.time_best ~hist:"bench.evchoice_cost_ns" ~reps:3 (fun () -> Window_plan.run ~pool table auto_cs) in
  H.gc_settle ();
  let forced_t =
    H.time_best ~hist:"bench.evchoice_pinned_ns" ~reps:3 (fun () -> Window_plan.run ~pool table forced_cs)
  in
  let speedup = forced_t.H.best /. auto_t.H.best in
  H.print_table ~header:[ "path"; "seconds"; "mean±sd"; "speedup" ]
    ~rows:
      [
        [
          "pinned defaults (MST x3 + segment tree)";
          Printf.sprintf "%.3f" forced_t.H.best;
          Printf.sprintf "%.3f±%.3f" forced_t.H.mean forced_t.H.stddev;
          "1.00x";
        ];
        [
          "cost-based";
          Printf.sprintf "%.3f" auto_t.H.best;
          Printf.sprintf "%.3f±%.3f" auto_t.H.mean auto_t.H.stddev;
          Printf.sprintf "%.2fx" speedup;
        ];
      ];
  if speedup < 0.75 then
    failwith
      (Printf.sprintf "evaluator-choice: cost-based run is %.2fx the pinned defaults" speedup);
  Report.write "BENCH_evaluator_choice.json" ~experiment:"evaluator-choice"
    ~params:[ ("rows", Json.J_int rows); ("partitions", Json.J_int partitions); ("clauses", Json.J_int 4) ]
    ~metrics:
      [
        (* gated: the routing itself is deterministic, and cost-based must
           not lose to the pinned defaults beyond noise *)
        ( "speedup",
          Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.35 speedup );
        ("non_default_picks", Report.metric ~tolerance:0.01 (float_of_int non_default_picks));
        (* report-only wall times *)
        ("cost_based_s", Report.metric ~unit_:"s" auto_t.H.best);
        ("pinned_s", Report.metric ~unit_:"s" forced_t.H.best);
      ]
    ~counters:
      (List.map
         (fun nm ->
           let k = "plan.evaluator." ^ Ec.to_string nm in
           (k, counter trace k))
         Ec.all)
    ~histograms:(Obs.Histogram.snapshot ())
    ~series:
      (Json.J_obj
         [ ("cost_based", H.json_of_timing auto_t); ("pinned", H.json_of_timing forced_t) ]);
  H.note "wrote BENCH_evaluator_choice.json"
