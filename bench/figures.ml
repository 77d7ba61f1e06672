(* One experiment per table/figure of the paper's evaluation (§6). Every
   experiment prints the series the corresponding plot shows; EXPERIMENTS.md
   records paper-vs-measured. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Mst = Holistic_core.Mst
module Tpch = Holistic_data.Tpch
module Scenarios = Holistic_data.Scenarios
module H = Harness
module Json = Holistic_util.Json

let trailing_rows_frame w =
  Window_spec.rows_between (Window_spec.preceding w) Window_spec.Current_row

let ship_order = [ Sort_spec.asc (Expr.Col "l_shipdate") ]
let price_order = [ Sort_spec.asc (Expr.Col "l_extendedprice") ]

let over_ship frame = Window_spec.over ~order_by:ship_order ~frame ()

let run_one table over item =
  H.time (fun () -> ignore (Window_plan.run table [ { Window_plan.spec = over; items = [ item ] } ]))

(* ------------------------------------------------------------------ *)
(* Fig. 9 — necessity of native support (20 000 rows, 1000-row frame)  *)
(* ------------------------------------------------------------------ *)

let fig9 ~rows () =
  H.section (Printf.sprintf "Figure 9: framed median, traditional SQL vs native (n=%d)" rows);
  let table = Tpch.lineitem ~rows () in
  let prices = Sql_formulations.prepare table in
  let frame_rows = 1000 in
  let expect = Sql_formulations.oracle prices ~frame_rows in
  let checked name out = if out <> expect then failwith (name ^ ": wrong results") in
  let t_sub =
    H.time (fun () -> checked "subquery" (Sql_formulations.correlated_subquery prices ~frame_rows))
  in
  let t_join =
    H.time (fun () -> checked "self-join" (Sql_formulations.self_join prices ~frame_rows))
  in
  let t_client =
    H.time (fun () -> checked "client" (Sql_formulations.client_side prices ~frame_rows))
  in
  let over = over_ship (trailing_rows_frame (frame_rows - 1)) in
  let med alg = Wf.median ~algorithm:alg ~name:"m" (Expr.Col "l_extendedprice") in
  let t_naive = run_one table over (med Wf.Naive) in
  let t_mst = run_one table over (med Wf.Mst) in
  let tput t = Printf.sprintf "%.3g" (float_of_int rows /. t /. 1e6) in
  H.print_table
    ~header:[ "evaluation strategy"; "seconds"; "M tuples/s" ]
    ~rows:
      [
        [ "correlated subquery (SQL)"; Printf.sprintf "%.3f" t_sub; tput t_sub ];
        [ "self-join (SQL)"; Printf.sprintf "%.3f" t_join; tput t_join ];
        [ "client-side (Tableau-style)"; Printf.sprintf "%.3f" t_client; tput t_client ];
        [ "native, naive algorithm"; Printf.sprintf "%.3f" t_naive; tput t_naive ];
        [ "native, merge sort tree"; Printf.sprintf "%.3f" t_mst; tput t_mst ];
      ];
  let best_sql = min t_sub t_join in
  H.note "naive vs client-side: %.1fx   naive vs best SQL: %.1fx   MST vs best SQL: %.1fx"
    (t_client /. t_naive) (best_sql /. t_naive) (best_sql /. t_mst);
  H.note "(paper: 15x, 3x and 63x on Hyper/DuckDB/PostgreSQL/Tableau)"

(* ------------------------------------------------------------------ *)
(* Fig. 10 — throughput vs input size, four functions                  *)
(* ------------------------------------------------------------------ *)

let fig10_sizes scale =
  List.filter_map
    (fun n ->
      let n = int_of_float (float_of_int n *. scale) in
      if n >= 1000 then Some n else None)
    [ 10_000; 20_000; 50_000; 100_000; 200_000; 400_000 ]

let algorithms_for = function
  | `Median -> [ ("mst", Wf.Mst); ("ost", Wf.Order_statistic); ("incremental", Wf.Incremental);
                 ("incr-serial", Wf.Incremental_serial); ("naive", Wf.Naive) ]
  | `Rank -> [ ("mst", Wf.Mst); ("ost", Wf.Order_statistic); ("naive", Wf.Naive) ]
  | `Lead -> [ ("mst", Wf.Mst); ("incremental", Wf.Incremental); ("naive", Wf.Naive) ]
  | `Distinct -> [ ("mst", Wf.Mst); ("incremental", Wf.Incremental);
                   ("incr-serial", Wf.Incremental_serial); ("naive", Wf.Naive) ]

let item_for fn alg =
  match fn with
  | `Median -> Wf.median ~algorithm:alg ~name:"x" (Expr.Col "l_extendedprice")
  | `Rank -> Wf.rank ~algorithm:alg ~name:"x" price_order
  | `Lead -> Wf.lead ~algorithm:alg ~order:price_order ~name:"x" (Expr.Col "l_extendedprice")
  | `Distinct -> Wf.count ~algorithm:alg ~distinct:true ~name:"x" (Expr.Col "l_partkey")

let fn_name = function
  | `Median -> "median"
  | `Rank -> "rank"
  | `Lead -> "lead"
  | `Distinct -> "distinct count"

let fig10 ~scale () =
  let sizes = fig10_sizes scale in
  List.iter
    (fun fn ->
      H.section
        (Printf.sprintf "Figure 10 (%s): throughput [M tuples/s] vs input size, frame = 5%%"
           (fn_name fn));
      let tables = List.map (fun n -> (n, Tpch.lineitem ~rows:n ())) sizes in
      let rows =
        List.map
          (fun (name, alg) ->
            let series =
              H.sweep ~points:tables ~run:(fun (n, table) ->
                  let over = over_ship (trailing_rows_frame (max 1 (n / 20))) in
                  run_one table over (item_for fn alg))
            in
            name :: List.map (fun ((n, _), o) -> H.throughput_cell ~n o) series)
          (algorithms_for fn)
      in
      H.print_table ~header:("algorithm" :: List.map (fun n -> string_of_int n) sizes) ~rows)
    [ `Median; `Rank; `Lead; `Distinct ]

(* ------------------------------------------------------------------ *)
(* Fig. 11 — throughput vs frame size                                  *)
(* ------------------------------------------------------------------ *)

let fig11 ~rows () =
  H.section (Printf.sprintf "Figure 11: framed median throughput [M tuples/s] vs frame size (n=%d)" rows);
  let table = Tpch.lineitem ~rows () in
  let frames =
    List.filter (fun w -> w < rows) [ 10; 30; 100; 300; 1_000; 3_000; 10_000; 30_000; 100_000 ]
    @ [ rows ] (* SQL's default frame: unbounded preceding .. current row *)
  in
  let algos =
    [ ("mst", Wf.Mst); ("ost", Wf.Order_statistic); ("incremental", Wf.Incremental);
      ("incr-serial", Wf.Incremental_serial); ("naive", Wf.Naive) ]
  in
  let out_rows =
    List.map
      (fun (name, alg) ->
        let series =
          H.sweep ~points:frames ~run:(fun w ->
              let frame =
                if w = rows then
                  Window_spec.rows_between Window_spec.Unbounded_preceding Window_spec.Current_row
                else trailing_rows_frame w
              in
              run_one table (over_ship frame) (item_for `Median alg))
        in
        name :: List.map (fun (_, o) -> H.throughput_cell ~n:rows o) series)
      algos
  in
  let headers =
    "algorithm" :: List.map (fun w -> if w = rows then "default" else string_of_int w) frames
  in
  H.print_table ~header:headers ~rows:out_rows;
  H.note "(paper: crossovers vs MST at ~130 naive, ~700 incremental, ~20000 OST; MST flat)"

(* Same sweep for the other window functions (paper §6.4 'we also executed
   this experiment for all other window functions'). *)
let fig11_all ~rows () =
  let table = Tpch.lineitem ~rows () in
  let frames = List.filter (fun w -> w < rows) [ 30; 300; 3_000; 30_000 ] in
  List.iter
    (fun fn ->
      H.section
        (Printf.sprintf "Figure 11 extension (%s): throughput vs frame size (n=%d)" (fn_name fn)
           rows);
      let out_rows =
        List.map
          (fun (name, alg) ->
            let series =
              H.sweep ~points:frames ~run:(fun w ->
                  run_one table (over_ship (trailing_rows_frame w)) (item_for fn alg))
            in
            name :: List.map (fun (_, o) -> H.throughput_cell ~n:rows o) series)
          (algorithms_for fn)
      in
      H.print_table ~header:("algorithm" :: List.map string_of_int frames) ~rows:out_rows)
    [ `Rank; `Lead; `Distinct ]

(* ------------------------------------------------------------------ *)
(* Fig. 12 — non-monotonic frames                                      *)
(* ------------------------------------------------------------------ *)

let fig12 ~rows () =
  H.section (Printf.sprintf "Figure 12: framed median throughput vs non-monotonicity (n=%d)" rows);
  let table = Tpch.lineitem ~rows () in
  let ms = [ 0.0; 0.0625; 0.125; 0.25; 0.5; 1.0 ] in
  (* the paper's pseudo-random bounds: m*mod(price*7703, 499) preceding and
     500 - m*mod(price*7703, 499) following, precomputed as int columns *)
  let price =
    match Column.data (Table.column table "l_extendedprice") with
    | Column.Floats p -> p
    | _ -> assert false
  in
  let with_bounds m =
    let jitter i = int_of_float (m *. float_of_int (int_of_float (price.(i) *. 100.0) * 7703 mod 499)) in
    let pre = Array.init rows jitter in
    let fol = Array.init rows (fun i -> 500 - jitter i) in
    let t = Table.add_column table "pre" (Column.ints pre) in
    Table.add_column t "fol" (Column.ints fol)
  in
  let algos =
    [ ("mst", Wf.Mst); ("incremental", Wf.Incremental); ("incr-serial", Wf.Incremental_serial);
      ("naive", Wf.Naive) ]
  in
  let tables = List.map (fun m -> (m, with_bounds m)) ms in
  let out_rows =
    List.map
      (fun (name, alg) ->
        let series =
          H.sweep ~points:tables ~run:(fun (_, t) ->
              let frame =
                Window_spec.rows_between
                  (Window_spec.Preceding (Expr.Col "pre"))
                  (Window_spec.Following (Expr.Col "fol"))
              in
              run_one t (over_ship frame) (item_for `Median alg))
        in
        name :: List.map (fun (_, o) -> H.throughput_cell ~n:rows o) series)
      algos
  in
  H.print_table
    ~header:("algorithm" :: List.map (fun m -> Printf.sprintf "m=%g" m) ms)
    ~rows:out_rows;
  H.note "(paper: incremental loses to MST at any m > 0 and falls below naive as m grows)"

(* ------------------------------------------------------------------ *)
(* Fig. 13 — fanout and pointer sampling grid                          *)
(* ------------------------------------------------------------------ *)

let fig13 ~rows () =
  H.section
    (Printf.sprintf "Figure 13: windowed rank, build+probe seconds by fanout x sampling (n=%d)"
       rows);
  let keys = Scenarios.uniform_ints ~n:rows ~bound:rows () in
  let w = max 1 (rows / 20) in
  let fanouts = [ 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let samples = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ] in
  let cell f k =
    H.gc_settle ();
    H.time (fun () ->
        let t = Mst.create ~fanout:f ~sample:k keys in
        let acc = ref 0 in
        for i = 0 to rows - 1 do
          acc := !acc + Mst.count t ~lo:(max 0 (i - w)) ~hi:(i + 1) ~less_than:keys.(i)
        done;
        !acc)
  in
  let grid = List.map (fun f -> (f, List.map (fun k -> cell f k) samples)) fanouts in
  let best = List.fold_left (fun acc (_, row) -> List.fold_left min acc row) infinity grid in
  H.print_table
    ~header:("fanout\\k" :: List.map string_of_int samples)
    ~rows:
      (List.map
         (fun (f, row) ->
           string_of_int f :: List.map (fun t -> Printf.sprintf "%.2f" (t /. best)) row)
         grid);
  H.note "relative to the best cell (= 1.00, best absolute %.3f s); paper's default f=k=32" best

(* ------------------------------------------------------------------ *)
(* §6.6 — memory consumption                                           *)
(* ------------------------------------------------------------------ *)

let mem ~rows () =
  H.section "Memory (paper 6.6): merge sort tree footprint";
  (* closed-form at the paper's 100M rows *)
  let paper_n = 100_000_000 in
  let gb elems bytes_per = float_of_int elems *. float_of_int bytes_per /. 1e9 in
  let formula f k =
    let e = Mst.element_count_formula ~n:paper_n ~fanout:f ~sample:k in
    (e, gb e 8, gb e 4)
  in
  let e1, f1_64, f1_32 = formula 16 4 in
  let e2, f2_64, f2_32 = formula 32 32 in
  H.print_table
    ~header:[ "config"; "elements@100M"; "GB (64-bit)"; "GB (32-bit)" ]
    ~rows:
      [
        [ "f=16, k=4"; string_of_int e1; Printf.sprintf "%.1f" f1_64; Printf.sprintf "%.1f" f1_32 ];
        [ "f=32, k=32"; string_of_int e2; Printf.sprintf "%.1f" f2_64; Printf.sprintf "%.1f" f2_32 ];
      ];
  H.note "(paper measured 12.4 GB for f=16,k=4 and 4.4 GB for f=k=32 at 100M rows)";
  (* measured at bench scale *)
  let keys = Scenarios.uniform_ints ~n:rows ~bound:rows () in
  let measured =
    List.map
      (fun (f, k) ->
        let t = Mst.create ~fanout:f ~sample:k keys in
        let s = Mst.stats t in
        let bytes = s.Mst.heap_bytes in
        [
          Printf.sprintf "f=%d, k=%d" f k;
          string_of_int (s.Mst.level_elements + s.Mst.cursor_elements);
          Printf.sprintf "%.1f MB" (float_of_int bytes /. 1e6);
          Printf.sprintf "%.2fx" (float_of_int bytes /. (16.0 *. float_of_int rows));
        ])
      [ (16, 4); (32, 32); (64, 64); (4, 4) ]
  in
  H.section (Printf.sprintf "Measured tree sizes at n=%d (overhead vs 16 B/row operator state)" rows);
  H.print_table ~header:[ "config"; "elements"; "bytes"; "overhead" ] ~rows:measured

(* ------------------------------------------------------------------ *)
(* Table 1 — empirical scaling exponents                                *)
(* ------------------------------------------------------------------ *)

let table1 ~base () =
  H.section "Table 1: measured scaling exponents (runtime ~ n^e, SQL default frame)";
  let sizes = [ base; base * 2; base * 4; base * 8 ] in
  let default_frame =
    Window_spec.rows_between Window_spec.Unbounded_preceding Window_spec.Current_row
  in
  let cases =
    [
      ("distinct count, incremental serial", item_for `Distinct Wf.Incremental_serial, "O(n)", 1.0);
      ("distinct count, MST", item_for `Distinct Wf.Mst, "O(n log n)", 1.0);
      ("percentile, incremental serial", item_for `Median Wf.Incremental_serial, "O(n^2)", 2.0);
      ("percentile, naive", item_for `Median Wf.Naive, "O(n^2)", 2.0);
      ("percentile, MST", item_for `Median Wf.Mst, "O(n log n)", 1.0);
      ("rank, MST", item_for `Rank Wf.Mst, "O(n log n)", 1.0);
    ]
  in
  let rows_out =
    List.map
      (fun (name, item, claimed, _) ->
        let times =
          List.map
            (fun n ->
              let table = Tpch.lineitem ~rows:n () in
              (H.time_best ~reps:2 (fun () ->
                   ignore
                     (Window_plan.run table
                        [ { Window_plan.spec = over_ship default_frame; items = [ item ] } ])))
                .H.best)
            sizes
        in
        (* least-squares slope of log t over log n *)
        let logs = List.map2 (fun n t -> (log (float_of_int n), log t)) sizes times in
        let k = float_of_int (List.length logs) in
        let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 logs in
        let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 logs in
        let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 logs in
        let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 logs in
        let slope = ((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx)) in
        name :: claimed :: Printf.sprintf "%.2f" slope
        :: List.map (fun t -> Printf.sprintf "%.3f" t) times)
      cases
  in
  H.print_table
    ~header:
      ([ "algorithm"; "claimed"; "measured e" ] @ List.map (fun n -> string_of_int n ^ " s") sizes)
    ~rows:rows_out;
  H.note "n log n fits measure as exponents slightly above 1; quadratic algorithms near 2"

(* ------------------------------------------------------------------ *)
(* Extension: framed DENSE_RANK via range trees (§4.4)                 *)
(* ------------------------------------------------------------------ *)

let ext_dense_rank ~scale () =
  H.section "Extension: framed DENSE_RANK, range tree vs naive (paper 4.4)";
  let sizes = List.map (fun n -> int_of_float (float_of_int n *. scale)) [ 5_000; 10_000; 20_000; 50_000; 100_000 ] in
  let item alg = Wf.dense_rank ~algorithm:alg ~name:"x" price_order in
  let tables = List.map (fun n -> (n, Tpch.lineitem ~rows:n ())) sizes in
  let rows_out =
    List.map
      (fun (name, alg) ->
        let series =
          H.sweep ~points:tables ~run:(fun (n, table) ->
              let over = over_ship (trailing_rows_frame (max 1 (n / 20))) in
              run_one table over (item alg))
        in
        name :: List.map (fun ((n, _), o) -> H.throughput_cell ~n o) series)
      [ ("range-tree", Wf.Auto); ("naive", Wf.Naive) ]
  in
  H.print_table ~header:("algorithm" :: List.map (fun (n, _) -> string_of_int n) tables) ~rows:rows_out;
  H.note "O(n (log n)^2) time and space: flat-ish throughput, heavier than the 2-d MST functions"

(* ------------------------------------------------------------------ *)
(* Pre-flight cross-validation                                         *)
(* ------------------------------------------------------------------ *)

(* Before sweeping, verify on a small instance that every algorithm under
   measurement computes identical results — a benchmark of wrong answers is
   worthless. Runs in milliseconds. *)
let preflight () =
  H.section "Pre-flight: cross-validating all algorithms on a 3000-row instance";
  let table = Tpch.lineitem ~rows:3_000 () in
  let over = over_ship (trailing_rows_frame 150) in
  let check fn algs =
    let run alg = Window_plan.run table [ { Window_plan.spec = over; items = [ item_for fn alg ] } ] in
    let reference = run Wf.Naive in
    let ref_col = Table.column reference "x" in
    List.iter
      (fun alg ->
        let got = Table.column (run alg) "x" in
        for i = 0 to Table.nrows table - 1 do
          let a = Column.get ref_col i and b = Column.get got i in
          if not (Value.equal a b || (Value.is_null a && Value.is_null b)) then
            failwith (Printf.sprintf "preflight: %s disagrees with naive at row %d" (fn_name fn) i)
        done)
      algs
  in
  check `Median [ Wf.Mst; Wf.Mst_no_cascade; Wf.Order_statistic; Wf.Incremental; Wf.Incremental_serial ];
  check `Rank [ Wf.Mst; Wf.Order_statistic ];
  check `Lead [ Wf.Mst; Wf.Incremental ];
  check `Distinct [ Wf.Mst; Wf.Incremental; Wf.Incremental_serial ];
  H.note "all algorithms agree"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_cascade ~rows () =
  H.section
    (Printf.sprintf
       "Ablation: fractional cascading on/off (MST vs segment-tree-of-sorted-lists, n=%d)" rows);
  let table = Tpch.lineitem ~rows () in
  let over = over_ship (trailing_rows_frame (max 1 (rows / 20))) in
  let cases = [ (`Median, "median"); (`Rank, "rank"); (`Distinct, "distinct count") ] in
  H.print_table
    ~header:[ "function"; "cascade s"; "no-cascade s"; "speedup" ]
    ~rows:
      (List.map
         (fun (fn, name) ->
           let t_on = run_one table over (item_for fn Wf.Mst) in
           let t_off = run_one table over (item_for fn Wf.Mst_no_cascade) in
           [
             name;
             Printf.sprintf "%.3f" t_on;
             Printf.sprintf "%.3f" t_off;
             Printf.sprintf "%.2fx" (t_off /. t_on);
           ])
         cases)

(* isolated raw-tree count probes at a depth where the cascade matters *)
let ablation_cascade_raw ~rows () =
  let n = 8 * rows in
  H.section (Printf.sprintf "Ablation: cascading, isolated count probes (n=%d)" n);
  let keys = Scenarios.uniform_ints ~n ~bound:n () in
  let w = n / 20 in
  let probe t =
    H.gc_settle ();
    H.time (fun () ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + Mst.count t ~lo:(max 0 (i - w)) ~hi:(i + 1) ~less_than:keys.(i)
        done;
        !acc)
  in
  let t_on = probe (Mst.create keys) in
  let t_off = probe (Mst.create ~sample:0 keys) in
  H.print_table
    ~header:[ "cascading"; "probe s"; "M probes/s" ]
    ~rows:
      [
        [ "on (k=32)"; Printf.sprintf "%.3f" t_on; Printf.sprintf "%.3g" (float_of_int n /. t_on /. 1e6) ];
        [ "off"; Printf.sprintf "%.3f" t_off; Printf.sprintf "%.3g" (float_of_int n /. t_off /. 1e6) ];
      ];
  H.note "speedup from cascading: %.2fx (grows with tree depth)" (t_off /. t_on)

let ablation_store ~rows () =
  H.section
    (Printf.sprintf "Ablation: 64-bit vs 32-bit tree storage (rank probes, n=%d)" rows);
  let keys = Scenarios.uniform_ints ~n:rows ~bound:rows () in
  let w = max 1 (rows / 20) in
  let tree = Mst.create keys in
  let compact = Holistic_core.Mst_compact.of_mst tree in
  let probe_full () =
    let acc = ref 0 in
    for i = 0 to rows - 1 do
      acc := !acc + Mst.count tree ~lo:(max 0 (i - w)) ~hi:(i + 1) ~less_than:keys.(i)
    done;
    !acc
  in
  let probe_compact () =
    let acc = ref 0 in
    for i = 0 to rows - 1 do
      acc :=
        !acc
        + Holistic_core.Mst_compact.count compact ~lo:(max 0 (i - w)) ~hi:(i + 1)
            ~less_than:keys.(i)
    done;
    !acc
  in
  if probe_full () <> probe_compact () then failwith "storage ablation: results diverge";
  let t64 = (H.time_best ~reps:2 probe_full).H.best in
  let t32 = (H.time_best ~reps:2 probe_compact).H.best in
  H.print_table
    ~header:[ "storage"; "bytes"; "probe s"; "M probes/s" ]
    ~rows:
      [
        [
          "64-bit (int array)";
          Printf.sprintf "%.1f MB" (float_of_int (Mst.stats tree).Mst.heap_bytes /. 1e6);
          Printf.sprintf "%.3f" t64;
          Printf.sprintf "%.3g" (float_of_int rows /. t64 /. 1e6);
        ];
        [
          "32-bit (int32 bigarray)";
          Printf.sprintf "%.1f MB"
            (float_of_int (Holistic_core.Mst_compact.heap_bytes compact) /. 1e6);
          Printf.sprintf "%.3f" t32;
          Printf.sprintf "%.3g" (float_of_int rows /. t32 /. 1e6);
        ];
      ];
  H.note
    "monomorphic 32-bit descents keep Int32 reads unboxed: narrow probes match 64-bit \
     in-cache and win once the tree spills (see mst-width at 10^6)"

(* Width sweep (§5.1): build cost of the historical 64-bit-then-convert
   path vs direct narrow construction, probe throughput and footprint of
   every instantiation. Emits BENCH_mst_width.json for regression
   tracking. *)
let mst_width ~rows () =
  let module C = Holistic_core.Mst_compact in
  let module M16 = Holistic_core.Mst16 in
  let module W = Holistic_core.Mst_width in
  H.section (Printf.sprintf "Width sweep: direct narrow MST builds vs build-then-convert (n=%d)" rows);
  let sizes =
    List.sort_uniq compare [ max 1_000 (rows / 20); max 1_000 (rows / 5); rows ]
  in
  let series =
    List.map
      (fun n ->
        let keys = Scenarios.uniform_ints ~n ~bound:n () in
        let w = max 1 (n / 20) in
        (* the pre-template build must still produce the same tree, or the
           baseline below would be a strawman *)
        let legacy = Legacy_mst.create keys in
        let cur = Mst.internals (Mst.create keys) in
        if
          legacy.Legacy_mst.levels <> cur.Mst.int_levels
          || legacy.Legacy_mst.cursors <> cur.Mst.int_cursors
        then failwith "mst_width: legacy build diverges from current build";
        (* warm-up: fault in the heap and code paths so the first timed rep
           is not billed for first-touch page faults *)
        ignore (C.of_mst (Mst.create keys));
        H.gc_settle ();
        let t_legacy =
          (H.time_best ~reps:5 (fun () -> Legacy_mst.convert_32 (Legacy_mst.create keys))).H.best
        in
        H.gc_settle ();
        let t_build64 = (H.time_best ~reps:5 (fun () -> Mst.create keys)).H.best in
        H.gc_settle ();
        let t_convert = (H.time_best ~reps:5 (fun () -> C.of_mst (Mst.create keys))).H.best in
        H.gc_settle ();
        let t_direct32 = (H.time_best ~reps:5 (fun () -> C.create keys)).H.best in
        let fits16 = n <= 0xFFFF in
        let t_direct16 =
          if fits16 then begin
            H.gc_settle ();
            Some (H.time_best ~reps:5 (fun () -> M16.create keys)).H.best
          end
          else None
        in
        let tree64 = Mst.create keys in
        let tree32 = C.create keys in
        let tree16 = if fits16 then Some (M16.create keys) else None in
        let probe count =
          H.gc_settle ();
          H.time (fun () ->
              let acc = ref 0 in
              for i = 0 to n - 1 do
                acc := !acc + count ~lo:(max 0 (i - w)) ~hi:(i + 1) ~less_than:keys.(i)
              done;
              !acc)
        in
        let p64 = probe (Mst.count tree64) in
        let p32 = probe (C.count tree32) in
        let p16 = Option.map (fun t -> probe (M16.count t)) tree16 in
        let b64 = (Mst.stats tree64).Mst.heap_bytes in
        let b32 = C.heap_bytes tree32 in
        let b16 = Option.map M16.heap_bytes tree16 in
        let auto = W.width_for ~n ~min_value:0 ~max_value:(n - 1) in
        let fcell = function Some t -> Printf.sprintf "%.3f" t | None -> "-" in
        let mb b = Printf.sprintf "%.1f" (float_of_int b /. 1e6) in
        H.print_table
          ~header:[ "n"; "path"; "build s"; "probe s"; "MB" ]
          ~rows:
            ([
               [ string_of_int n; "pre-PR build + convert to 32"; Printf.sprintf "%.3f" t_legacy;
                 Printf.sprintf "%.3f" p32; mb (b64 + b32) ];
               [ ""; "64-bit"; Printf.sprintf "%.3f" t_build64;
                 Printf.sprintf "%.3f" p64; mb b64 ];
               [ ""; "64-bit + convert to 32"; Printf.sprintf "%.3f" t_convert;
                 Printf.sprintf "%.3f" p32; mb (b64 + b32) ];
               [ ""; "direct 32-bit"; Printf.sprintf "%.3f" t_direct32;
                 Printf.sprintf "%.3f" p32; mb b32 ];
             ]
            @
            match t_direct16 with
            | Some t16 ->
                [ [ ""; "direct 16-bit"; fcell (Some t16);
                    fcell p16; mb (Option.get b16) ] ]
            | None -> []);
        H.note
          "direct 32-bit vs old build-then-convert: %.2fx faster (%.2fx vs the retuned 64-bit \
           merge + convert; auto picks %d-bit here)"
          (t_legacy /. t_direct32) (t_convert /. t_direct32) (W.bits auto);
        Json.J_obj
          [
            ("n", Json.J_int n);
            ("frame", Json.J_int w);
            ("auto_width_bits", Json.J_int (W.bits auto));
            ( "build_seconds",
              Json.J_obj
                [
                  ("legacy_build64_convert32", Json.J_float t_legacy);
                  ("build64", Json.J_float t_build64);
                  ("build64_convert32", Json.J_float t_convert);
                  ("direct32", Json.J_float t_direct32);
                  ("direct16", match t_direct16 with Some t -> Json.J_float t | None -> Json.J_null);
                ] );
            ( "probe_seconds",
              Json.J_obj
                [
                  ("w64", Json.J_float p64);
                  ("w32", Json.J_float p32);
                  ("w16", match p16 with Some t -> Json.J_float t | None -> Json.J_null);
                ] );
            ( "heap_bytes",
              Json.J_obj
                [
                  ("w64", Json.J_int b64);
                  ("w32", Json.J_int b32);
                  ("w16", match b16 with Some b -> Json.J_int b | None -> Json.J_null);
                  ("peak_convert_path", Json.J_int (b64 + b32));
                ] );
            ("legacy_over_direct32", Json.J_float (t_legacy /. t_direct32));
            ("convert_over_direct32", Json.J_float (t_convert /. t_direct32));
          ])
      sizes
  in
  (* gate on the largest size point: the build-path ratios and the exact
     per-width footprints (deterministic arithmetic in n) *)
  let metrics =
    match List.rev series with
    | Json.J_obj last :: _ ->
        let f k = match List.assoc_opt k last with Some (Json.J_float v) -> Some v | _ -> None in
        let nested k1 k2 =
          match List.assoc_opt k1 last with
          | Some (Json.J_obj inner) -> (
              match List.assoc_opt k2 inner with
              | Some (Json.J_int v) -> Some (float_of_int v)
              | Some (Json.J_float v) -> Some v
              | _ -> None)
          | _ -> None
        in
        List.filter_map
          (fun (name, v, m) -> Option.map (fun v -> (name, m v)) v)
          [
            ( "legacy_over_direct32",
              f "legacy_over_direct32",
              fun v -> Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 v );
            ( "convert_over_direct32",
              f "convert_over_direct32",
              fun v -> Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 v );
            ( "bytes_w64",
              nested "heap_bytes" "w64",
              fun v -> Report.metric ~unit_:"B" ~tolerance:0.01 v );
            ( "bytes_w32",
              nested "heap_bytes" "w32",
              fun v -> Report.metric ~unit_:"B" ~tolerance:0.01 v );
          ]
    | _ -> []
  in
  Report.write "BENCH_mst_width.json" ~experiment:"mst-width"
    ~params:[ ("rows", Json.J_int rows) ]
    ~metrics ~series:(Json.J_list series);
  H.note "wrote BENCH_mst_width.json"

let ablation_task ~rows () =
  H.section
    (Printf.sprintf
       "Ablation: task size vs incremental algorithms (median, frame 5%%, n=%d)" rows);
  let table = Tpch.lineitem ~rows () in
  let over = over_ship (trailing_rows_frame (max 1 (rows / 20))) in
  let task_sizes = [ 1_000; 5_000; 20_000; 100_000; rows ] in
  H.print_table
    ~header:
      ("algorithm"
      :: List.map (fun t -> if t = rows then "serial" else string_of_int t) task_sizes)
    ~rows:
      (List.map
         (fun (name, alg) ->
           name
           :: List.map
                (fun task_size ->
                  let t =
                    H.time (fun () ->
                        ignore
                          (Window_plan.run ~task_size table
                             [ { Window_plan.spec = over; items = [ item_for `Median alg ] } ]))
                  in
                  Printf.sprintf "%.3f" t)
                task_sizes)
         [ ("incremental", Wf.Incremental); ("ost", Wf.Order_statistic) ]);
  H.note "each task rebuilds its window state: smaller tasks multiply the rebuild cost (paper 3.2)"
