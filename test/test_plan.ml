(* Multi-clause window pipeline: value parity of the shared plan against
   independent single-spec runs, sharing statistics (sorts, encodes, tree
   builds), Build_cache unit behaviour and deterministic evaluation order. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Rng = Holistic_util.Rng
module Sql = Holistic_sql.Sql

let value_eq a b =
  match a, b with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | _ -> (Value.is_null a && Value.is_null b) || Value.equal a b

(* grp: few partitions; ts: distinct shuffled ints (tie-free order key);
   x: floats with NULLs; k: small ints (ties, extends ts to (ts, k)). *)
let make_table rng n =
  let grp = Array.init n (fun _ -> Rng.int rng 4) in
  let ts = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = ts.(i) in
    ts.(i) <- ts.(j);
    ts.(j) <- t
  done;
  let x =
    Array.init n (fun _ ->
        if Rng.int rng 8 = 0 then Value.Null else Value.Float (float_of_int (Rng.int rng 50)))
  in
  let k = Array.init n (fun _ -> Rng.int rng 10) in
  Table.create
    [
      ("grp", Column.ints grp);
      ("ts", Column.ints ts);
      ("x", Column.of_values x);
      ("k", Column.ints k);
    ]

let nparts table =
  let c = Table.column table "grp" in
  let seen = Hashtbl.create 8 in
  for i = 0 to Table.nrows table - 1 do
    Hashtbl.replace seen (Column.get c i) ()
  done;
  Hashtbl.length seen

(* plan over all clauses vs one single-clause plan per clause *)
let check_parity table (clauses : Window_plan.clause list) =
  let planned = Window_plan.run table clauses in
  List.iter
    (fun (c : Window_plan.clause) ->
      let solo = Window_plan.run table [ c ] in
      List.iter
        (fun (item : Wf.t) ->
          let pc = Table.column planned item.name and sc = Table.column solo item.name in
          for i = 0 to Table.nrows table - 1 do
            if not (value_eq (Column.get pc i) (Column.get sc i)) then
              Alcotest.failf "%s row %d: plan %s <> solo %s" item.name i
                (Value.to_string (Column.get pc i))
                (Value.to_string (Column.get sc i))
          done)
        c.items)
    clauses

let grp = Expr.Col "grp"
let ts = Expr.Col "ts"
let x = Expr.Col "x"
let k = Expr.Col "k"
let by_ts = [ Sort_spec.asc ts ]
let by_ts_k = [ Sort_spec.asc ts; Sort_spec.asc k ]
let by_x_desc = [ Sort_spec.desc x ]
let rows_back n = Window_spec.rows_between (Window_spec.preceding n) Window_spec.Current_row

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)
(* ------------------------------------------------------------------ *)

let test_parity_mixed_specs () =
  let rng = Rng.create 7 in
  let table = make_table rng 500 in
  let clauses =
    [
      (* same PARTITION BY + same ORDER BY, default frame *)
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ();
        items =
          [
            Wf.rank ~name:"c1_rank" [];
            Wf.row_number ~name:"c1_rn" [];
            Wf.sum ~name:"c1_sum" x;
          ];
      };
      (* same (partition, order), different frame *)
      {
        Window_plan.spec =
          Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ~frame:(rows_back 3) ();
        items =
          [
            Wf.cume_dist ~name:"c2_cd" [];
            Wf.median ~name:"c2_med" x;
            Wf.count ~distinct:true ~name:"c2_dk" k;
          ];
      };
      (* order extends c1's by a second key: full-sort sharing via prefix *)
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts_k ();
        items = [ Wf.lead ~name:"c3_lead" x; Wf.dense_rank ~name:"c3_dr" [] ];
      };
      (* same partition, incompatible order: partial-sort sharing *)
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_x_desc ();
        items =
          [
            Wf.first_value ~ignore_nulls:true ~name:"c4_fv" x;
            Wf.percent_rank ~name:"c4_pr" [];
          ];
      };
      (* fully disjoint: no partitioning *)
      {
        Window_plan.spec = Window_spec.over ~order_by:by_ts ~frame:(rows_back 10) ();
        items = [ Wf.avg ~name:"c5_avg" x ];
      };
      (* fully disjoint: different PARTITION BY, no order *)
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ k ] ();
        items = [ Wf.count_star ~name:"c6_n" () ];
      };
    ]
  in
  check_parity table clauses

let test_parity_sql_query () =
  let rng = Rng.create 21 in
  let table = make_table rng 300 in
  let got =
    Sql.query ~tables:[ ("t", table) ]
      "select rank() over w as r,\n\
      \       sum(x) over (partition by grp order by ts rows between 5 preceding and current row) as s,\n\
      \       row_number() over (partition by grp order by ts, k) as rn\n\
       from t window w as (partition by grp order by ts)"
  in
  let expect_r =
    Window_plan.run table
      [
        {
          Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ();
          items = [ Wf.rank ~name:"r" [] ];
        };
      ]
  in
  let expect_s =
    Window_plan.run table
      [
        {
          Window_plan.spec =
            Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ~frame:(rows_back 5) ();
          items = [ Wf.sum ~name:"s" x ];
        };
      ]
  in
  let expect_rn =
    Window_plan.run table
      [
        {
          Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts_k ();
          items = [ Wf.row_number ~name:"rn" [] ];
        };
      ]
  in
  List.iter
    (fun (name, expected) ->
      let gc = Table.column got name and ec = Table.column expected name in
      for i = 0 to Table.nrows table - 1 do
        if not (value_eq (Column.get gc i) (Column.get ec i)) then
          Alcotest.failf "sql %s row %d differs" name i
      done)
    [ ("r", expect_r); ("s", expect_s); ("rn", expect_rn) ]

(* ------------------------------------------------------------------ *)
(* Sharing statistics                                                  *)
(* ------------------------------------------------------------------ *)

let test_tree_builds_drop_to_one () =
  let rng = Rng.create 3 in
  let table = make_table rng 400 in
  let np = nparts table in
  let clause frame name =
    {
      Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ?frame ();
      items = [ Wf.rank ~name [] ];
    }
  in
  let clauses =
    [ clause None "r_a"; clause (Some (rows_back 3)) "r_b"; clause (Some (rows_back 7)) "r_c" ]
  in
  let _, stats = Window_plan.run_with_stats table clauses in
  Alcotest.(check int) "one stage" 1 stats.Window_plan.stages;
  Alcotest.(check int) "one partition pass" 1 stats.Window_plan.partition_passes;
  Alcotest.(check int) "one full sort" 1 stats.Window_plan.full_sorts;
  Alcotest.(check int) "no partial sorts" 0 stats.Window_plan.partial_sorts;
  Alcotest.(check int) "two clauses reuse the sort" 2 stats.Window_plan.reused_sorts;
  (* one rank-codes MST and one encode per partition, shared by all three *)
  Alcotest.(check int) "tree builds = partitions" np stats.Window_plan.tree_builds;
  Alcotest.(check int) "encode builds = partitions" np stats.Window_plan.encode_builds;
  (* per-spec evaluation builds k trees per partition *)
  let solo_trees =
    List.fold_left
      (fun acc (c : Window_plan.clause) ->
        let _, s = Window_plan.run_with_stats table [ c ] in
        acc + s.Window_plan.tree_builds)
      0 clauses
  in
  Alcotest.(check int) "solo path builds 3x" (3 * np) solo_trees

let test_one_encode_for_named_window () =
  let rng = Rng.create 11 in
  let table = make_table rng 400 in
  let np = nparts table in
  (* rank + percent_rank + cume_dist + median over one named window: one
     rank-codes encode/tree (shared by the three rank items) plus one
     selection encode/tree for the median's value order *)
  let clauses =
    [
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ();
        items =
          [
            Wf.rank ~name:"w_rank" [];
            Wf.percent_rank ~name:"w_pr" [];
            Wf.cume_dist ~name:"w_cd" [];
            Wf.median ~name:"w_med" x;
          ];
      };
    ]
  in
  let _, stats = Window_plan.run_with_stats table clauses in
  Alcotest.(check int) "2 encodes per partition" (2 * np) stats.Window_plan.encode_builds;
  Alcotest.(check int) "2 trees per partition" (2 * np) stats.Window_plan.tree_builds;
  check_parity table clauses

let test_partial_sort_stats () =
  let rng = Rng.create 5 in
  let table = make_table rng 600 in
  let clauses =
    [
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ();
        items = [ Wf.rank ~name:"p1" [] ];
      };
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts_k ();
        items = [ Wf.rank ~name:"p2" [] ];
      };
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_x_desc ();
        items = [ Wf.rank ~name:"p3" [] ];
      };
    ]
  in
  let _, stats = Window_plan.run_with_stats table clauses in
  (* [ts] is a prefix of [ts, k]: both live in the (ts, k) stage; [x desc]
     re-sorts within the inherited partition boundaries *)
  Alcotest.(check int) "two stages" 2 stats.Window_plan.stages;
  Alcotest.(check int) "one full sort" 1 stats.Window_plan.full_sorts;
  Alcotest.(check int) "one partial sort" 1 stats.Window_plan.partial_sorts;
  Alcotest.(check int) "prefix clause reuses" 1 stats.Window_plan.reused_sorts;
  Alcotest.(check int) "one partition pass" 1 stats.Window_plan.partition_passes;
  check_parity table clauses

(* ------------------------------------------------------------------ *)
(* Build_cache unit behaviour                                          *)
(* ------------------------------------------------------------------ *)

let test_build_cache_unit () =
  let counters = Build_cache.fresh_counters () in
  let cache = Build_cache.create ~counters () in
  let builds = ref 0 in
  let build () =
    incr builds;
    Holistic_core.Mst_width.create [| 0; 1; 0; 2 |]
  in
  let qual = Build_cache.unfiltered in
  let t1 = Build_cache.count_tree cache ~cls:Build_cache.Rank_codes ~order:by_ts ~qual ~sample:32 build in
  let t2 = Build_cache.count_tree cache ~cls:Build_cache.Rank_codes ~order:by_ts ~qual ~sample:32 build in
  Alcotest.(check int) "second lookup hits" 1 !builds;
  Alcotest.(check bool) "same tree shared" true (t1 == t2);
  (* distinct class, order or sample each miss *)
  ignore (Build_cache.count_tree cache ~cls:Build_cache.Row_codes ~order:by_ts ~qual ~sample:32 build);
  ignore (Build_cache.count_tree cache ~cls:Build_cache.Rank_codes ~order:by_ts_k ~qual ~sample:32 build);
  ignore (Build_cache.count_tree cache ~cls:Build_cache.Rank_codes ~order:by_ts ~qual ~sample:0 build);
  Alcotest.(check int) "three more builds" 4 !builds;
  Alcotest.(check int) "counter tracks tree builds" 4 (Build_cache.tree_build_count counters);
  let encodes = ref 0 in
  let enc () =
    incr encodes;
    Holistic_core.Rank_encode.of_ints [| 3; 1; 2 |]
  in
  ignore (Build_cache.encode cache ~order:by_ts enc);
  ignore (Build_cache.encode cache ~order:by_ts enc);
  Alcotest.(check int) "encode memoized" 1 !encodes;
  Alcotest.(check int) "counter tracks encodes" 1 (Build_cache.encode_build_count counters)

(* ------------------------------------------------------------------ *)
(* Deterministic evaluation order                                      *)
(* ------------------------------------------------------------------ *)

let test_first_appearance_error_order () =
  let rng = Rng.create 13 in
  let table = make_table rng 50 in
  let spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts () in
  (* both clauses raise on their first item; whichever clause appears first
     must win, every run *)
  let bad_mode =
    { Window_plan.spec; items = [ Wf.mode ~algorithm:Wf.Segment_tree ~name:"bm" x ] }
  in
  let bad_rank =
    { Window_plan.spec; items = [ Wf.rank ~algorithm:Wf.Incremental ~name:"br" [] ] }
  in
  let message clauses =
    match Window_plan.run table clauses with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  for _ = 1 to 5 do
    Alcotest.(check bool)
      "mode-first raises the mode error" true
      (contains (message [ bad_mode; bad_rank ]) "mode supports");
    Alcotest.(check bool)
      "rank-first raises the rank error" true
      (contains (message [ bad_rank; bad_mode ]) "rank functions support")
  done

let test_repeated_runs_identical () =
  let rng = Rng.create 17 in
  let table = make_table rng 200 in
  let clauses =
    [
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_x_desc ();
        items = [ Wf.rank ~name:"d1" []; Wf.sum ~name:"d2" x ];
      };
      {
        Window_plan.spec = Window_spec.over ~partition_by:[ grp ] ~order_by:by_ts ();
        items = [ Wf.median ~name:"d3" x ];
      };
    ]
  in
  let run () =
    let t = Window_plan.run table clauses in
    List.map
      (fun name ->
        let c = Table.column t name in
        Array.init (Table.nrows t) (fun i -> Value.to_string (Column.get c i)))
      [ "d1"; "d2"; "d3" ]
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical across runs" true (a = b)

let () =
  Alcotest.run "window_plan"
    [
      ( "parity",
        [
          Alcotest.test_case "mixed specs vs solo runs" `Quick test_parity_mixed_specs;
          Alcotest.test_case "sql multi-clause query" `Quick test_parity_sql_query;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "tree builds drop k to 1" `Quick test_tree_builds_drop_to_one;
          Alcotest.test_case "one encode per named window" `Quick test_one_encode_for_named_window;
          Alcotest.test_case "partial-sort stats" `Quick test_partial_sort_stats;
          Alcotest.test_case "build cache memoization" `Quick test_build_cache_unit;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "first-appearance error order" `Quick test_first_appearance_error_order;
          Alcotest.test_case "repeated runs identical" `Quick test_repeated_runs_identical;
        ] );
    ]
