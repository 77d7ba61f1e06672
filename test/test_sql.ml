open Holistic_storage
open Holistic_window
module Sql = Holistic_sql.Sql
module Parser = Holistic_sql.Parser
module Ast = Holistic_sql.Ast
module Wf = Window_func

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_flagship () =
  (* the paper's §2.4 query parses with every extension *)
  let q =
    Parser.parse
      "select dbsystem, tps,\n\
      \  count(distinct dbsystem) over w,\n\
      \  rank(order by tps desc) over w,\n\
      \  first_value(tps order by tps desc) over w,\n\
      \  lead(tps order by tps desc) over w\n\
       from tpcc_results\n\
       window w as (order by submission_date\n\
      \  range between unbounded preceding and current row)"
  in
  Alcotest.(check int) "six select items" 6 (List.length q.Ast.select);
  Alcotest.(check string) "from" "tpcc_results" q.Ast.from;
  Alcotest.(check int) "one named window" 1 (List.length q.Ast.windows);
  match (List.nth q.Ast.select 2).Ast.value with
  | `Window w ->
      Alcotest.(check bool) "distinct" true w.Ast.distinct;
      Alcotest.(check (option string)) "window ref" (Some "w") w.Ast.over.Ast.base
  | `Expr _ -> Alcotest.fail "expected window call"

let test_parse_frame_variants () =
  let q =
    Parser.parse
      "select median(x) over (order by t groups between 2 preceding and 3 following exclude group) from t"
  in
  match (List.hd q.Ast.select).Ast.value with
  | `Window w -> begin
      match w.Ast.over.Ast.frame with
      | Some f ->
          Alcotest.(check bool) "groups mode" true (f.Ast.mode = `Groups);
          Alcotest.(check bool) "exclusion" true (f.Ast.exclusion = Ast.Group_x)
      | None -> Alcotest.fail "expected frame"
    end
  | _ -> Alcotest.fail "expected window call"

let test_parse_shorthand_frame () =
  let q = Parser.parse "select sum(x) over (order by t rows 5 preceding) from t" in
  match (List.hd q.Ast.select).Ast.value with
  | `Window { Ast.over = { Ast.frame = Some f; _ }; _ } ->
      Alcotest.(check bool) "start" true (f.Ast.start_bound = Ast.Preceding (Ast.Int_lit 5));
      Alcotest.(check bool) "implied end" true (f.Ast.end_bound = Ast.Current_row)
  | _ -> Alcotest.fail "expected frame"

let test_parse_expressions () =
  let e = Parser.parse_expr "a + b * 2 >= 10 - -3 and not (c = 'x''y')" in
  (* shape check: top is AND *)
  (match e with
  | Ast.Binop ("and", Ast.Binop (">=", Ast.Binop ("+", _, Ast.Binop ("*", _, _)), _), Ast.Unop ("not", _)) -> ()
  | _ -> Alcotest.fail "unexpected expression shape");
  match Parser.parse_expr "x between 1 and 5" with
  | Ast.Binop ("and", Ast.Binop (">=", _, _), Ast.Binop ("<=", _, _)) -> ()
  | _ -> Alcotest.fail "BETWEEN did not desugar"

let test_parse_errors () =
  let bad s =
    match Parser.parse s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" s
  in
  bad "select from t";
  bad "select a from";
  bad "select count(distinct x) from t" (* window syntax without OVER *);
  bad "select sum(x) over (order by) from t";
  bad "select sum(x) over (rows between and current row) from t";
  bad "select a from t trailing_garbage"

let test_parse_offsets () =
  (* whole-token offsets for error reporting *)
  try
    ignore (Parser.parse "select $ from t");
    Alcotest.fail "expected lexer error"
  with Parser.Error (_, off) -> Alcotest.(check int) "offset of '$'" 7 off

(* ------------------------------------------------------------------ *)
(* Printer/parser round-trip property                                  *)
(* ------------------------------------------------------------------ *)

(* random query ASTs built from printable atoms; the property is
   [parse (print_query q) = q] *)
module Qgen = struct
  open QCheck.Gen

  let col = oneofl [ "a"; "b"; "c"; "ts"; "price" ]

  let rec expr depth =
    if depth = 0 then
      oneof
        [
          map (fun c -> Ast.Col c) col;
          map (fun v -> Ast.Int_lit v) (int_bound 100);
          map (fun v -> Ast.Float_lit (float_of_int v /. 4.0)) (int_bound 40);
          map (fun s -> Ast.String_lit s) (oneofl [ "x"; "it's"; "a,b" ]);
          return (Ast.Date_lit "2020-05-17");
          return (Ast.Interval_lit "1 month");
          return Ast.Null_lit;
        ]
    else
      oneof
        [
          expr 0;
          (let* op = oneofl [ "+"; "-"; "*"; "/"; "<"; "<="; "="; "<>"; ">="; ">"; "and"; "or" ] in
           let* a = expr (depth - 1) in
           let* b = expr (depth - 1) in
           return (Ast.Binop (op, a, b)));
          map (fun a -> Ast.Unop ("not", a)) (expr (depth - 1));
          map (fun a -> Ast.Unop ("-", a)) (expr (depth - 1));
          (let* a = expr (depth - 1) in
           let* n = bool in
           return (Ast.Is_null (a, n)));
          (let* a = expr (depth - 1) in
           let* b = expr (depth - 1) in
           return (Ast.Func ("mod", [ a; b ])));
        ]

  let order_key =
    let* e = expr 1 in
    let* desc = bool in
    let* nulls_first = oneofl [ None; Some true; Some false ] in
    return { Ast.expr = e; desc; nulls_first }

  let frame_bound =
    oneof
      [
        return Ast.Unbounded_preceding;
        return Ast.Current_row;
        return Ast.Unbounded_following;
        map (fun k -> Ast.Preceding (Ast.Int_lit k)) (int_bound 9);
        map (fun k -> Ast.Following (Ast.Int_lit k)) (int_bound 9);
        map (fun c -> Ast.Preceding (Ast.Col c)) col;
      ]

  let frame =
    let* mode = oneofl [ `Rows; `Range; `Groups ] in
    let* start_bound = frame_bound in
    let* end_bound = frame_bound in
    let* exclusion = oneofl [ Ast.No_others; Ast.Current_row_x; Ast.Group_x; Ast.Ties_x ] in
    return { Ast.mode; start_bound; end_bound; exclusion }

  let window ~base =
    let* base =
      if base then map (fun b -> if b then Some "w" else None) bool else return None
    in
    let* partition_by = if base = None then list_size (int_bound 2) (expr 0) else return [] in
    let* order_by = list_size (int_bound 2) order_key in
    let* frame = option frame in
    return { Ast.base; partition_by; order_by; frame }

  let window_call =
    let* func, args, arg_order, distinct_ok =
      oneof
        [
          (let* e = expr 1 in
           let* d = bool in
           return ("sum", [ e ], [], d));
          return ("count", [ Ast.Col "*" ], [], false);
          (let* keys = list_size (int_range 1 2) order_key in
           return ("rank", [], keys, false));
          (let* keys = list_size (int_range 1 2) order_key in
           let* e = expr 0 in
           return ("first_value", [ e ], keys, false));
          (let* keys = list_size (int_range 1 2) order_key in
           return ("percentile_disc", [ Ast.Float_lit 0.5 ], keys, false));
          (let* e = expr 0 in
           let* off = int_bound 3 in
           return ("lead", [ e; Ast.Int_lit off ], [], false));
        ]
    in
    let* ignore_nulls = if func = "lead" || func = "first_value" then bool else return false in
    let* filter = option (expr 1) in
    let* over = window ~base:true in
    return { Ast.func; distinct = distinct_ok; args; arg_order_by = arg_order; ignore_nulls; from_last = false; filter; over }

  let select_item =
    let* value =
      oneof [ map (fun e -> `Expr e) (expr 2); map (fun w -> `Window w) window_call ]
    in
    let* alias = option (oneofl [ "out"; "x1"; "y2" ]) in
    (* a bare column without alias keeps its name; anything else is fine *)
    return { Ast.value; alias }

  let query =
    let* select = list_size (int_range 1 4) select_item in
    let* where = option (expr 2) in
    let* windows =
      map (fun w -> [ ("w", w) ]) (window ~base:false)
    in
    let* order_by = list_size (int_bound 2) order_key in
    let* limit = option (int_bound 50) in
    return { Ast.select; from = "tbl"; where; windows; order_by; limit }
end

let print_parse_roundtrip =
  QCheck.Test.make ~name:"print_query / parse round-trip" ~count:500
    (QCheck.make ~print:(fun q -> Sql.print_query q) Qgen.query)
    (fun q ->
      let printed = Sql.print_query q in
      match Parser.parse printed with
      | q' -> q' = q
      | exception Parser.Error (msg, off) ->
          QCheck.Test.fail_reportf "parse error %S at %d in %s" msg off printed)

(* ------------------------------------------------------------------ *)
(* Planner / execution                                                 *)
(* ------------------------------------------------------------------ *)

let table =
  Table.create
    [
      ("t", Column.ints [| 1; 2; 3; 4; 5; 6 |]);
      ("x", Column.floats [| 4.0; 2.0; 6.0; 1.0; 9.0; 5.0 |]);
      ("g", Column.ints [| 0; 1; 0; 1; 0; 1 |]);
    ]

let tables = [ ("tbl", table) ]

let col_strings t name =
  Array.to_list (Array.init (Table.nrows t) (fun i -> Value.to_string (Column.get (Table.column t name) i)))

let test_sql_median_matches_api () =
  let via_sql =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select median(x) over (order by t rows between 2 preceding and current row) as m from tbl"
  in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "t") ]
      ~frame:(Window_spec.rows_between (Window_spec.preceding 2) Window_spec.Current_row)
      ()
  in
  let via_api =
    Window_plan.run ~pool:Shared_pool.pool table [ { Window_plan.spec = over; items = [ Wf.median ~name:"m" (Expr.Col "x") ] } ]
  in
  Alcotest.(check (list string)) "same medians" (col_strings via_api "m") (col_strings via_sql "m")

let test_sql_partition_and_named_window () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select t, rank(order by x desc) over w as r from tbl \
       window w as (partition by g order by t rows between unbounded preceding and current row) \
       order by t"
  in
  (* partition g=0 rows (t=1,3,5 with x=4,6,9): ranks 1,1,1 as each new x is
     the max so far; partition g=1 (t=2,4,6 with x=2,1,5): ranks 1,2,1 *)
  Alcotest.(check (list string)) "ranks" [ "1"; "1"; "1"; "2"; "1"; "1" ] (col_strings r "r")

let test_sql_where_filter_limit () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select t, count(*) over (order by t) as c from tbl where x > 2 order by t desc limit 2"
  in
  Alcotest.(check (list string)) "t desc limited" [ "6"; "5" ] (col_strings r "t");
  Alcotest.(check (list string)) "running count over filtered rows" [ "4"; "3" ] (col_strings r "c")

let test_sql_interval_range () =
  let dates =
    Column.dates (Array.map (fun (y, m, d) -> Value.date_of_ymd y m d)
      [| (2020, 1, 1); (2020, 1, 20); (2020, 2, 5); (2020, 3, 1) |])
  in
  let tbl = Table.create [ ("d", dates); ("v", Column.ints [| 1; 2; 3; 4 |]) ] in
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables:[ ("e", tbl) ]
      "select count(*) over (order by d range between interval '1 month' preceding and current row) as c \
       from e order by d"
  in
  (* windows: jan1:{jan1}, jan20:{jan1,jan20}, feb5:{jan20? jan5..feb5 → jan20,feb5}, mar1:{feb5,mar1} *)
  Alcotest.(check (list string)) "monthly windows" [ "1"; "2"; "2"; "2" ] (col_strings r "c")

let test_sql_filter_clause () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select sum(x) filter (where g = 0) over (order by t rows between unbounded preceding and current row) as s \
       from tbl order by t"
  in
  Alcotest.(check (list string)) "filtered running sum" [ "4"; "4"; "10"; "10"; "19"; "19" ]
    (col_strings r "s")

let test_sql_exclusion () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select sum(x) over (order by t rows between unbounded preceding and unbounded following exclude current row) as s \
       from tbl order by t"
  in
  (* total 27 minus own value *)
  Alcotest.(check (list string)) "exclude current row" [ "23"; "25"; "21"; "26"; "18"; "22" ]
    (col_strings r "s")

let test_sql_algorithm_override () =
  let q = "select median(x) over (order by t rows between 1 preceding and current row) as m from tbl" in
  let a = Sql.query ~pool:Shared_pool.pool ~tables q in
  let b = Sql.query ~pool:Shared_pool.pool ~evaluator:Evaluator_choice.Naive ~tables q in
  Alcotest.(check (list string)) "algorithms agree" (col_strings a "m") (col_strings b "m")

let test_sql_semantic_errors () =
  let bad s msg_part =
    match Sql.query ~pool:Shared_pool.pool ~tables s with
    | exception Sql.Semantic_error msg ->
        if not (String.length msg >= String.length msg_part) then Alcotest.fail msg
    | _ -> Alcotest.failf "expected semantic error for %s" s
  in
  bad "select nope from tbl" "unknown column";
  bad "select median(x) over v from tbl" "unknown window";
  bad "select frobnicate(x) over (order by t) from tbl" "unknown window function";
  bad "select percentile_disc(0.5) over (order by t) from tbl" "requires ORDER BY";
  bad "select x from nonexistent" "unknown table"

(* An invalid constant frame offset is an error only once a row asks for
   it: a WHERE that removes every row leaves no row to ask. *)
let test_sql_offset_over_no_rows () =
  let frame = " over (order by t rows between 1.5 preceding and current row) as s from tbl" in
  let r = Sql.query ~pool:Shared_pool.pool ~tables ("select sum(x)" ^ frame ^ " where x > 1000") in
  Alcotest.(check int) "no rows" 0 (Table.nrows r);
  match Sql.query ~pool:Shared_pool.pool ~tables ("select sum(x)" ^ frame) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "rows ask" "Frame: ROWS/GROUPS offsets must be non-negative integers" msg
  | _ -> Alcotest.fail "expected the offset to be rejected"

(* A RANGE offset of another type than the key has no order to search by:
   an int key shifted by a date is a query error, raised through the SQL
   front end like the other frame errors. *)
let test_sql_range_offset_type () =
  match
    Sql.query ~pool:Shared_pool.pool ~tables
      "select count(*) over (order by t range between current row and date '2020-01-01' following) \
       as c from tbl"
  with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "mismatch" "Frame: RANGE offset type does not match the ORDER BY key" msg
  | _ -> Alcotest.fail "expected the offset type to be rejected"

let test_sql_case_expression () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select case when x > 5 then 'high' when x > 2 then 'mid' else 'low' end as band, \
              abs(0 - t) as a, greatest(x, 5.0) as gr from tbl order by t limit 3"
  in
  Alcotest.(check (list string)) "bands" [ "mid"; "low"; "high" ] (col_strings r "band");
  Alcotest.(check (list string)) "abs" [ "1"; "2"; "3" ] (col_strings r "a");
  Alcotest.(check (list string)) "greatest" [ "5"; "5"; "6" ] (col_strings r "gr")

(* Ints and Floats in one result column make a Floats column whichever
   comes first in row order: CASE branches, a float LEAD/LAG default over
   an int argument, and Column.append of the two column types. *)
let test_sql_numeric_promotion () =
  let tables = [ ("t", Table.create [ ("i", Column.ints [| 1; 2; 3 |]) ]) ] in
  let floats what c =
    match Column.data c with
    | Column.Floats a -> Array.to_list a
    | _ -> Alcotest.failf "%s: not a Floats column" what
  in
  let check what expect sql =
    let c = Table.column (Sql.query ~pool:Shared_pool.pool ~tables sql) "c" in
    Alcotest.(check (list (float 0.))) what expect (floats what c)
  in
  check "int branch first" [ 1.; 0.5; 0.5 ] "select case when i > 1 then 0.5 else 1 end as c from t";
  check "float branch first" [ 0.5; 1.; 1. ] "select case when i < 2 then 0.5 else 1 end as c from t";
  let full = " over (order by i rows between unbounded preceding and unbounded following) as c from t" in
  check "lead default" [ 2.; 3.; 0.5 ] ("select lead(i, 1, 0.5)" ^ full);
  check "lag default" [ 0.5; 1.; 2. ] ("select lag(i, 1, 0.5)" ^ full);
  let ints = Column.ints [| 1; 2 |] and halves = Column.floats [| 0.5 |] in
  Alcotest.(check (list (float 0.))) "append ints, floats" [ 1.; 2.; 0.5 ]
    (floats "append ints, floats" (Column.append ints halves));
  Alcotest.(check (list (float 0.))) "append floats, ints" [ 0.5; 1.; 2. ]
    (floats "append floats, ints" (Column.append halves ints))

let test_sql_in_list_and_from_last () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select t, nth_value(x, 1 order by x) from last over \
         (order by t rows between 2 preceding and current row) as second_largest \
       from tbl where t in (1, 3, 4, 6) order by t"
  in
  Alcotest.(check (list string)) "filtered by IN" [ "1"; "3"; "4"; "6" ] (col_strings r "t");
  (* remaining rows in t order: x = 4, 6, 1, 5; frames of 3 rows; nth(1)
     FROM LAST = largest in frame *)
  Alcotest.(check (list string)) "from last picks the max" [ "4"; "6"; "6"; "6" ]
    (col_strings r "second_largest");
  let q = Parser.parse "select a from t where b not in (1, 2)" in
  match q.Ast.where with
  | Some (Ast.Unop ("not", Ast.Binop ("or", _, _))) -> ()
  | _ -> Alcotest.fail "NOT IN did not desugar"

let test_sql_mode () =
  let r =
    Sql.query ~pool:Shared_pool.pool ~tables
      "select mode(g) over (order by t rows between 2 preceding and current row) as m from tbl order by t"
  in
  (* g = 0 1 0 1 0 1 in t order; windows of <=3 rows; ties -> smallest value *)
  Alcotest.(check (list string)) "modes" [ "0"; "0"; "0"; "1"; "0"; "1" ] (col_strings r "m")

let test_sql_count_star_and_aliases () =
  let r = Sql.query ~pool:Shared_pool.pool ~tables "select t as time, count(*) over (order by t) as n, x + 1 as xp from tbl order by t limit 3" in
  Alcotest.(check (list string)) "names" [ "time"; "n"; "xp" ] (Table.column_names r);
  Alcotest.(check (list string)) "expr column" [ "5"; "3"; "7" ] (col_strings r "xp")

(* ------------------------------------------------------------------ *)
(* Concurrent callers                                                  *)
(* ------------------------------------------------------------------ *)

(* A string column densifies on its first sort and keeps the codes, so
   two queries sorting a fresh table at the same time race to publish
   them.  Both must return what a serial run returns, and the column must
   end up holding exactly one codes array. *)
let test_concurrent_first_sort () =
  let module Rng = Holistic_util.Rng in
  let module Bitset = Holistic_util.Bitset in
  let n = 20_000 in
  let rng = Rng.create 41 in
  let nulls = Bitset.create n in
  for i = 0 to n - 1 do
    if Rng.int rng 9 = 0 then Bitset.set nulls i
  done;
  let strs =
    Array.init n (fun _ -> Printf.sprintf "2026-%02d-%05d" (Rng.int rng 12) (Rng.int rng 3_000))
  in
  let g = Array.init n (fun _ -> Rng.int rng 7) in
  let x = Array.init n (fun i -> i) in
  let fresh () =
    Table.create
      [ ("g", Column.ints g); ("s", Column.make ~nulls (Column.Strings strs)); ("x", Column.ints x) ]
  in
  let q =
    "select s, g, rank() over (partition by g order by s desc) as r, row_number() over (order by \
     s nulls first, x) as rn from t order by s nulls last, x"
  in
  let run table = Sql.query ~pool:Shared_pool.pool ~tables:[ ("t", table) ] q in
  let serial_table = fresh () in
  let serial = run serial_table in
  let same label r =
    Alcotest.(check (list string))
      (label ^ ": columns") (Table.column_names serial) (Table.column_names r);
    List.iter
      (fun (name, c) ->
        let c' = Table.column r name in
        if compare (Column.data c, Column.null_mask c) (Column.data c', Column.null_mask c') <> 0 then
          Alcotest.failf "%s: column %s differs from the serial run" label name)
      (Table.columns serial)
  in
  for round = 1 to 4 do
    let label = Printf.sprintf "round %d" round in
    let table = fresh () in
    let ready = Atomic.make 0 in
    let start () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      run table
    in
    let other = Domain.spawn start in
    let mine = start () in
    let theirs = Domain.join other in
    same (label ^ ", calling domain") mine;
    same (label ^ ", spawned domain") theirs;
    let col = Table.column table "s" in
    let codes = Column.order_codes col in
    Alcotest.(check bool) (label ^ ": one published array") true (codes == Column.order_codes col);
    Alcotest.(check (array int)) (label ^ ": serial codes")
      (Column.order_codes (Table.column serial_table "s")) codes;
    Alcotest.(check int) (label ^ ": the column holds one codes array")
      (Column.footprint_bytes (Column.make ~nulls (Column.Strings strs))
      + (8 * Obj.reachable_words (Obj.repr (Some codes))))
      (Column.footprint_bytes col)
  done

let () =
  Alcotest.run "sql"
    [
      ( "parser",
        [
          Alcotest.test_case "flagship query (2.4)" `Quick test_parse_flagship;
          Alcotest.test_case "frame variants" `Quick test_parse_frame_variants;
          Alcotest.test_case "shorthand frame" `Quick test_parse_shorthand_frame;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error offsets" `Quick test_parse_offsets;
          QCheck_alcotest.to_alcotest print_parse_roundtrip;
        ] );
      ( "execution",
        [
          Alcotest.test_case "median matches API" `Quick test_sql_median_matches_api;
          Alcotest.test_case "partition + named window" `Quick test_sql_partition_and_named_window;
          Alcotest.test_case "where/order/limit" `Quick test_sql_where_filter_limit;
          Alcotest.test_case "interval RANGE frame" `Quick test_sql_interval_range;
          Alcotest.test_case "FILTER clause" `Quick test_sql_filter_clause;
          Alcotest.test_case "frame exclusion" `Quick test_sql_exclusion;
          Alcotest.test_case "algorithm override" `Quick test_sql_algorithm_override;
          Alcotest.test_case "semantic errors" `Quick test_sql_semantic_errors;
          Alcotest.test_case "invalid offset over no rows" `Quick test_sql_offset_over_no_rows;
          Alcotest.test_case "RANGE offset of another type" `Quick test_sql_range_offset_type;
          Alcotest.test_case "count(*) and aliases" `Quick test_sql_count_star_and_aliases;
          Alcotest.test_case "CASE / scalar functions" `Quick test_sql_case_expression;
          Alcotest.test_case "Int/Float promotion in any order" `Quick test_sql_numeric_promotion;
          Alcotest.test_case "IN lists / NTH_VALUE FROM LAST" `Quick test_sql_in_list_and_from_last;
          Alcotest.test_case "windowed MODE" `Quick test_sql_mode;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "first string sort from two domains" `Quick test_concurrent_first_sort ] );
    ]
