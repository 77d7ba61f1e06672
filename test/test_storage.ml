open Holistic_storage
module Bitset = Holistic_util.Bitset

let bits_list b =
  let l = ref [] in
  Bitset.iter_set b (fun i -> l := i :: !l);
  !l

let v = Alcotest.testable (fun fmt x -> Format.pp_print_string fmt (Value.to_string x)) Value.equal

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_compare () =
  let c = Value.compare_sql ~nulls_last:true in
  Alcotest.(check bool) "int < int" true (c (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "cross numeric" true (c (Value.Int 2) (Value.Float 1.5) > 0);
  Alcotest.(check bool) "cross numeric equal" true (c (Value.Int 2) (Value.Float 2.0) = 0);
  Alcotest.(check bool) "null last" true (c Value.Null (Value.Int 5) > 0);
  Alcotest.(check bool) "null first"
    true
    (Value.compare_sql ~nulls_last:false Value.Null (Value.Int 5) < 0);
  Alcotest.(check bool) "null = null" true (c Value.Null Value.Null = 0);
  Alcotest.(check bool) "strings" true (c (Value.String "abc") (Value.String "abd") < 0)

let test_equal_hash () =
  Alcotest.(check bool) "int/float equal" true (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "hash compatible" true
    (Value.hash (Value.Int 3) = Value.hash (Value.Float 3.0));
  Alcotest.(check bool) "null equal null (grouping)" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "null <> value" false (Value.equal Value.Null (Value.Int 0))

let test_arithmetic () =
  Alcotest.check v "int add" (Value.Int 5) (Value.add (Value.Int 2) (Value.Int 3));
  Alcotest.check v "promotion" (Value.Float 5.5) (Value.add (Value.Int 2) (Value.Float 3.5));
  Alcotest.check v "null propagation" Value.Null (Value.add Value.Null (Value.Int 1));
  Alcotest.check v "date - date" (Value.Int 31)
    (Value.sub (Value.Date (Value.date_of_ymd 2020 2 1)) (Value.Date (Value.date_of_ymd 2020 1 1)));
  Alcotest.check v "div by zero is NULL" Value.Null (Value.div (Value.Int 1) (Value.Int 0));
  Alcotest.check_raises "type error" (Invalid_argument "Value.add: incompatible operands (4, 2)")
    (fun () -> ignore (Value.add (Value.String "a") (Value.Int 1)))

let test_calendar () =
  Alcotest.(check int) "epoch" 0 (Value.date_of_ymd 1970 1 1);
  Alcotest.(check int) "day after" 1 (Value.date_of_ymd 1970 1 2);
  let d = Value.date_of_ymd 1996 2 29 in
  Alcotest.(check (triple int int int)) "leap roundtrip" (1996, 2, 29) (Value.ymd_of_date d);
  Alcotest.(check string) "iso format" "1996-02-29" (Value.date_to_string d);
  (* exhaustive roundtrip over several years including leap boundaries *)
  let start = Value.date_of_ymd 1999 1 1 in
  for day = start to start + (366 * 4) do
    let y, m, dd = Value.ymd_of_date day in
    Alcotest.(check int) "roundtrip" day (Value.date_of_ymd y m dd)
  done

let test_add_months () =
  let d = Value.date_of_ymd 2020 1 31 in
  Alcotest.(check (triple int int int)) "clamp to feb 29" (2020, 2, 29)
    (Value.ymd_of_date (Value.add_months d 1));
  Alcotest.(check (triple int int int)) "non-leap clamp" (2021, 2, 28)
    (Value.ymd_of_date (Value.add_months d 13));
  Alcotest.(check (triple int int int)) "backwards across year" (2019, 11, 30)
    (Value.ymd_of_date (Value.add_months (Value.date_of_ymd 2020 5 30) (-6)));
  let interval = Value.Interval { months = 1; days = 0 } in
  Alcotest.check v "date minus 1 month"
    (Value.Date (Value.date_of_ymd 2019 12 31))
    (Value.sub (Value.Date d) interval)

(* ------------------------------------------------------------------ *)
(* Columns                                                             *)
(* ------------------------------------------------------------------ *)

let test_column_nulls () =
  let nulls = Bitset.create 3 in
  Bitset.set nulls 1;
  let c = Column.make ~nulls (Column.Ints [| 10; 0; 30 |]) in
  Alcotest.check v "non-null" (Value.Int 10) (Column.get c 0);
  Alcotest.check v "null row" Value.Null (Column.get c 1);
  Alcotest.(check bool) "is_null" true (Column.is_null c 1);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Column.make: null mask length mismatch")
    (fun () -> ignore (Column.make ~nulls (Column.Ints [| 1 |])))

let test_of_values () =
  let c = Column.of_values [| Value.Int 1; Value.Null; Value.Int 3 |] in
  Alcotest.check v "roundtrip null" Value.Null (Column.get c 1);
  Alcotest.check v "roundtrip value" (Value.Int 3) (Column.get c 2);
  Alcotest.check_raises "mixed types" (Invalid_argument "Column.of_values: mixed types")
    (fun () -> ignore (Column.of_values [| Value.Int 1; Value.String "x" |]))

let test_distinct_ids () =
  let c = Column.floats [| 1.5; 2.5; 1.5; 3.5; 2.5 |] in
  let ids = Column.distinct_ids c in
  Alcotest.(check bool) "equal values share ids" true (ids.(0) = ids.(2) && ids.(1) = ids.(4));
  Alcotest.(check bool) "distinct values differ" true
    (ids.(0) <> ids.(1) && ids.(0) <> ids.(3) && ids.(1) <> ids.(3));
  let ints = Column.ints [| 7; 7; 9 |] in
  Alcotest.(check (array int)) "int fast path is raw values" [| 7; 7; 9 |]
    (Column.distinct_ids ints);
  Alcotest.(check bool) "ids ascend with the value" true (ids.(0) < ids.(1) && ids.(1) < ids.(3));
  let strs = Column.of_values [| Value.String "b"; Value.Null; Value.String "a"; Value.String "b" |] in
  let ids = Column.distinct_ids strs in
  Alcotest.(check bool) "string ids ascend, NULL lowest" true
    (ids.(1) = min_int && ids.(1) < ids.(2) && ids.(2) < ids.(0) && ids.(0) = ids.(3));
  (* NULL's id never merges with a value's, at either end of the range *)
  List.iter
    (fun (label, make) ->
      let nulls = Bitset.create 6 in
      Bitset.set nulls 2;
      let ids = Column.distinct_ids (Column.make ~nulls (make [| min_int; 5; 0; max_int; min_int; max_int |])) in
      Alcotest.(check bool) (label ^ ": NULL apart from min_int") true (ids.(2) <> ids.(0));
      Alcotest.(check bool) (label ^ ": NULL lowest, then ascending") true
        (ids.(2) < ids.(0) && ids.(0) < ids.(1) && ids.(1) < ids.(3));
      Alcotest.(check bool) (label ^ ": equal values share ids") true (ids.(0) = ids.(4) && ids.(3) = ids.(5));
      Alcotest.(check (array int)) (label ^ ": max_int without min_int keeps raw values")
        [| 1; 5; min_int; max_int; 1; max_int |]
        (Column.distinct_ids (Column.make ~nulls (make [| 1; 5; 0; max_int; 1; max_int |]))))
    [ ("ints", fun a -> Column.Ints a); ("dates", fun a -> Column.Dates a) ]

(* [Column.append]'s NULL mask against the per-row definition: lengths
   off a multiple of 8, either side or both without a mask. A side is its
   per-row NULL flags and whether it carries a mask at all. *)
let append_nulls =
  let side = QCheck.(pair (list_of_size Gen.(int_bound 40) bool) bool) in
  QCheck.Test.make ~name:"append NULL mask matches per-row" ~count:500 (QCheck.pair side side)
    (fun ((fa, ma), (fb, mb)) ->
      let column flags masked =
        let n = List.length flags in
        let nulls =
          if masked then begin
            let m = Bitset.create n in
            List.iteri (fun i null -> if null then Bitset.set m i) flags;
            Some m
          end
          else None
        in
        Column.make ?nulls (Column.Ints (Array.init n Fun.id))
      in
      let a = column fa ma and b = column fb mb in
      let c = Column.append a b in
      let na = Column.length a in
      Column.length c = na + Column.length b
      && Option.is_some (Column.null_mask c) = (ma || mb)
      && List.for_all
           (fun i -> Column.is_null c i = if i < na then Column.is_null a i else Column.is_null b (i - na))
           (List.init (Column.length c) Fun.id)
      (* no stray bit past the last row *)
      && Option.fold ~none:true
           ~some:(fun m ->
             let nulls flags masked = if masked then List.length (List.filter Fun.id flags) else 0 in
             Bitset.count m = nulls fa ma + nulls fb mb)
           (Column.null_mask c))

(* A column without order codes weighs what the memo-less layout did: a
   two-field record over the same data and NULL mask.  Codes, once
   computed (or gathered by [take]), count on top. *)
let memo_less c = (Column.data c, Column.null_mask c)

let test_footprint_memo () =
  Alcotest.(check int) "three-int column" 72 (Column.footprint_bytes (Column.ints [| 1; 2; 3 |]));
  let nulls = Bitset.create 5 in
  Bitset.set nulls 2;
  let c = Column.make ~nulls (Column.Strings [| "pear"; "fig"; ""; "pear"; "apple" |]) in
  let before = 8 * Obj.reachable_words (Obj.repr (memo_less c)) in
  Alcotest.(check int) "column without codes" before (Column.footprint_bytes c);
  let codes = Option.get (Column.order_codes c) in
  let memo = 8 * Obj.reachable_words (Obj.repr (Some codes)) in
  Alcotest.(check int) "codes count once computed" (before + memo) (Column.footprint_bytes c);
  let t = Column.take c [| 4; 0 |] in
  (* gathered codes: a [Some] box (2 words) over a two-element array (3) *)
  Alcotest.(check int) "take carries the codes"
    ((8 * Obj.reachable_words (Obj.repr (memo_less t))) + (8 * 5))
    (Column.footprint_bytes t);
  let a = Column.append c c in
  Alcotest.(check int) "append starts without codes"
    (8 * Obj.reachable_words (Obj.repr (memo_less a)))
    (Column.footprint_bytes a)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let test_table () =
  let t = Table.create [ ("a", Column.ints [| 1; 2 |]); ("b", Column.strings [| "x"; "y" |]) ] in
  Alcotest.(check int) "rows" 2 (Table.nrows t);
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Table.column_names t);
  Alcotest.check v "cell" (Value.String "y") (Column.get (Table.column t "b") 1);
  Alcotest.check_raises "unknown column" Not_found (fun () -> ignore (Table.column t "zz"));
  (* a view's rows end at its length, whatever its buffer holds past it *)
  let g = Table.gather ~room:true t [| 1; 0 |] in
  ignore (Table.append g t);
  Alcotest.check_raises "gather past the view's length" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Table.gather g [| 0; 2 |]));
  Alcotest.check_raises "ragged" (Invalid_argument "Table.create: column \"b\" has 1 rows, expected 2")
    (fun () -> ignore (Table.create [ ("a", Column.ints [| 1; 2 |]); ("b", Column.ints [| 1 |]) ]));
  Alcotest.check_raises "duplicate name" (Invalid_argument "Table.create: duplicate column name")
    (fun () -> ignore (Table.create [ ("a", Column.ints [| 1 |]); ("a", Column.ints [| 2 |]) ]))

let test_table_footprint_memo () =
  let s = Column.strings [| "b"; "a"; "b" |] in
  let t = Table.create [ ("a", Column.ints [| 1; 2; 3 |]); ("s", s) ] in
  let memo_less_table =
    (List.map (fun (n, c) -> (n, memo_less c)) (Table.columns t), Table.nrows t)
  in
  let before = 8 * Obj.reachable_words (Obj.repr memo_less_table) in
  Alcotest.(check int) "table without codes" before (Table.footprint_bytes t);
  let codes = Option.get (Column.order_codes s) in
  Alcotest.(check int) "codes count once computed"
    (before + (8 * Obj.reachable_words (Obj.repr (Some codes))))
    (Table.footprint_bytes t)

let int_rows t name = Array.init (Table.nrows t) (fun i -> Column.get (Table.column t name) i)

let same_buffer a b =
  match (Column.buffer a, Column.buffer b) with
  | Column.Ints x, Column.Ints y -> x == y
  | Column.Strings x, Column.Strings y -> x == y
  | _ -> false

(* A table owns its buffers' room only while it is the longest table over
   them: the first append from it writes in place, a second append from
   it copies, and every table keeps reading its own rows. *)
let test_append_ownership () =
  let tbl xs =
    let nulls = Bitset.create (Array.length xs) in
    Array.iteri (fun i x -> if x < 0 then Bitset.set nulls i) xs;
    Table.create
      [ ("i", Column.make ~nulls (Column.Ints xs)); ("s", Column.strings (Array.map string_of_int xs)) ]
  in
  let rows t = Array.map Value.to_string (int_rows t "i") in
  let check label expected t =
    Alcotest.(check (array string)) label expected (rows t);
    Alcotest.(check int) (label ^ ": NULL count")
      (Array.fold_left (fun k v -> if v = "NULL" then k + 1 else k) 0 expected)
      (match Column.null_mask (Table.column t "i") with Some m -> Bitset.count m | None -> 0)
  in
  let fresh = tbl [| 1; -2; 3 |] in
  let base = Table.append fresh (tbl [| 4 |]) in
  Alcotest.(check bool) "a table without room copies" false
    (same_buffer (Table.column fresh "i") (Table.column base "i"));
  let a = Table.append base (tbl [| -5 |]) in
  let b = Table.append base (tbl [| 6 |]) in
  let a' = Table.append a (tbl [| 7; -8 |]) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ": the first append writes in place") true
        (same_buffer (Table.column base name) (Table.column a name));
      Alcotest.(check bool) (name ^ ": the second one copies") false
        (same_buffer (Table.column base name) (Table.column b name));
      Alcotest.(check bool) (name ^ ": the newest table owns the room") true
        (same_buffer (Table.column a name) (Table.column a' name)))
    [ "i"; "s" ];
  check "the older table" [| "1"; "NULL"; "3"; "4" |] base;
  check "the first append" [| "1"; "NULL"; "3"; "4"; "NULL" |] a;
  check "the second append" [| "1"; "NULL"; "3"; "4"; "6" |] b;
  check "the append after it" [| "1"; "NULL"; "3"; "4"; "NULL"; "7"; "NULL" |] a';
  Alcotest.(check (array string)) "data is exact" [| "1"; "-2"; "3"; "4"; "-5" |]
    (match Column.data (Table.column a "s") with Column.Strings x -> x | _ -> [||])

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let table =
  Table.create
    [
      ("x", Column.ints [| 1; 2; 3 |]);
      ("y", Column.of_values [| Value.Float 1.5; Value.Null; Value.Float 3.0 |]);
    ]

let test_expr_eval () =
  let e = Expr.(Add (Col "x", Const (Value.Int 10))) in
  Alcotest.check v "add" (Value.Int 12) (Expr.eval table e 1);
  let cmp = Expr.(Lt (Col "x", Const (Value.Int 3))) in
  Alcotest.check v "lt true" (Value.Bool true) (Expr.eval table cmp 0);
  Alcotest.check v "lt false" (Value.Bool false) (Expr.eval table cmp 2);
  let nullcmp = Expr.(Gt (Col "y", Const (Value.Float 0.0))) in
  Alcotest.check v "null comparison" Value.Null (Expr.eval table nullcmp 1)

let test_three_valued_logic () =
  let null_b = Expr.(Gt (Col "y", Const (Value.Float 0.0))) in
  let tru = Expr.Const (Value.Bool true) in
  let fls = Expr.Const (Value.Bool false) in
  Alcotest.check v "null AND false = false" (Value.Bool false)
    (Expr.eval table (Expr.And (null_b, fls)) 1);
  Alcotest.check v "null AND true = null" Value.Null (Expr.eval table (Expr.And (null_b, tru)) 1);
  Alcotest.check v "null OR true = true" (Value.Bool true)
    (Expr.eval table (Expr.Or (null_b, tru)) 1);
  Alcotest.check v "null OR false = null" Value.Null (Expr.eval table (Expr.Or (null_b, fls)) 1);
  Alcotest.check v "NOT null = null" Value.Null (Expr.eval table (Expr.Not null_b) 1);
  Alcotest.check v "is_null" (Value.Bool true) (Expr.eval table (Expr.Is_null (Expr.Col "y")) 1);
  Alcotest.(check bool) "to_bool null is false" false (Expr.to_bool Value.Null)

let test_case_abs_extremes () =
  let case =
    Expr.Case
      ( [ (Expr.Lt (Expr.Col "x", Expr.Const (Value.Int 2)), Expr.Const (Value.String "small")) ],
        Some (Expr.Const (Value.String "big")) )
  in
  Alcotest.check v "case match" (Value.String "small") (Expr.eval table case 0);
  Alcotest.check v "case else" (Value.String "big") (Expr.eval table case 2);
  let no_else = Expr.Case ([ (Expr.Const (Value.Bool false), Expr.Const (Value.Int 1)) ], None) in
  Alcotest.check v "case falls through to NULL" Value.Null (Expr.eval table no_else 0);
  Alcotest.check v "abs" (Value.Int 3) (Expr.eval table (Expr.Abs (Expr.Neg (Expr.Col "x"))) 2);
  Alcotest.check v "greatest ignores null" (Value.Float 1.5)
    (Expr.eval table (Expr.Greatest [ Expr.Col "y"; Expr.Const Value.Null ]) 0);
  Alcotest.check v "least" (Value.Int 1)
    (Expr.eval table (Expr.Least [ Expr.Col "x"; Expr.Const (Value.Int 5) ]) 0);
  Alcotest.check v "greatest all null" Value.Null
    (Expr.eval table (Expr.Greatest [ Expr.Const Value.Null ]) 0)

let test_mod () =
  let e = Expr.(Mod (Col "x", Const (Value.Int 2))) in
  Alcotest.check v "mod" (Value.Int 1) (Expr.eval table e 2);
  Alcotest.check v "mod by zero" Value.Null
    (Expr.eval table Expr.(Mod (Col "x", Const (Value.Int 0))) 0)

(* [Expr.select] against the row-at-a-time loop, [Expr.compile] then
   [Expr.to_bool] row by row, on random predicate trees: comparisons of
   a column with a constant in both operand orders (matching and mixed
   types, NULL constants), NULL tests, AND / OR / NOT, bare boolean and
   non-boolean leaves, and arithmetic operands that take the row-at-a-time
   fallback and may raise. The columns hold NULLs, NaN, [+-0.], [+-inf],
   [min_int] / [max_int], [""] and ints beyond 2^53 that meet Float
   constants; they are views with room, some over a buffer a longer table
   has written past their length, and the rows are either all of them or
   a random multiset of row ids. Both sides must give the same rows, or
   raise the same exception. *)
let test_select_differential () =
  let rng = Holistic_util.Rng.create 20261020 in
  let module Rng = Holistic_util.Rng in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let big = 1 lsl 53 in
  let ints = [| min_int; max_int; 0; -1; 1; 2; big; big + 1; -big - 1; 7 |] in
  let floats =
    [| Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 1.5; -2.0; 2.0; float_of_int big |]
  in
  let strings = [| ""; "a"; "ab"; "b" |] in
  let dates = [| 0; 1; -1; 10_000 |] in
  let nulls n =
    if Rng.bool rng then None
    else Some (Bitset.init n (fun _ -> Rng.int rng 4 = 0))
  in
  let gen_table n =
    Table.create
      [
        ("i", Column.make ?nulls:(nulls n) (Column.Ints (Array.init n (fun _ -> pick ints))));
        ("f", Column.make ?nulls:(nulls n) (Column.Floats (Array.init n (fun _ -> pick floats))));
        ("s", Column.make ?nulls:(nulls n) (Column.Strings (Array.init n (fun _ -> pick strings))));
        ("b", Column.make ?nulls:(nulls n) (Column.Bools (Array.init n (fun _ -> Rng.bool rng))));
        ("d", Column.make ?nulls:(nulls n) (Column.Dates (Array.init n (fun _ -> pick dates))));
      ]
  in
  let const () =
    match Rng.int rng 7 with
    | 0 -> Value.Null
    | 1 | 2 -> Value.Int (pick ints)
    | 3 -> Value.Float (pick floats)
    | 4 -> Value.String (pick strings)
    | 5 -> Value.Bool (Rng.bool rng)
    | _ -> Value.Date (pick dates)
  in
  let column () = Expr.Col (pick [| "i"; "f"; "s"; "b"; "d" |]) in
  let operand () =
    match Rng.int rng 5 with
    | 0 -> Expr.Add (column (), Expr.Const (Value.Int 1))
    | 1 -> Expr.Neg (Expr.Const (const ()))
    | _ -> column ()
  in
  let cmp a b =
    match Rng.int rng 6 with
    | 0 -> Expr.Eq (a, b)
    | 1 -> Expr.Ne (a, b)
    | 2 -> Expr.Lt (a, b)
    | 3 -> Expr.Le (a, b)
    | 4 -> Expr.Gt (a, b)
    | _ -> Expr.Ge (a, b)
  in
  let rec pred depth =
    match Rng.int rng (if depth = 0 then 7 else 10) with
    | 0 | 1 | 2 -> cmp (operand ()) (Expr.Const (const ()))
    | 3 -> cmp (Expr.Const (const ())) (operand ())
    | 4 -> if Rng.bool rng then Expr.Is_null (operand ()) else Expr.Is_not_null (operand ())
    | 5 -> column ()
    | 6 -> if Rng.bool rng then cmp (column ()) (column ()) else Expr.Const (const ())
    | 7 -> Expr.And (pred (depth - 1), pred (depth - 1))
    | 8 -> Expr.Or (pred (depth - 1), pred (depth - 1))
    | _ -> Expr.Not (pred (depth - 1))
  in
  let outcome f = match f () with bits -> Ok (List.rev (bits_list bits)) | exception e -> Error e in
  for case = 1 to 300 do
    let n = Rng.int rng 40 in
    let base = gen_table n in
    (* a view with room, and sometimes one whose buffer a longer table
       has since written past its length *)
    let table = Table.gather ~room:true base (Array.init n Fun.id) in
    if Rng.bool rng then ignore (Table.append table (gen_table (1 + Rng.int rng 5)));
    let rows =
      if n = 0 || Rng.bool rng then None
      else Some (Array.init (Rng.int rng (2 * n)) (fun _ -> Rng.int rng n))
    in
    let ids = match rows with None -> Array.init n Fun.id | Some r -> r in
    for _ = 1 to 20 do
      let e = pred 3 in
      let expected =
        outcome (fun () ->
            let f = Expr.compile table e in
            Bitset.init (Array.length ids) (fun j -> Expr.to_bool (f ids.(j))))
      in
      let actual = outcome (fun () -> Expr.select table ?rows e) in
      let show = function
        | Ok l -> String.concat "," (List.map string_of_int l)
        | Error e -> Printexc.to_string e
      in
      if expected <> actual then
        Alcotest.failf "case %d, %s%s: select gives [%s], row at a time [%s]" case
          (Expr.to_string e)
          (if rows = None then "" else " over rows")
          (show actual) (show expected)
    done
  done

(* A non-boolean predicate is the same error through WHERE and through a
   session eviction. *)
let test_select_non_boolean () =
  let module Sql = Holistic_sql.Sql in
  let pool = Shared_pool.pool in
  let t () = Table.create [ ("k", Column.ints [| 1; 2; 3 |]) ] in
  List.iter
    (fun (pred, msg) ->
      let err = Invalid_argument msg in
      Alcotest.check_raises ("where " ^ pred) err (fun () ->
          ignore (Sql.query ~pool ~tables:[ ("t", t ()) ] ("select k from t where " ^ pred)));
      let session = Sql.session_create ~pool (t ()) in
      Alcotest.check_raises ("evict " ^ pred) err (fun () -> Sql.session_evict session pred);
      Alcotest.(check int) ("nothing evicted by " ^ pred) 3 (Table.nrows (Sql.session_table session)))
    [
      ("k + 1", "Expr.to_bool: non-boolean value");
      ("k = 1 or not k", "Expr: NOT on non-boolean");
    ]

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_roundtrip () =
  let t =
    Table.create
      [
        ("i", Column.of_values [| Value.Int 1; Value.Null; Value.Int (-3) |]);
        ("f", Column.floats [| 1.5; 0.1; 1e300 |]);
        ("s", Column.strings [| "plain"; "with,comma"; "with \"quotes\"\nand newline" |]);
        ("d", Column.dates [| Value.date_of_ymd 1996 2 29; 0; 10_000 |]);
        ("b", Column.of_values [| Value.Bool true; Value.Bool false; Value.Null |]);
      ]
  in
  let path = Filename.temp_file "holistic" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save path t;
      let t' = Csv.load path in
      Alcotest.(check (list string)) "columns" (Table.column_names t) (Table.column_names t');
      Alcotest.(check int) "rows" (Table.nrows t) (Table.nrows t');
      for i = 0 to Table.nrows t - 1 do
        List.iter2
          (fun (n1, c1) (_, c2) ->
            let a = Column.get c1 i and b = Column.get c2 i in
            if not (Value.equal a b || (Value.is_null a && Value.is_null b)) then
              Alcotest.failf "cell %s[%d]: %s vs %s" n1 i (Value.to_string a) (Value.to_string b))
          (Table.columns t) (Table.columns t')
      done)

let test_csv_errors () =
  let parse s =
    let path = Filename.temp_file "holistic" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let out = open_out path in
        output_string out s;
        close_out out;
        Csv.load path)
  in
  (match parse "a:int\n1\n2\n" with
  | t -> Alcotest.(check int) "valid parse" 2 (Table.nrows t)
  | exception _ -> Alcotest.fail "valid input rejected");
  (match parse "a\n1\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "untyped header accepted");
  match parse "a:blob\nx\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown type accepted"

(* ------------------------------------------------------------------ *)
(* Sort specs                                                          *)
(* ------------------------------------------------------------------ *)

let test_comparator () =
  let t =
    Table.create
      [
        ("a", Column.ints [| 2; 1; 2; 1 |]);
        ("b", Column.of_values [| Value.Int 9; Value.Null; Value.Int 7; Value.Int 8 |]);
      ]
  in
  let cmp = Sort_spec.comparator t [ Sort_spec.asc (Expr.Col "a"); Sort_spec.desc (Expr.Col "b") ] in
  (* (1, NULL), (1, 8), (2, 9), (2, 7): NULLS FIRST for DESC by default *)
  let order = Holistic_sort.Introsort.sort_indices_by 4 ~cmp in
  Alcotest.(check (array int)) "multi-key order" [| 1; 3; 0; 2 |] order

let () =
  Alcotest.run "storage"
    [
      ( "value",
        [
          Alcotest.test_case "comparison" `Quick test_compare;
          Alcotest.test_case "equality and hashing" `Quick test_equal_hash;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "calendar" `Quick test_calendar;
          Alcotest.test_case "add_months" `Quick test_add_months;
        ] );
      ( "column",
        [
          Alcotest.test_case "null masks" `Quick test_column_nulls;
          Alcotest.test_case "of_values" `Quick test_of_values;
          Alcotest.test_case "distinct ids" `Quick test_distinct_ids;
          QCheck_alcotest.to_alcotest append_nulls;
          Alcotest.test_case "footprint and order codes" `Quick test_footprint_memo;
        ] );
      ( "table",
        [
          Alcotest.test_case "create/access" `Quick test_table;
          Alcotest.test_case "footprint and order codes" `Quick test_table_footprint_memo;
          Alcotest.test_case "append owns the room once" `Quick test_append_ownership;
        ] );
      ( "expr",
        [
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
          Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
          Alcotest.test_case "mod" `Quick test_mod;
          Alcotest.test_case "case/abs/greatest/least" `Quick test_case_abs_extremes;
          Alcotest.test_case "select equals the row-at-a-time predicate" `Quick
            test_select_differential;
          Alcotest.test_case "non-boolean predicates" `Quick test_select_non_boolean;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip (incl. quoted newlines)" `Quick test_csv_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_csv_errors;
        ] );
      ( "sort_spec",
        [
          Alcotest.test_case "comparator" `Quick test_comparator;
        ] );
    ]
