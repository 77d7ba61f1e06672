(* Direct unit tests of per-row frame-bound computation (Frame module);
   end-to-end frame semantics are additionally covered by the window oracle
   in test_window.ml. *)

open Holistic_storage
open Holistic_window

let mk_table () =
  Table.create
    [
      ("t", Column.ints [| 10; 20; 20; 30; 40; 50 |]);
      ("v", Column.of_values [| Value.Int 1; Value.Int 2; Value.Null; Value.Int 4; Value.Null; Value.Int 6 |]);
      ("off", Column.ints [| 0; 1; 2; 3; 0; 1 |]);
    ]

let rows = [| 0; 1; 2; 3; 4; 5 |] (* already in t order *)

let bounds frame_spec order =
  let table = mk_table () in
  let spec = Window_spec.over ~order_by:order ~frame:frame_spec () in
  let f = Frame.compute table ~spec ~rows in
  Array.init 6 (fun r -> (Frame.start_ f r, Frame.end_ f r))

let t_asc = [ Sort_spec.asc (Expr.Col "t") ]

let ip = Alcotest.(pair int int)

let test_rows_constant () =
  let b = bounds (Window_spec.rows_between (Window_spec.preceding 1) (Window_spec.following 1)) t_asc in
  Alcotest.(check (array ip)) "sliding rows"
    [| (0, 2); (0, 3); (1, 4); (2, 5); (3, 6); (4, 6) |]
    b

let test_rows_expression_bounds () =
  (* start = r - off(r): per-row offsets *)
  let b =
    bounds (Window_spec.rows_between (Window_spec.Preceding (Expr.Col "off")) Window_spec.Current_row) t_asc
  in
  Alcotest.(check (array ip)) "per-row offsets"
    [| (0, 1); (0, 2); (0, 3); (0, 4); (4, 5); (4, 6) |]
    b

let test_rows_negative_offset_rejected () =
  let table = mk_table () in
  let spec =
    Window_spec.over ~order_by:t_asc
      ~frame:
        (Window_spec.rows_between
           (Window_spec.Preceding (Expr.Const (Value.Int (-1))))
           Window_spec.Current_row)
      ()
  in
  Alcotest.check_raises "negative offset" (Invalid_argument "Frame: negative frame offset")
    (fun () -> ignore (Frame.compute table ~spec ~rows))

let test_range_value_bounds () =
  (* t values: 10 20 20 30 40 50; RANGE 10 preceding .. current row *)
  let b = bounds (Window_spec.range_between (Window_spec.preceding 10) Window_spec.Current_row) t_asc in
  Alcotest.(check (array ip)) "value windows"
    [| (0, 1); (0, 3); (0, 3); (1, 4); (3, 5); (4, 6) |]
    b

let test_range_current_row_peers () =
  (* CURRENT ROW end includes the whole peer group (the two 20s) *)
  let b = bounds (Window_spec.range_between Window_spec.Unbounded_preceding Window_spec.Current_row) t_asc in
  Alcotest.(check (array ip)) "peer-extended frames"
    [| (0, 1); (0, 3); (0, 3); (0, 4); (0, 5); (0, 6) |]
    b

let test_range_desc () =
  let t_desc = [ Sort_spec.desc (Expr.Col "t") ] in
  let rows_desc = [| 5; 4; 3; 2; 1; 0 |] in
  let table = mk_table () in
  let spec =
    Window_spec.over ~order_by:t_desc
      ~frame:(Window_spec.range_between (Window_spec.preceding 10) Window_spec.Current_row)
      ()
  in
  let f = Frame.compute table ~spec ~rows:rows_desc in
  (* order: 50 40 30 20 20 10; "10 preceding" = values up to 10 larger *)
  Alcotest.(check (array ip)) "descending range"
    [| (0, 1); (0, 2); (1, 3); (2, 5); (2, 5); (3, 6) |]
    (Array.init 6 (fun r -> (Frame.start_ f r, Frame.end_ f r)))

let test_range_nulls_peer_group () =
  (* order by v asc: values 1 2 4 6 NULL NULL (nulls last); offset bounds on
     the null rows frame their peer group *)
  let table = mk_table () in
  let v_asc = [ Sort_spec.asc (Expr.Col "v") ] in
  let rows_v = [| 0; 1; 3; 5; 2; 4 |] in
  let spec =
    Window_spec.over ~order_by:v_asc
      ~frame:(Window_spec.range_between (Window_spec.preceding 1) Window_spec.Current_row)
      ()
  in
  let f = Frame.compute table ~spec ~rows:rows_v in
  Alcotest.(check ip) "null row frames its null peers" (4, 6)
    (Frame.start_ f 4, Frame.end_ f 4);
  Alcotest.(check ip) "non-null row ignores nulls" (0, 2) (Frame.start_ f 1, Frame.end_ f 1)

let test_groups_mode () =
  let b =
    bounds (Window_spec.groups_between (Window_spec.preceding 1) Window_spec.Current_row) t_asc
  in
  (* groups: {10} {20,20} {30} {40} {50} *)
  Alcotest.(check (array ip)) "group windows"
    [| (0, 1); (0, 3); (0, 3); (1, 4); (3, 5); (4, 6) |]
    b

let test_exclusion_ranges () =
  let table = mk_table () in
  let mk exclusion =
    let spec =
      Window_spec.over ~order_by:t_asc
        ~frame:
          (Window_spec.rows_between ~exclusion Window_spec.Unbounded_preceding
             Window_spec.Unbounded_following)
        ()
    in
    Frame.compute table ~spec ~rows
  in
  let f = mk Window_spec.Exclude_current_row in
  Alcotest.(check (array ip)) "current row excluded" [| (0, 2); (3, 6) |] (Frame.ranges f 2);
  Alcotest.(check int) "covered" 5 (Frame.covered f 2);
  let f = mk Window_spec.Exclude_group in
  (* rows 1 and 2 are peers (t=20) *)
  Alcotest.(check (array ip)) "group excluded" [| (0, 1); (3, 6) |] (Frame.ranges f 1);
  let f = mk Window_spec.Exclude_ties in
  (* peers of row 1 are {1, 2}; dropping the ties leaves 0,1,3,4,5 with the
     pieces around the kept row coalescing into (0,2) *)
  Alcotest.(check (array ip)) "ties excluded, self kept" [| (0, 2); (3, 6) |] (Frame.ranges f 1);
  let f = mk Window_spec.Exclude_no_others in
  Alcotest.(check (array ip)) "no exclusion" [| (0, 6) |] (Frame.ranges f 1)

let test_exclusion_at_edges () =
  let table = mk_table () in
  let spec =
    Window_spec.over ~order_by:t_asc
      ~frame:
        (Window_spec.rows_between ~exclusion:Window_spec.Exclude_current_row
           Window_spec.Current_row (Window_spec.following 2))
      ()
  in
  let f = Frame.compute table ~spec ~rows in
  (* frame [r, r+3) minus r = [r+1, r+3) — a hole at the edge leaves one range *)
  Alcotest.(check (array ip)) "edge hole" [| (1, 3) |] (Frame.ranges f 0);
  Alcotest.(check (array ip)) "last row: empty" [||] (Frame.ranges f 5)

(* Every exclusion mode against a position-set oracle: per-row offsets
   (so frames jump and may be empty) over tables with long peer groups.
   [ranges] must be the maximal runs of the frame's positions outside its
   holes, and [covered] their count. *)
let test_exclusion_oracle () =
  let rng = Holistic_util.Rng.create 23 in
  let modes =
    Window_spec.[ Exclude_no_others; Exclude_current_row; Exclude_group; Exclude_ties ]
  in
  for _ = 1 to 60 do
    let n = 1 + Holistic_util.Rng.int rng 12 in
    let t = Array.make n 0 in
    for i = 1 to n - 1 do
      t.(i) <- t.(i - 1) + Holistic_util.Rng.int rng 2
    done;
    let offs () = Array.init n (fun _ -> Holistic_util.Rng.int rng 5) in
    let table =
      Table.create [ ("t", Column.ints t); ("a", Column.ints (offs ())); ("b", Column.ints (offs ())) ]
    in
    let rows = Array.init n (fun i -> i) in
    List.iter
      (fun exclusion ->
        let spec =
          Window_spec.over ~order_by:t_asc
            ~frame:
              (Window_spec.rows_between ~exclusion
                 (Window_spec.Preceding (Expr.Col "a"))
                 (Window_spec.Following (Expr.Col "b")))
            ()
        in
        let f = Frame.compute table ~spec ~rows in
        for r = 0 to n - 1 do
          let in_hole p =
            let peer = p >= Frame.peer_start f r && p < Frame.peer_end f r in
            match exclusion with
            | Window_spec.Exclude_no_others -> false
            | Window_spec.Exclude_current_row -> p = r
            | Window_spec.Exclude_group -> peer
            | Window_spec.Exclude_ties -> peer && p <> r
          in
          let runs = ref [] and count = ref 0 in
          for p = Frame.start_ f r to Frame.end_ f r - 1 do
            if not (in_hole p) then begin
              incr count;
              match !runs with
              | (lo, hi) :: rest when hi = p -> runs := (lo, p + 1) :: rest
              | l -> runs := (p, p + 1) :: l
            end
          done;
          let expect = Array.of_list (List.rev !runs) in
          Alcotest.(check (array ip)) (Printf.sprintf "ranges n=%d r=%d" n r) expect (Frame.ranges f r);
          Alcotest.(check int) (Printf.sprintf "covered n=%d r=%d" n r) !count (Frame.covered f r)
        done)
      modes
  done

let test_empty_frame () =
  let b =
    bounds (Window_spec.rows_between (Window_spec.following 3) (Window_spec.preceding 3)) t_asc
  in
  Array.iteri
    (fun r (s, e) -> if s <> e then Alcotest.failf "row %d: expected empty frame, got (%d,%d)" r s e)
    b

let test_unbounded_inversions () =
  (* start=UNBOUNDED FOLLOWING / end=UNBOUNDED PRECEDING yield empty frames *)
  let b =
    bounds
      (Window_spec.rows_between Window_spec.Unbounded_following Window_spec.Unbounded_following)
      t_asc
  in
  Alcotest.(check ip) "start at np" (6, 6) b.(0);
  let b =
    bounds
      (Window_spec.rows_between Window_spec.Unbounded_preceding Window_spec.Unbounded_preceding)
      t_asc
  in
  Alcotest.(check ip) "end at 0" (0, 0) b.(3)

let test_range_requires_single_key () =
  let table = mk_table () in
  let spec =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "t"); Sort_spec.asc (Expr.Col "v") ]
      ~frame:(Window_spec.range_between (Window_spec.preceding 1) Window_spec.Current_row)
      ()
  in
  Alcotest.check_raises "multi-key range with offsets"
    (Invalid_argument "Frame: RANGE with offsets requires exactly one ORDER BY key") (fun () ->
      ignore (Frame.compute table ~spec ~rows))

let test_default_frames () =
  let table = mk_table () in
  (* with ORDER BY: range unbounded preceding .. current row (peers) *)
  let f =
    Frame.compute table ~spec:(Window_spec.over ~order_by:t_asc ()) ~rows
  in
  Alcotest.(check ip) "default ordered frame" (0, 3) (Frame.start_ f 1, Frame.end_ f 1);
  (* without ORDER BY: the whole partition *)
  let f = Frame.compute table ~spec:(Window_spec.over ()) ~rows in
  Alcotest.(check ip) "default unordered frame" (0, 6) (Frame.start_ f 3, Frame.end_ f 3)

(* ------------------------------------------------------------------ *)
(* Offset errors                                                       *)
(* ------------------------------------------------------------------ *)

let not_integer = Invalid_argument "Frame: ROWS/GROUPS offsets must be non-negative integers"

(* Invalid offsets raise the same messages whether they are constants, a
   NULL-free int column or any other expression, and only once a row asks
   for them: never over an empty partition, and never for a row that is
   not in the partition or (RANGE) whose key is NULL. *)
let test_offset_errors () =
  let table =
    Table.add_column
      (Table.add_column (mk_table ()) "neg" (Column.ints [| 1; 1; 1; 1; 1; -1 |]))
      "nul" (Column.of_values [| Value.Int 1; Value.Int 1; Value.Null; Value.Int 1; Value.Null; Value.Int 1 |])
  in
  let run ?(rows = rows) ?(order = t_asc) frame =
    ignore (Frame.compute table ~spec:(Window_spec.over ~order_by:order ~frame ()) ~rows)
  in
  let pre e = Window_spec.Preceding e and cur = Window_spec.Current_row in
  let const v = Expr.Const v in
  List.iter
    (fun between ->
      let raises what exn frame = Alcotest.check_raises what exn (fun () -> run frame) in
      raises "NULL constant" not_integer (between (pre (const Value.Null)) cur);
      raises "float constant" not_integer (between cur (Window_spec.Following (const (Value.Float 1.5))));
      raises "negative column value" (Invalid_argument "Frame: negative frame offset")
        (between (pre (Expr.Col "neg")) cur);
      raises "negative expression value" (Invalid_argument "Frame: negative frame offset")
        (between (pre (Expr.Sub (Expr.Col "off", Expr.Const (Value.Int 1)))) cur);
      raises "NULL column value" not_integer (between (pre (Expr.Col "nul")) cur);
      (* nothing asks *)
      run ~rows:[||] (between (pre (const (Value.Int (-1)))) cur);
      run ~rows:[||] (between (pre (const Value.Null)) cur);
      run ~rows:[| 0; 1; 2; 3; 4 |] (between (pre (Expr.Col "neg")) cur))
    [ (fun a b -> Window_spec.rows_between a b); (fun a b -> Window_spec.groups_between a b) ];
  let null_delta = Invalid_argument "Frame: NULL RANGE offset" in
  Alcotest.check_raises "NULL RANGE constant" null_delta (fun () ->
      run (Window_spec.range_between (pre (const Value.Null)) cur));
  Alcotest.check_raises "NULL RANGE value" null_delta (fun () ->
      run (Window_spec.range_between cur (Window_spec.Following (Expr.Col "nul"))));
  run ~rows:[||] (Window_spec.range_between (pre (const Value.Null)) cur);
  (* an offset whose type does not fit the key: the value arithmetic's own
     error, or, where that arithmetic crosses types (int + date), ours *)
  Alcotest.check_raises "interval on an int key"
    (Invalid_argument "Value.sub: incompatible operands (2, 5)") (fun () ->
      run (Window_spec.range_between (pre (const (Value.Interval { months = 0; days = 1 }))) cur));
  Alcotest.check_raises "date on an int key"
    (Invalid_argument "Frame: RANGE offset type does not match the ORDER BY key") (fun () ->
      run (Window_spec.range_between cur (Window_spec.Following (const (Value.Date 3)))));
  (* v is NULL exactly where nul is: those rows frame their peer group *)
  run ~order:[ Sort_spec.asc (Expr.Col "v") ] ~rows:[| 0; 1; 3; 5; 2; 4 |]
    (Window_spec.range_between (pre (Expr.Col "nul")) cur)

(* A RANGE offset whose type does not fit the key raises the same
   [Invalid_argument] in [Frame] and in the [Reference] oracle: the value
   arithmetic's own error where it fails, ours where it succeeds across
   types. *)
let test_range_type_mismatch () =
  let table =
    Table.create
      [
        ("i", Column.ints [| 3; 1; 2 |]);
        ("d", Column.dates [| 30; 10; 20 |]);
        ("f", Column.floats [| 0.5; 1.5; 2.5 |]);
      ]
  in
  let ours = "Frame: RANGE offset type does not match the ORDER BY key" in
  let outcome f = match f () with _ -> "no error" | exception Invalid_argument m -> m in
  let const v = Expr.Const v in
  let interval = const (Value.Interval { Value.months = 0; days = 1 }) in
  (* a start bound [d] before or after the current row's key *)
  let pre d _ = Window_spec.Preceding d and fol d _ = Window_spec.Following d in
  (* Int/Date mixed: an expression key [Frame] cannot search *)
  let mixed = Expr.Case ([ (Expr.Gt (Expr.Col "i", const (Value.Int 1)), Expr.Col "d") ], Some (Expr.Col "i")) in
  List.iter
    (fun (label, key, bound, want) ->
      let order = [ Sort_spec.asc key ] in
      let frame = Window_spec.range_between (bound Window_spec.Current_row) Window_spec.Unbounded_following in
      let spec = Window_spec.over ~order_by:order ~frame () in
      let rows = Holistic_sort.Introsort.sort_indices_by 3 ~cmp:(Sort_spec.comparator table order) in
      let clause = { Window_plan.spec; items = [ Window_func.count_star ~name:"c" () ] } in
      let frame_says = outcome (fun () -> ignore (Frame.compute table ~spec ~rows)) in
      let reference_says = outcome (fun () -> ignore (Reference.run table [ clause ])) in
      Alcotest.(check string) (label ^ ": Frame") want frame_says;
      Alcotest.(check string) (label ^ ": Reference") want reference_says)
    [
      ("int key, date following", Expr.Col "i", fol (const (Value.Date 3)), ours);
      ("int key, date preceding", Expr.Col "i", pre (const (Value.Date 3)), "Value.sub: incompatible operands (2, 3)");
      ("date key, date preceding", Expr.Col "d", pre (const (Value.Date 3)), ours);
      ("mixed key, int preceding", mixed, pre (const (Value.Int 1)), ours);
      ("mixed key, interval following", mixed, fol interval, "Value.add: incompatible operands (2, 5)");
      ("int key, interval preceding", Expr.Col "i", pre interval, "Value.sub: incompatible operands (2, 5)");
      ("float key, interval preceding", Expr.Col "f", pre interval, "Value.sub: incompatible operands (2, 5)");
      ("date key, float preceding", Expr.Col "d", pre (const (Value.Float 1.)), "Value.sub: incompatible operands (3, 2)");
      ("date key, int preceding", Expr.Col "d", pre (const (Value.Int 1)), "no error");
      ("int key, float following", Expr.Col "i", fol (const (Value.Float 1.)), "no error");
    ]

(* ------------------------------------------------------------------ *)
(* Bounds against a linear-scan oracle                                 *)
(* ------------------------------------------------------------------ *)

module Rng = Holistic_util.Rng
module Bitset = Holistic_util.Bitset

(* A nullable table over every key type — ints, dates spanning a month
   end, floats with NaN, both zeros and infinities, strings, bools — and
   the NULL-free offset column g. *)
let oracle_table rng n =
  let nulls () =
    let m = Bitset.create n in
    for r = 0 to n - 1 do
      if Rng.int rng 6 = 0 then Bitset.set m r
    done;
    m
  in
  let col data = Column.make ~nulls:(nulls ()) data in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let floats = [| Float.nan; 0.0; -0.0; 0.5; -1.5; 2.0; 3.5; Float.infinity; Float.neg_infinity |] in
  let base = Value.date_of_ymd 2024 1 25 in
  Table.create
    [
      ("i", col (Column.Ints (Array.init n (fun _ -> Rng.int_in rng (-4) 6))));
      ("d", col (Column.Dates (Array.init n (fun _ -> base + Rng.int_in rng (-40) 40))));
      ("f", col (Column.Floats (Array.init n (fun _ -> pick floats))));
      ("s", col (Column.Strings (Array.init n (fun _ -> pick [| "a"; "b"; "cc" |]))));
      ("b", col (Column.Bools (Array.init n (fun _ -> Rng.bool rng))));
      ("g", Column.ints (Array.init n (fun _ -> Rng.int rng 4)));
    ]

let key_exprs =
  Expr.[| Col "i"; Col "d"; Col "f"; Col "s"; Col "b"; Add (Col "i", Const (Value.Int 1)) |]

let gen_oracle_key rng =
  let expr = key_exprs.(Rng.int rng (Array.length key_exprs)) in
  let direction = if Rng.bool rng then Sort_spec.Asc else Sort_spec.Desc in
  let nulls = [| Sort_spec.Nulls_default; Sort_spec.Nulls_first; Sort_spec.Nulls_last |].(Rng.int rng 3) in
  { Sort_spec.expr; direction; nulls }

(* ROWS/GROUPS offsets: a constant, the int column, or an expression *)
let gen_offset rng =
  match Rng.int rng 3 with
  | 0 -> Expr.Const (Value.Int (Rng.int rng 4))
  | 1 -> Expr.Col "g"
  | _ -> Expr.Add (Expr.Col "g", Expr.Const (Value.Int 1))

(* RANGE deltas, negative ones included: per-row (the column, or an
   expression over it), Int, Float, or for dates an Interval of 0 or 1
   months. *)
let gen_delta rng (key : Sort_spec.key) () =
  let int k = Expr.Const (Value.Int k) in
  match key.expr, Rng.int rng 4 with
  | _, 0 -> if Rng.bool rng then Expr.Col "g" else Expr.Add (Expr.Col "g", int 1)
  | Expr.Col "d", 1 -> int (Rng.int_in rng (-3) 9)
  | Expr.Col "d", _ ->
      Expr.Const (Value.Interval { Value.months = Rng.int rng 2; days = Rng.int_in rng (-2) 9 })
  | _, 1 -> int (Rng.int_in rng (-2) 3)
  | _, _ -> Expr.Const (Value.Float (float_of_int (Rng.int_in rng (-3) 5) /. 2.0))

let gen_bound rng offset =
  match Rng.int rng (if offset = None then 3 else 7) with
  | 0 -> Window_spec.Unbounded_preceding
  | 1 -> Window_spec.Current_row
  | 2 -> Window_spec.Unbounded_following
  | 3 | 4 -> Window_spec.Preceding (Option.get offset ())
  | _ -> Window_spec.Following (Option.get offset ())

let has_arithmetic (key : Sort_spec.key) =
  match key.expr with Expr.Col ("s" | "b") -> false | _ -> true

(* Every bound by a linear scan over boxed values: [Value.compare_sql] for
   order and peers, [Value.sub]/[Value.add] for RANGE targets; no search
   and no pointer. *)
let oracle table (spec : Window_spec.t) rows =
  let np = Array.length rows in
  let keys = List.map (fun (k : Sort_spec.key) -> Expr.compile table k.expr) spec.order_by in
  let peer a b =
    List.for_all (fun f -> Value.compare_sql ~nulls_last:true (f rows.(a)) (f rows.(b)) = 0) keys
  in
  let scan_back r =
    let p = ref r in
    while !p > 0 && peer (!p - 1) r do decr p done;
    !p
  and scan_ahead r =
    let p = ref (r + 1) in
    while !p < np && peer !p r do incr p done;
    !p
  in
  let peer_start = Array.init np scan_back and peer_end = Array.init np scan_ahead in
  let frame =
    match spec.frame with
    | Some f -> f
    | None when spec.order_by = [] -> Window_spec.whole_partition
    | None -> Window_spec.range_between Window_spec.Unbounded_preceding Window_spec.Current_row
  in
  (* first position satisfying [ok], or [np] *)
  let first ok =
    let p = ref 0 in
    while !p < np && not (ok !p) do incr p done;
    !p
  in
  let group p =
    let g = ref 0 in
    for q = 1 to p do
      if peer_start.(q) = q then incr g
    done;
    !g
  in
  let offset e r =
    match Expr.compile table e rows.(r) with Value.Int k -> k | _ -> assert false
  in
  let bound ~upper r (b : Window_spec.bound) =
    let past = if upper then 1 else 0 in
    (* the GROUPS / peer rule: the first position of group g + shift, or
       past it *)
    let by_group shift =
      let g = group r + shift in
      first (fun p -> group p + (if upper then 0 else 1) > g)
    in
    match frame.mode, b with
    | _, Window_spec.Unbounded_preceding -> 0
    | _, Window_spec.Unbounded_following -> np
    | Window_spec.Rows, Window_spec.Current_row -> r + past
    | Window_spec.Rows, Window_spec.Preceding e -> r - offset e r + past
    | Window_spec.Rows, Window_spec.Following e -> r + offset e r + past
    | (Window_spec.Groups | Window_spec.Range), Window_spec.Current_row -> by_group 0
    | Window_spec.Groups, Window_spec.Preceding e -> by_group (-offset e r)
    | Window_spec.Groups, Window_spec.Following e -> by_group (offset e r)
    | Window_spec.Range, (Window_spec.Preceding e | Window_spec.Following e) ->
        let k = List.hd spec.order_by and f = List.hd keys in
        let v = f rows.(r) in
        if Value.is_null v then if upper then peer_end.(r) else peer_start.(r)
        else begin
          let d = Expr.compile table e rows.(r) in
          let desc = k.Sort_spec.direction = Sort_spec.Desc in
          let preceding = match b with Window_spec.Preceding _ -> true | _ -> false in
          let target = if preceding <> desc then Value.sub v d else Value.add v d in
          let sign = if desc then -1 else 1 in
          let non_null p = not (Value.is_null (f rows.(p))) in
          let p =
            first (fun p ->
                non_null p && sign * Value.compare_sql ~nulls_last:true (f rows.(p)) target >= past)
          in
          (* none: one past the last non-NULL key *)
          if p < np then p
          else begin
            let hi = ref np in
            while !hi > 0 && not (non_null (!hi - 1)) do decr hi done;
            !hi
          end
        end
  in
  let clamp x = max 0 (min x np) in
  Array.init np (fun r ->
      let s = clamp (bound ~upper:false r frame.start_bound) in
      let e = clamp (bound ~upper:true r frame.end_bound) in
      (s, max s e, peer_start.(r), peer_end.(r)))

let bound_to_string = function
  | Window_spec.Unbounded_preceding -> "unbounded preceding"
  | Window_spec.Preceding e -> Expr.to_string e ^ " preceding"
  | Window_spec.Current_row -> "current row"
  | Window_spec.Following e -> Expr.to_string e ^ " following"
  | Window_spec.Unbounded_following -> "unbounded following"

let test_bounds_oracle () =
  let rng = Rng.create 2718 in
  let quad = Alcotest.(array (pair (pair int int) (pair int int))) in
  for case = 1 to 1500 do
    let n = 1 + Rng.int rng 40 in
    let table = oracle_table rng n in
    let key = gen_oracle_key rng in
    let order_by = if Rng.int rng 4 = 0 then [ key; gen_oracle_key rng ] else [ key ] in
    let between mode a b =
      match mode with
      | 0 -> Window_spec.rows_between a b
      | 1 -> Window_spec.groups_between a b
      | _ -> Window_spec.range_between a b
    in
    let frame =
      match Rng.int rng 5 with
      | 0 -> None
      | m ->
          let mode = m - 1 in
          let offset =
            if mode < 2 then Some (fun () -> gen_offset rng)
            else if List.length order_by = 1 && has_arithmetic key then Some (gen_delta rng key)
            else None
          in
          let a = gen_bound rng offset in
          Some (between mode a (gen_bound rng offset))
    in
    let spec = Window_spec.over ~order_by ?frame () in
    (* a random subset of the table's rows, shuffled, then sorted stably *)
    let rows = List.filter (fun _ -> Rng.int rng 4 > 0) (List.init n Fun.id) in
    let rows = List.map (fun r -> (Rng.int rng 1_000, r)) rows |> List.sort compare |> List.map snd in
    let rows = Array.of_list (List.stable_sort (Sort_spec.comparator table order_by) rows) in
    let what =
      Printf.sprintf "case %d: order by %s, %s" case (Sort_spec.to_string order_by)
        (match frame with
        | None -> "default frame"
        | Some f -> bound_to_string f.start_bound ^ " .. " ^ bound_to_string f.end_bound)
    in
    let expect = Array.map (fun (s, e, ps, pe) -> ((s, e), (ps, pe))) (oracle table spec rows) in
    let got f =
      Array.init (Array.length rows) (fun r ->
          ((Frame.start_ f r, Frame.end_ f r), (Frame.peer_start f r, Frame.peer_end f r)))
    in
    Alcotest.check quad what expect (got (Frame.compute table ~spec ~rows));
    let peers = Frame.peers table order_by rows in
    Alcotest.check quad (what ^ " (shared peers)") expect (got (Frame.compute ~peers table ~spec ~rows))
  done

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words that peers plus bounds allocate over [n] lineitem rows
   in l_shipdate order, for paper_frames' per-row ROWS bounds and its
   7-day RANGE. Per-row arrays are larger than a minor-heap block and go
   straight to the major heap, so whatever is left is per-frame setup —
   unless a row loop allocates. *)
let frame_minor_words n =
  let t = Holistic_data.Tpch.lineitem ~seed:5 ~rows:n () in
  let ship = match Column.data (Table.column t "l_shipdate") with Column.Dates a -> a | _ -> assert false in
  let rows = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare ship.(a) ship.(b)) rows;
  let pre = Array.init n (fun r -> r * 7 mod 125) in
  let t = Table.add_column t "pre" (Column.ints pre) in
  let t = Table.add_column t "fol" (Column.ints (Array.map (fun p -> 500 - p) pre)) in
  let order_by = [ Sort_spec.asc (Expr.Col "l_shipdate") ] in
  let words frame =
    let spec = Window_spec.over ~order_by ~frame () in
    let before = Gc.minor_words () in
    let peers = Frame.peers t order_by rows in
    ignore (Sys.opaque_identity (Frame.compute ~peers t ~spec ~rows));
    Gc.minor_words () -. before
  in
  let days7 = Expr.Const (Value.Interval { Value.months = 0; days = 7 }) in
  ( words
      (Window_spec.rows_between (Window_spec.Preceding (Expr.Col "pre"))
         (Window_spec.Following (Expr.Col "fol"))),
    words (Window_spec.range_between (Window_spec.Preceding days7) Window_spec.Current_row) )

let test_allocation_pin () =
  let rows_a, range_a = frame_minor_words 20_000 and rows_b, range_b = frame_minor_words 40_000 in
  Alcotest.(check (float 0.)) "ROWS pre/fol: minor words independent of rows" rows_a rows_b;
  Alcotest.(check (float 0.)) "RANGE 7 days: minor words independent of rows" range_a range_b

(* Offsets that reach past either end of the int range: a FOLLOWING offset
   up to [max_int] caps at the partition's end instead of wrapping (ROWS
   and GROUPS), and a RANGE target that leaves the int range lies past
   every key, both directions. The engine's bounds are checked by hand
   and its row counts against the oracle's. *)
let test_int_range_ends () =
  let g = [| min_int; -1; 0; max_int |] in
  let table = Table.create [ ("g", Column.ints g) ] in
  let np = Array.length g in
  let max_off = Expr.Const (Value.Int max_int) in
  let check label frame dir expected =
    let order = [ dir (Expr.Col "g") ] in
    let rows = if order = [ Sort_spec.desc (Expr.Col "g") ] then [| 3; 2; 1; 0 |] else [| 0; 1; 2; 3 |] in
    let spec = Window_spec.over ~order_by:order ~frame () in
    let f = Frame.compute table ~spec ~rows in
    Alcotest.(check (array ip)) label expected (Array.init np (fun r -> (Frame.start_ f r, Frame.end_ f r)));
    let clauses = [ { Window_plan.spec; items = [ Window_func.count_star ~name:"c" () ] } ] in
    let pool = Holistic_parallel.Task_pool.create 1 in
    let got = Window_plan.run ~pool table clauses in
    Holistic_parallel.Task_pool.shutdown pool;
    List.iter
      (fun (_, expect) ->
        Array.iteri
          (fun i v ->
            Alcotest.(check string) (label ^ ": count vs oracle") (Value.to_string v)
              (Value.to_string (Column.get (Table.column got "c") i)))
          expect)
      (Reference.run table clauses)
  in
  let asc e = Sort_spec.asc e and desc e = Sort_spec.desc e in
  let open Window_spec in
  check "ROWS to max_int following" (rows_between Current_row (Following max_off)) asc
    [| (0, 4); (1, 4); (2, 4); (3, 4) |];
  check "ROWS from max_int following" (rows_between (Following max_off) Unbounded_following) asc
    [| (4, 4); (4, 4); (4, 4); (4, 4) |];
  check "GROUPS to max_int following" (groups_between Current_row (Following max_off)) asc
    [| (0, 4); (1, 4); (2, 4); (3, 4) |];
  check "RANGE 1 preceding" (range_between (preceding 1) Current_row) asc
    [| (0, 1); (1, 2); (1, 3); (3, 4) |];
  check "RANGE 1 following" (range_between Current_row (following 1)) asc
    [| (0, 1); (1, 3); (2, 3); (3, 4) |];
  check "RANGE 1 preceding, descending" (range_between (preceding 1) Current_row) desc
    [| (0, 1); (1, 2); (1, 3); (3, 4) |];
  check "RANGE 1 following, descending" (range_between Current_row (following 1)) desc
    [| (0, 1); (1, 3); (2, 3); (3, 4) |];
  check "RANGE max_int both ways" (range_between (Preceding max_off) (Following max_off)) asc
    [| (0, 2); (0, 3); (1, 4); (2, 4) |]

let () =
  Alcotest.run "frame"
    [
      ( "rows",
        [
          Alcotest.test_case "constant offsets" `Quick test_rows_constant;
          Alcotest.test_case "expression offsets" `Quick test_rows_expression_bounds;
          Alcotest.test_case "negative offset rejected" `Quick test_rows_negative_offset_rejected;
        ] );
      ( "range",
        [
          Alcotest.test_case "value bounds" `Quick test_range_value_bounds;
          Alcotest.test_case "current row peers" `Quick test_range_current_row_peers;
          Alcotest.test_case "descending" `Quick test_range_desc;
          Alcotest.test_case "null peer groups" `Quick test_range_nulls_peer_group;
          Alcotest.test_case "requires single key" `Quick test_range_requires_single_key;
        ] );
      ("groups", [ Alcotest.test_case "group offsets" `Quick test_groups_mode ]);
      ( "exclusion",
        [
          Alcotest.test_case "all modes" `Quick test_exclusion_ranges;
          Alcotest.test_case "edge holes" `Quick test_exclusion_at_edges;
          Alcotest.test_case "position-set oracle" `Quick test_exclusion_oracle;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "inverted bounds" `Quick test_empty_frame;
          Alcotest.test_case "unbounded inversions" `Quick test_unbounded_inversions;
          Alcotest.test_case "default frames" `Quick test_default_frames;
        ] );
      ( "offsets",
        [
          Alcotest.test_case "errors only when a row asks" `Quick test_offset_errors;
          Alcotest.test_case "RANGE type mismatch as the reference" `Quick test_range_type_mismatch;
          Alcotest.test_case "past the ends of the int range" `Quick test_int_range_ends;
        ] );
      ("oracle", [ Alcotest.test_case "bounds vs linear scan" `Quick test_bounds_oracle ]);
      ("allocation", [ Alcotest.test_case "no per-row minor words" `Quick test_allocation_pin ]);
    ]
