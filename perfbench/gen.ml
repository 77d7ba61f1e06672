(* Seeded inputs for the four workloads: the tables the engine sees and the
   statements it runs.  Every statement is generated twice from one
   description — as SQL text for [Sql.query] and as the clause list the
   planner lowers it to — so the oracle and the traced replay can drive the
   window layer with exactly the work the SQL front end hands it. *)

open Holistic_storage
open Holistic_window
module Rng = Holistic_util.Rng
module Tpch = Holistic_data.Tpch
module Wf = Window_func
module Ws = Window_spec

type stmt = {
  sql : string;
  base_cols : string list;  (** base columns passed through the SELECT *)
  items : string list;  (** output names of the window items, in SELECT order *)
  clauses : Window_plan.clause list;  (** the planner's lowering, items [Auto] *)
  where : Expr.t option;
  order_by : (string * bool) option;  (** final ORDER BY output column, DESC *)
}

(* ------------------------------------------------------------------ *)
(* Statement assembly                                                  *)
(* ------------------------------------------------------------------ *)

type item = { isql : string; func : Wf.func }
type window = { wsql : string; spec : Ws.t }

let int_c n = Expr.Const (Value.Int n)

let bound_sql = function
  | Ws.Unbounded_preceding -> "unbounded preceding"
  | Ws.Preceding (Expr.Const (Value.Int n)) -> Printf.sprintf "%d preceding" n
  | Ws.Preceding (Expr.Const (Value.Interval { days; _ })) ->
      Printf.sprintf "interval '%d days' preceding" days
  | Ws.Preceding (Expr.Col c) -> c ^ " preceding"
  | Ws.Current_row -> "current row"
  | Ws.Following (Expr.Const (Value.Int n)) -> Printf.sprintf "%d following" n
  | Ws.Following (Expr.Col c) -> c ^ " following"
  | Ws.Unbounded_following -> "unbounded following"
  | _ -> invalid_arg "Gen.bound_sql"

let key_sql (k : Sort_spec.key) =
  Expr.to_string k.Sort_spec.expr
  ^ (match k.Sort_spec.direction with Sort_spec.Asc -> "" | Sort_spec.Desc -> " desc")
  ^ match k.Sort_spec.nulls with
    | Sort_spec.Nulls_default -> ""
    | Sort_spec.Nulls_first -> " nulls first"
    | Sort_spec.Nulls_last -> " nulls last"

let order_sql order = String.concat ", " (List.map key_sql order)

let window ?(partition_by = []) ~order ?frame () =
  let parts =
    (match partition_by with
    | [] -> []
    | pb -> [ "partition by " ^ String.concat ", " (List.map Expr.to_string pb) ])
    @ [ "order by " ^ order_sql order ]
    @
    match frame with
    | None -> []
    | Some (f : Ws.frame) ->
        [
          Printf.sprintf "%s between %s and %s%s"
            (match f.Ws.mode with Ws.Rows -> "rows" | Ws.Range -> "range" | Ws.Groups -> "groups")
            (bound_sql f.Ws.start_bound) (bound_sql f.Ws.end_bound)
            (match f.Ws.exclusion with
            | Ws.Exclude_current_row -> " exclude current row"
            | _ -> "");
        ]
  in
  { wsql = "(" ^ String.concat " " parts ^ ")"; spec = Ws.over ~partition_by ~order_by:order ?frame () }

let rows_frame ?exclusion lo hi = Ws.rows_between ?exclusion lo hi
let back n = rows_frame (Ws.Preceding (int_c n)) Ws.Current_row

(* Items are named c0, c1, ... so the planner's output naming is fixed, and
   grouped into clauses by structural spec equality in first-appearance
   order, exactly as [Planner.run] groups them. *)
let make ?where ?order_by ~base_cols pairs =
  let named = List.mapi (fun i p -> (Printf.sprintf "c%d" i, p)) pairs in
  let select =
    base_cols
    @ List.map (fun (nm, (it, w)) -> Printf.sprintf "%s over %s as %s" it.isql w.wsql nm) named
  in
  let sql =
    "select " ^ String.concat ", " select ^ " from t"
    ^ (match where with Some (s, _) -> " where " ^ s | None -> "")
    ^ match order_by with
      | Some (c, desc) -> " order by " ^ c ^ if desc then " desc" else ""
      | None -> ""
  in
  let groups =
    List.fold_left
      (fun acc (nm, (it, w)) ->
        let item = Wf.make ~name:nm it.func in
        match List.assoc_opt w.spec acc with
        | Some items ->
            items := item :: !items;
            acc
        | None -> acc @ [ (w.spec, ref [ item ]) ])
      [] named
  in
  {
    sql;
    base_cols;
    items = List.map fst named;
    clauses = List.map (fun (spec, items) -> { Window_plan.spec; items = List.rev !items }) groups;
    where = Option.map snd where;
    order_by;
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let col c = Expr.Col c
let asc c = Sort_spec.asc (col c)

(* ------------------------------------------------------------------ *)
(* paper_frames                                                        *)
(* ------------------------------------------------------------------ *)

(* Tpch.lineitem plus the Fig. 12 per-row bounds at m = 0.25: pre =
   m·mod(price·7703, 499) preceding and fol = 500 − pre following. *)
let lineitem ~seed ~rows =
  let t = Tpch.lineitem ~seed ~rows () in
  let price =
    match Column.data (Table.column t "l_extendedprice") with
    | Column.Floats p -> p
    | _ -> assert false
  in
  let pre =
    Array.map (fun p -> int_of_float (0.25 *. float_of_int (int_of_float (p *. 100.0) * 7703 mod 499))) price
  in
  let fol = Array.map (fun p -> 500 - p) pre in
  Table.add_column (Table.add_column t "pre" (Column.ints pre)) "fol" (Column.ints fol)

let paper_frame_shapes ~rows =
  let ship = [ asc "l_shipdate" ] in
  let p5 = max 1 ((rows / 20) - 1) in
  [
    window ~order:ship ~frame:(back 99) ();
    window ~order:ship ~frame:(back p5) ();
    window ~order:ship ();
    window ~order:ship
      ~frame:
        (Ws.range_between
           (Ws.Preceding (Expr.Const (Value.Interval { Value.months = 0; days = 7 })))
           Ws.Current_row)
      ();
    window ~order:ship ~frame:(rows_frame (Ws.Preceding (col "pre")) (Ws.Following (col "fol"))) ();
    window ~order:ship
      ~frame:(rows_frame ~exclusion:Ws.Exclude_current_row (Ws.Preceding (int_c p5)) Ws.Current_row)
      ();
  ]

let paper_item rng = function
  | `Percentile ->
      if Rng.bool rng then
        { isql = "median(l_extendedprice)"; func = Wf.Percentile_disc (0.5, [ asc "l_extendedprice" ]) }
      else
        let q = [| 0.1; 0.25; 0.75; 0.9 |].(Rng.int rng 4) in
        {
          isql = Printf.sprintf "percentile_disc(%g order by l_extendedprice)" q;
          func = Wf.Percentile_disc (q, [ asc "l_extendedprice" ]);
        }
  | `Distinct ->
      {
        isql = "count(distinct l_partkey)";
        func = Wf.Aggregate { kind = Wf.Count; arg = Some (col "l_partkey"); distinct = true };
      }
  | `Rank -> { isql = "rank(order by l_extendedprice)"; func = Wf.Rank [ asc "l_extendedprice" ] }
  | `Value ->
      {
        isql = "lead(l_quantity order by l_extendedprice)";
        func =
          Wf.Lead
            (1, None, { Wf.arg = col "l_quantity"; order = [ asc "l_extendedprice" ]; ignore_nulls = false });
      }
  | `Sum ->
      { isql = "sum(l_quantity)"; func = Wf.Aggregate { kind = Wf.Sum; arg = Some (col "l_quantity"); distinct = false } }

(* Every frame shape carries each of the five item classes exactly once, in
   three single-item statements and one two-item statement (all single on
   the last frame); which classes get paired rotates with the frame.  The
   seed only picks the percentile fractions (and the data), so the pool's
   total work barely depends on it and rows_per_s stays comparable across
   seeds. *)
let paper_frames_stmts ~seed ~rows =
  let rng = Rng.create (seed * 7919 + 1) in
  List.concat
    (List.mapi
       (fun f w ->
         let classes = [| `Percentile; `Distinct; `Rank; `Value; `Sum |] in
         let it k = (paper_item rng classes.((f + k) mod 5), w) in
         let single k = make ~base_cols:[ "l_orderkey" ] [ it k ] in
         (* the last frame keeps all five single, for a pool of 25 *)
         if f = 5 then List.init 5 single
         else [ single 0; single 1; single 2; make ~base_cols:[ "l_orderkey" ] [ it 3; it 4 ] ])
       (paper_frame_shapes ~rows))

(* ------------------------------------------------------------------ *)
(* partitioned_mix / spill_capped                                      *)
(* ------------------------------------------------------------------ *)

(* Distinct, shuffled ISO-timestamp strings (so [ts] densifies through the
   string path), a float with NULLs and NaNs, a small int. *)
let mix_table ~seed ~rows ~partitions =
  let rng = Rng.create (seed * 104_729 + 3) in
  let grp = Array.init rows (fun _ -> Rng.int rng partitions) in
  let shuffled = Array.init rows (fun i -> i) in
  shuffle rng shuffled;
  let ts =
    Array.map
      (fun v ->
        Printf.sprintf "2026-%02d-%02d %02d:%02d:%02d.%06d"
          (1 + (v / 2_678_400 mod 12))
          (1 + (v / 86_400 mod 28))
          (v / 3_600 mod 24) (v / 60 mod 60) (v mod 60) v)
      shuffled
  in
  let nulls = Holistic_util.Bitset.create rows in
  let x =
    Array.init rows (fun i ->
        let r = Rng.int rng 100 in
        if r < 5 then begin
          Holistic_util.Bitset.set nulls i;
          0.0
        end
        else if r < 7 then Float.nan
        else Rng.float rng 1000.)
  in
  let k = Array.init rows (fun _ -> Rng.int rng 100) in
  Table.create
    [
      ("grp", Column.ints grp);
      ("ts", Column.strings ts);
      ("x", Column.make ~nulls (Column.Floats x));
      ("k", Column.ints k);
    ]

(* [variant] picks among the rank family. *)
let mix_item variant = function
  | `Rank ->
      [|
        { isql = "rank()"; func = Wf.Rank [] };
        { isql = "row_number()"; func = Wf.Row_number [] };
        { isql = "percent_rank()"; func = Wf.Percent_rank [] };
        { isql = "cume_dist()"; func = Wf.Cume_dist [] };
      |].(variant mod 4)
  | `Sum -> { isql = "sum(x)"; func = Wf.Aggregate { kind = Wf.Sum; arg = Some (col "x"); distinct = false } }
  | `Percentile -> { isql = "median(x)"; func = Wf.Percentile_disc (0.5, [ asc "x" ]) }
  | `Value ->
      { isql = "lead(x)"; func = Wf.Lead (1, None, { Wf.arg = col "x"; order = []; ignore_nulls = false }) }
  | `Distinct ->
      { isql = "count(distinct k)"; func = Wf.Aggregate { kind = Wf.Count; arg = Some (col "k"); distinct = true } }

(* Statements of 1-4 OVER clauses sharing PARTITION BY grp with prefix
   ORDER BYs and small ROWS frames: clause counts 1..4 each appear five
   times, ten statements add a final ORDER BY on an output column and five
   add a WHERE.  Orders, frames, item classes and predicates rotate with
   the statement and clause index rather than coming from the seed: the
   seed drives the data, and the pool's cost stays comparable across
   seeds. *)
let mix_stmts () =
  let grp = [ col "grp" ] in
  let orders =
    [|
      [ asc "ts" ];
      [ asc "ts"; asc "k" ];
      [ Sort_spec.desc ~nulls:Sort_spec.Nulls_last (col "x") ];
    |]
  in
  let frames = [| back 9; back 49; back 99; rows_frame (Ws.Preceding (int_c 5)) (Ws.Following (int_c 5)) |] in
  let wheres =
    [| ("k < 60", Expr.Lt (col "k", int_c 60)); ("x >= 100.0", Expr.Ge (col "x", Expr.Const (Value.Float 100.0))) |]
  in
  let classes = [| `Rank; `Sum; `Percentile; `Value; `Distinct |] in
  let next = ref 0 in
  List.init 20 (fun i ->
      let nclauses = 1 + (i mod 4) in
      let pairs =
        List.init nclauses (fun c ->
            let order = if c = 0 then orders.(i mod 2) else orders.((i + c) mod 3) in
            let w = window ~partition_by:grp ~order ~frame:frames.((i + c) mod 4) () in
            let k = !next in
            incr next;
            (mix_item (k / 5) classes.(k mod 5), w))
      in
      let where = if List.mem i [ 1; 6; 11; 12; 17 ] then Some wheres.(i mod 2) else None in
      let order_by = if i mod 2 = 0 then Some (Printf.sprintf "c%d" (i / 2 mod nclauses), i mod 4 = 0) else None in
      make ?where ?order_by ~base_cols:[ "grp"; "k" ] pairs)

(* ------------------------------------------------------------------ *)
(* session_churn                                                       *)
(* ------------------------------------------------------------------ *)

(* The time-series table: one row per tick, [ts] increasing, rows spread
   over [partitions] groups. *)
let series_rows rng ~grp ~ts =
  let n = Array.length grp in
  let nulls = Holistic_util.Bitset.create n in
  let x =
    Array.init n (fun i ->
        let r = Rng.int rng 100 in
        if r < 5 then begin
          Holistic_util.Bitset.set nulls i;
          0.0
        end
        else if r < 7 then Float.nan
        else Rng.float rng 1000.)
  in
  let k = Array.init n (fun _ -> Rng.int rng 100) in
  Table.create
    [
      ("grp", Column.ints grp);
      ("ts", Column.ints ts);
      ("x", Column.make ~nulls (Column.Floats x));
      ("k", Column.ints k);
    ]

let series_table ~seed ~rows ~partitions =
  let rng = Rng.create (seed * 32_452_843 + 7) in
  let grp = Array.init rows (fun _ -> Rng.int rng partitions) in
  series_rows rng ~grp ~ts:(Array.init rows (fun i -> 10 * i))

let session_stmts =
  let grp = [ col "grp" ] in
  let by_ts = [ asc "ts" ] in
  let w49 = window ~partition_by:grp ~order:by_ts ~frame:(back 49) () in
  let w99 = window ~partition_by:grp ~order:by_ts ~frame:(back 99) () in
  let w9 = window ~partition_by:grp ~order:[ asc "ts"; asc "k" ] ~frame:(rows_frame (Ws.Preceding (int_c 9)) (Ws.Following (int_c 9))) () in
  [|
    make ~base_cols:[ "grp"; "ts" ] [ (mix_item 0 `Sum, w49); ({ isql = "rank()"; func = Wf.Rank [] }, w49) ];
    make ~base_cols:[ "grp"; "ts" ] [ (mix_item 0 `Percentile, w99); (mix_item 0 `Distinct, w99) ];
    make ~base_cols:[ "grp"; "ts" ]
      [ (mix_item 0 `Value, w9); ({ isql = "percent_rank()"; func = Wf.Percent_rank [] }, w49) ];
  |]

(* One churn step's delta: [rows] new rows, 90% in timestamp order spread
   over the hot groups, 10% back-dated into one random live group. *)
let churn_delta rng ~rows ~next_ts ~hot ~cold ~min_ts =
  let in_order = rows * 9 / 10 in
  let grp = Array.init rows (fun i -> if i < in_order then hot.(Rng.int rng (Array.length hot)) else cold) in
  let ts =
    Array.init rows (fun i ->
        if i < in_order then next_ts + (10 * i) else min_ts + Rng.int rng (max 1 (next_ts - min_ts)))
  in
  series_rows rng ~grp ~ts
