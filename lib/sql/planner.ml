open Holistic_storage
open Holistic_window
module Obs = Holistic_obs.Obs
module Wf = Window_func

exception Error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let parse_date_lit s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> begin
      try Value.date_of_ymd (int_of_string y) (int_of_string m) (int_of_string d)
      with _ -> errorf "malformed date literal %S" s
    end
  | _ -> errorf "malformed date literal %S (expected YYYY-MM-DD)" s

let parse_interval_lit s =
  let parts = String.split_on_char ' ' (String.trim (String.lowercase_ascii s)) in
  let rec go months days = function
    | [] -> { Value.months; days }
    | n :: unit :: rest -> begin
        let n = try int_of_string n with _ -> errorf "malformed interval %S" s in
        match unit with
        | "year" | "years" -> go (months + (12 * n)) days rest
        | "month" | "months" | "mon" | "mons" -> go (months + n) days rest
        | "week" | "weeks" -> go months (days + (7 * n)) rest
        | "day" | "days" -> go months (days + n) rest
        | _ -> errorf "unknown interval unit %S" unit
      end
    | _ -> errorf "malformed interval %S" s
  in
  go 0 0 parts

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let rec lower_expr table (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Col "*" -> errorf "'*' is only valid in count(*)"
  | Ast.Col name ->
      if Table.column_opt table name = None then errorf "unknown column %S" name;
      Expr.Col name
  | Ast.Int_lit v -> Expr.Const (Value.Int v)
  | Ast.Float_lit v -> Expr.Const (Value.Float v)
  | Ast.String_lit s -> Expr.Const (Value.String s)
  | Ast.Date_lit s -> Expr.Const (Value.Date (parse_date_lit s))
  | Ast.Interval_lit s -> Expr.Const (Value.Interval (parse_interval_lit s))
  | Ast.Null_lit -> Expr.Const Value.Null
  | Ast.Bool_lit b -> Expr.Const (Value.Bool b)
  | Ast.Unop ("-", a) -> Expr.Neg (lower_expr table a)
  | Ast.Unop ("not", a) -> Expr.Not (lower_expr table a)
  | Ast.Unop (op, _) -> errorf "unknown unary operator %S" op
  | Ast.Is_null (a, negated) ->
      if negated then Expr.Is_not_null (lower_expr table a) else Expr.Is_null (lower_expr table a)
  | Ast.Func ("mod", [ a; b ]) -> Expr.Mod (lower_expr table a, lower_expr table b)
  | Ast.Func ("abs", [ a ]) -> Expr.Abs (lower_expr table a)
  | Ast.Func ("greatest", args) when args <> [] ->
      Expr.Greatest (List.map (lower_expr table) args)
  | Ast.Func ("least", args) when args <> [] -> Expr.Least (List.map (lower_expr table) args)
  | Ast.Func (f, _) -> errorf "unknown scalar function %S" f
  | Ast.Case (branches, else_) ->
      Expr.Case
        ( List.map (fun (c, v) -> (lower_expr table c, lower_expr table v)) branches,
          Option.map (lower_expr table) else_ )
  | Ast.Binop (op, a, b) -> begin
      let a = lower_expr table a and b = lower_expr table b in
      match op with
      | "+" -> Expr.Add (a, b)
      | "-" -> Expr.Sub (a, b)
      | "*" -> Expr.Mul (a, b)
      | "/" -> Expr.Div (a, b)
      | "%" -> Expr.Mod (a, b)
      | "=" -> Expr.Eq (a, b)
      | "<>" -> Expr.Ne (a, b)
      | "<" -> Expr.Lt (a, b)
      | "<=" -> Expr.Le (a, b)
      | ">" -> Expr.Gt (a, b)
      | ">=" -> Expr.Ge (a, b)
      | "and" -> Expr.And (a, b)
      | "or" -> Expr.Or (a, b)
      | _ -> errorf "unknown operator %S" op
    end

let lower_order table (keys : Ast.order_key list) : Sort_spec.t =
  List.map
    (fun (k : Ast.order_key) ->
      {
        Sort_spec.expr = lower_expr table k.Ast.expr;
        direction = (if k.Ast.desc then Sort_spec.Desc else Sort_spec.Asc);
        nulls =
          (match k.Ast.nulls_first with
          | None -> Sort_spec.Nulls_default
          | Some true -> Sort_spec.Nulls_first
          | Some false -> Sort_spec.Nulls_last);
      })
    keys

(* ------------------------------------------------------------------ *)
(* Window lowering                                                     *)
(* ------------------------------------------------------------------ *)

let lower_bound table (b : Ast.frame_bound) =
  match b with
  | Ast.Unbounded_preceding -> Window_spec.Unbounded_preceding
  | Ast.Preceding e -> Window_spec.Preceding (lower_expr table e)
  | Ast.Current_row -> Window_spec.Current_row
  | Ast.Following e -> Window_spec.Following (lower_expr table e)
  | Ast.Unbounded_following -> Window_spec.Unbounded_following

let lower_frame table (f : Ast.frame) : Window_spec.frame =
  {
    mode = (match f.Ast.mode with `Rows -> Window_spec.Rows | `Range -> Window_spec.Range | `Groups -> Window_spec.Groups);
    start_bound = lower_bound table f.Ast.start_bound;
    end_bound = lower_bound table f.Ast.end_bound;
    exclusion =
      (match f.Ast.exclusion with
      | Ast.No_others -> Window_spec.Exclude_no_others
      | Ast.Current_row_x -> Window_spec.Exclude_current_row
      | Ast.Group_x -> Window_spec.Exclude_group
      | Ast.Ties_x -> Window_spec.Exclude_ties);
  }

(* resolve named-window references (WINDOW w AS (...), OVER w, OVER (w ...)) *)
let rec resolve_window named (w : Ast.window) : Ast.window =
  match w.Ast.base with
  | None -> w
  | Some name -> begin
      match List.assoc_opt name named with
      | None -> errorf "unknown window %S" name
      | Some base ->
          let base = resolve_window named base in
          if w.Ast.partition_by <> [] then
            errorf "window %S cannot redefine PARTITION BY of its base" name;
          if w.Ast.order_by <> [] && base.Ast.order_by <> [] then
            errorf "window %S cannot redefine ORDER BY of its base" name;
          {
            Ast.base = None;
            partition_by = base.Ast.partition_by;
            order_by = (if w.Ast.order_by <> [] then w.Ast.order_by else base.Ast.order_by);
            frame = (match w.Ast.frame with Some f -> Some f | None -> base.Ast.frame);
          }
    end

let lower_window table named (w : Ast.window) : Window_spec.t =
  let w = resolve_window named w in
  {
    Window_spec.partition_by = List.map (lower_expr table) w.Ast.partition_by;
    order_by = lower_order table w.Ast.order_by;
    frame = Option.map (lower_frame table) w.Ast.frame;
  }

(* ------------------------------------------------------------------ *)
(* Window function lowering                                            *)
(* ------------------------------------------------------------------ *)

let const_int = function
  | Ast.Int_lit v -> v
  | _ -> errorf "expected an integer literal argument"

let const_fraction = function
  | Ast.Float_lit v -> v
  | Ast.Int_lit v -> float_of_int v
  | _ -> errorf "expected a numeric percentile fraction"

let lower_call table (c : Ast.window_call) : Wf.func =
  let arg n =
    match List.nth_opt c.Ast.args n with
    | Some a -> a
    | None -> errorf "%s: missing argument %d" c.Ast.func (n + 1)
  in
  let expr n = lower_expr table (arg n) in
  let order = lower_order table c.Ast.arg_order_by in
  let nargs = List.length c.Ast.args in
  let check_args expected =
    if nargs <> expected then errorf "%s expects %d argument(s), got %d" c.Ast.func expected nargs
  in
  let no_order () =
    if order <> [] then errorf "%s does not take an ORDER BY inside the call" c.Ast.func
  in
  let value_func ?(ignore_nulls = c.Ast.ignore_nulls) n =
    { Wf.arg = expr n; order; ignore_nulls }
  in
  match c.Ast.func with
  | "count" when c.Ast.args = [ Ast.Col "*" ] ->
      no_order ();
      Wf.Aggregate { kind = Wf.Count_star; arg = None; distinct = false }
  | "count" ->
      check_args 1;
      no_order ();
      Wf.Aggregate { kind = Wf.Count; arg = Some (expr 0); distinct = c.Ast.distinct }
  | "sum" | "avg" | "min" | "max" ->
      check_args 1;
      no_order ();
      let kind =
        match c.Ast.func with
        | "sum" -> Wf.Sum
        | "avg" -> Wf.Avg
        | "min" -> Wf.Min
        | _ -> Wf.Max
      in
      Wf.Aggregate { kind; arg = Some (expr 0); distinct = c.Ast.distinct }
  | "rank" ->
      check_args 0;
      Wf.Rank order
  | "dense_rank" ->
      check_args 0;
      Wf.Dense_rank order
  | "row_number" ->
      check_args 0;
      Wf.Row_number order
  | "percent_rank" ->
      check_args 0;
      Wf.Percent_rank order
  | "cume_dist" ->
      check_args 0;
      Wf.Cume_dist order
  | "ntile" ->
      check_args 1;
      Wf.Ntile (const_int (arg 0), order)
  | "percentile_disc" ->
      check_args 1;
      if order = [] then errorf "percentile_disc requires ORDER BY inside the call";
      Wf.Percentile_disc (const_fraction (arg 0), order)
  | "percentile_cont" ->
      check_args 1;
      if order = [] then errorf "percentile_cont requires ORDER BY inside the call";
      Wf.Percentile_cont (const_fraction (arg 0), order)
  | "median" ->
      check_args 1;
      no_order ();
      Wf.Percentile_disc (0.5, [ Sort_spec.asc (lower_expr table (arg 0)) ])
  | "mode" ->
      check_args 1;
      no_order ();
      Wf.Mode (expr 0)
  | "first_value" ->
      check_args 1;
      Wf.First_value (value_func 0)
  | "last_value" ->
      check_args 1;
      Wf.Last_value (value_func 0)
  | "nth_value" ->
      check_args 2;
      Wf.Nth_value (const_int (arg 1), c.Ast.from_last, value_func 0)
  | "lead" | "lag" ->
      if nargs < 1 || nargs > 3 then errorf "%s expects 1-3 arguments" c.Ast.func;
      let offset = if nargs >= 2 then const_int (arg 1) else 1 in
      let default = if nargs >= 3 then Some (expr 2) else None in
      if c.Ast.func = "lead" then Wf.Lead (offset, default, value_func 0)
      else Wf.Lag (offset, default, value_func 0)
  | f -> errorf "unknown window function %S" f

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_with_stats ~pool ?evaluator ?governor ?session ~tables (q : Ast.query) =
  let table =
    match List.assoc_opt q.Ast.from tables with
    | Some t -> t
    | None -> errorf "unknown table %S" q.Ast.from
  in
  (* WHERE *)
  let table =
    match q.Ast.where with
    | None -> table
    | Some pred ->
        let before = Table.nrows table in
        let kept = ref 0 in
        let filtered =
          Obs.span "sql.where"
            ~args:(fun () -> [ ("in", string_of_int before); ("out", string_of_int !kept) ])
            (fun () ->
              let mask = Expr.select table (lower_expr table pred) in
              let keep = Array.make (Holistic_util.Bitset.count mask) 0 in
              Holistic_util.Bitset.iter_set mask (fun i ->
                  keep.(!kept) <- i;
                  incr kept);
              let filtered = Table.gather table keep in
              Obs.record_bytes (fun () -> Table.footprint_bytes filtered);
              filtered)
        in
        filtered
  in
  (* name each select item *)
  let used = Hashtbl.create 16 in
  let fresh base =
    let rec go k =
      let name = if k = 0 then base else Printf.sprintf "%s_%d" base k in
      if Hashtbl.mem used name || Table.column_opt table name <> None then go (k + 1)
      else begin
        Hashtbl.add used name ();
        name
      end
    in
    go 0
  in
  let items =
    List.map
      (fun (it : Ast.select_item) ->
        let base_name =
          match it.Ast.alias, it.Ast.value with
          | Some a, _ -> a
          | None, `Expr (Ast.Col c) -> c
          | None, `Expr _ -> "expr"
          | None, `Window w -> w.Ast.func
        in
        let name =
          match it.Ast.alias, it.Ast.value with
          | None, `Expr (Ast.Col c) when Table.column_opt table c <> None -> c
          | _ -> fresh base_name
        in
        (name, it.Ast.value))
      q.Ast.select
  in
  (* evaluate window calls, grouped by their window specification *)
  let calls =
    List.filter_map
      (fun (name, v) -> match v with `Window w -> Some (name, w) | `Expr _ -> None)
      items
  in
  (* Lower every call into one window plan. Clauses keep the first-appearance
     order of their specs (and items within a clause), so evaluation order —
     and hence error attribution — is deterministic, unlike the previous
     [Hashtbl.fold] over spec groups. The plan shares partition passes, sorts
     and per-partition index structures across clauses. *)
  let clauses = ref [] in
  List.iter
    (fun (name, (w : Ast.window_call)) ->
      let spec = lower_window table q.Ast.windows w.Ast.over in
      let item =
        Wf.make
          ?filter:(Option.map (lower_expr table) w.Ast.filter)
          ?algorithm:evaluator ~name (lower_call table w)
      in
      match List.find_opt (fun (s, _) -> s = spec) !clauses with
      | Some (_, items) -> items := item :: !items
      | None -> clauses := !clauses @ [ (spec, ref [ item ]) ])
    calls;
  let clauses =
    List.map (fun (spec, items) -> { Window_plan.spec; items = List.rev !items }) !clauses
  in
  let plan_stats = ref None in
  let with_windows =
    if clauses = [] then table
    else
      (* The session store only engages when [table] is the session's own
         table (physical equality, checked inside Window_plan) — a WHERE
         clause materialises a filtered copy, so filtered queries fall
         through to the stateless path untouched. *)
      Obs.span "sql.window" (fun () ->
          let t, st =
            Window_plan.run_with_stats ~pool ?governor ?session table clauses
          in
          plan_stats := Some st;
          t)
  in
  (* projection: base columns for window outputs, fresh columns for exprs *)
  let out_columns =
    Obs.span "sql.project"
      ~args:(fun () -> [ ("columns", string_of_int (List.length items)) ])
    @@ fun () ->
    List.map
      (fun (name, v) ->
        match v with
        | `Window _ -> (name, Table.column with_windows name)
        | `Expr (Ast.Col c) when name = c && Table.column_opt with_windows c <> None ->
            (name, Table.column with_windows c)
        | `Expr e ->
            let f = Expr.compile with_windows (lower_expr table e) in
            let col = Column.of_values (Array.init (Table.nrows with_windows) f) in
            (* only freshly materialised expression columns count; window
               outputs and pass-through base columns are shared *)
            Obs.record_bytes (fun () -> Column.footprint_bytes col);
            (name, col))
      items
  in
  let result = Table.create out_columns in
  (* final ORDER BY evaluates against the pre-projection table so it can
     reference any base column *)
  let result =
    if q.Ast.order_by = [] then result
    else
      Obs.span "sql.order_by"
        ~args:(fun () -> [ ("rows", string_of_int (Table.nrows result)) ])
      @@ fun () ->
      begin
      let sources =
        List.concat_map
          (fun (k : Ast.order_key) ->
            (* keys may name output columns or base columns *)
            let table_for =
              match k.Ast.expr with
              | Ast.Col c when Table.column_opt result c <> None -> result
              | _ -> with_windows
            in
            List.map (fun key -> { Key_codec.table = table_for; key }) (lower_order table_for [ k ]))
          q.Ast.order_by
      in
      let n = Table.nrows result in
      let kc = Key_codec.compile_sources ~n sources in
      let perm, _ =
        Holistic_sort.Parallel_sort.sort_encoded pool ~n ~words:kc.Key_codec.words
          ?tie:kc.Key_codec.residual ()
      in
      Table.gather result perm
    end
  in
  let result =
    match q.Ast.limit with
    | None -> result
    | Some k -> Table.gather result (Array.init (min k (Table.nrows result)) (fun i -> i))
  in
  (result, !plan_stats)

let run ~pool ?evaluator ?governor ?session ~tables q =
  fst (run_with_stats ~pool ?evaluator ?governor ?session ~tables q)
