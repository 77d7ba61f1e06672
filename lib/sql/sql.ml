exception Parse_error of string * int
exception Semantic_error of string

module Session = Holistic_window.Session
module Query_stats = Holistic_window.Query_stats
module Obs = Holistic_obs.Obs

let parse src =
  try Parser.parse src with Parser.Error (msg, off) -> raise (Parse_error (msg, off))

let plan ~pool ?evaluator ?governor ?session ~tables ast =
  try Planner.run_with_stats ~pool ?evaluator ?governor ?session ~tables ast
  with Planner.Error msg -> raise (Semantic_error msg)

(* The one observed run: the statement under {!Holistic_obs.Obs.with_capture},
   rooted at a [sql.query] span.  EXPLAIN ANALYZE renders it; the query log
   keeps a record of it. *)
let observed_run ~pool ?evaluator ?governor ?session ~tables ast =
  Obs.with_capture (fun () ->
      Obs.span "sql.query" (fun () ->
          plan ~pool ?evaluator ?governor ?session ~tables ast))

let query ~pool ?evaluator ?governor ?session ?query_log ~tables src =
  let ast = parse src in
  match query_log with
  | Some sink ->
      let rows_in =
        match List.assoc_opt ast.Ast.from tables with
        | Some t -> Holistic_storage.Table.nrows t
        | None -> 0
      in
      let session_epoch = Option.map Session.epoch session in
      let (result, plan), trace =
        observed_run ~pool ?evaluator ?governor ?session ~tables ast
      in
      Query_stats.Log.append sink
        (Query_stats.of_trace ~sql:src ~session_epoch ~rows_in ~plan result trace);
      result
  | None ->
      let run () = plan ~pool ?evaluator ?governor ?session ~tables ast in
      if Obs.tracing () then (
        let t0 = Obs.now_ns () in
        let result, _ = run () in
        Query_stats.note_latency (Obs.now_ns () - t0);
        result)
      else fst (run ())

(* ------------------------------------------------------------------ *)
(* Sessions: persistent structure stores over one table                *)
(* ------------------------------------------------------------------ *)

let session_create ~pool table = Session.create ~pool table
let session_table = Session.table

let session_append = Session.append_rows

let session_evict session src =
  let table = Session.table session in
  let ast =
    try Parser.parse_expr src with Parser.Error (msg, off) -> raise (Parse_error (msg, off))
  in
  let pred =
    try Planner.lower_expr table ast with Planner.Error msg -> raise (Semantic_error msg)
  in
  Session.evict session (Holistic_storage.Expr.select table pred)

let rec expr_to_string (e : Ast.expr) =
  match e with
  | Ast.Col c -> c
  | Ast.Int_lit v -> if v < 0 then Printf.sprintf "(- %d)" (-v) else string_of_int v
  | Ast.Float_lit v ->
      let s = Printf.sprintf "%.12g" v in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Ast.String_lit s ->
      Printf.sprintf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Ast.Date_lit s -> Printf.sprintf "date '%s'" s
  | Ast.Interval_lit s -> Printf.sprintf "interval '%s'" s
  | Ast.Null_lit -> "null"
  | Ast.Bool_lit b -> string_of_bool b
  | Ast.Unop (op, a) -> Printf.sprintf "(%s %s)" op (expr_to_string a)
  | Ast.Binop (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_to_string a) op (expr_to_string b)
  | Ast.Func (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_to_string args))
  | Ast.Is_null (a, false) -> Printf.sprintf "(%s is null)" (expr_to_string a)
  | Ast.Is_null (a, true) -> Printf.sprintf "(%s is not null)" (expr_to_string a)
  | Ast.Case (branches, else_) ->
      Printf.sprintf "case %s%s end"
        (String.concat " "
           (List.map
              (fun (c, v) ->
                Printf.sprintf "when %s then %s" (expr_to_string c) (expr_to_string v))
              branches))
        (match else_ with Some e -> " else " ^ expr_to_string e | None -> "")

let order_to_string keys =
  String.concat ", "
    (List.map
       (fun (k : Ast.order_key) ->
         expr_to_string k.Ast.expr
         ^ (if k.Ast.desc then " desc" else "")
         ^ match k.Ast.nulls_first with
           | Some true -> " nulls first"
           | Some false -> " nulls last"
           | None -> "")
       keys)

let bound_to_string = function
  | Ast.Unbounded_preceding -> "unbounded preceding"
  | Ast.Preceding e -> expr_to_string e ^ " preceding"
  | Ast.Current_row -> "current row"
  | Ast.Following e -> expr_to_string e ^ " following"
  | Ast.Unbounded_following -> "unbounded following"

let window_to_string (w : Ast.window) =
  let parts =
    (match w.Ast.base with Some b -> [ b ] | None -> [])
    @ (if w.Ast.partition_by = [] then []
       else
         [ "partition by " ^ String.concat ", " (List.map expr_to_string w.Ast.partition_by) ])
    @ (if w.Ast.order_by = [] then [] else [ "order by " ^ order_to_string w.Ast.order_by ])
    @
    match w.Ast.frame with
    | None -> []
    | Some f ->
        let mode =
          match f.Ast.mode with `Rows -> "rows" | `Range -> "range" | `Groups -> "groups"
        in
        let excl =
          match f.Ast.exclusion with
          | Ast.No_others -> ""
          | Ast.Current_row_x -> " exclude current row"
          | Ast.Group_x -> " exclude group"
          | Ast.Ties_x -> " exclude ties"
        in
        [
          Printf.sprintf "%s between %s and %s%s" mode (bound_to_string f.Ast.start_bound)
            (bound_to_string f.Ast.end_bound) excl;
        ]
  in
  "(" ^ String.concat " " parts ^ ")"

(* A window call up to its OVER clause: function, DISTINCT, arguments,
   ORDER BY, IGNORE NULLS and FILTER. *)
let call_head (w : Ast.window_call) =
  Printf.sprintf "%s(%s%s%s)%s%s" w.Ast.func
    (if w.Ast.distinct then "distinct " else "")
    (String.concat ", " (List.map expr_to_string w.Ast.args))
    (if w.Ast.arg_order_by = [] then "" else " order by " ^ order_to_string w.Ast.arg_order_by)
    (if w.Ast.ignore_nulls then " ignore nulls" else "")
    (match w.Ast.filter with
    | Some f -> Printf.sprintf " filter (where %s)" (expr_to_string f)
    | None -> "")

let call_to_string (w : Ast.window_call) =
  call_head w ^ " over "
  ^
  match w.Ast.over with
  | { Ast.base = Some name; partition_by = []; order_by = []; frame = None } -> name
  | over -> window_to_string over

let print_query (q : Ast.query) =
  let items =
    List.map
      (fun (it : Ast.select_item) ->
        (match it.Ast.value with
        | `Expr e -> expr_to_string e
        | `Window w -> call_to_string w)
        ^ match it.Ast.alias with Some a -> " as " ^ a | None -> "")
      q.Ast.select
  in
  String.concat ""
    ([ "select "; String.concat ", " items; " from "; q.Ast.from ]
    @ (match q.Ast.where with Some w -> [ " where "; expr_to_string w ] | None -> [])
    @ (match q.Ast.windows with
      | [] -> []
      | ws ->
          [
            " window ";
            String.concat ", "
              (List.map (fun (n, w) -> Printf.sprintf "%s as %s" n (window_to_string w)) ws);
          ])
    @ (if q.Ast.order_by = [] then [] else [ " order by "; order_to_string q.Ast.order_by ])
    @ match q.Ast.limit with Some k -> [ Printf.sprintf " limit %d" k ] | None -> [])

let explain_ast q =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "from: %s\n" q.Ast.from);
  (match q.Ast.where with
  | Some w -> Buffer.add_string b (Printf.sprintf "where: %s\n" (expr_to_string w))
  | None -> ());
  List.iter
    (fun (it : Ast.select_item) ->
      let alias = match it.Ast.alias with Some a -> " as " ^ a | None -> "" in
      match it.Ast.value with
      | `Expr e -> Buffer.add_string b (Printf.sprintf "select expr: %s%s\n" (expr_to_string e) alias)
      | `Window w ->
          Buffer.add_string b
            (Printf.sprintf "select window: %s over %s%s\n" (call_head w)
               (window_to_string w.Ast.over) alias))
    q.Ast.select;
  List.iter
    (fun (name, w) ->
      Buffer.add_string b (Printf.sprintf "window %s as %s\n" name (window_to_string w)))
    q.Ast.windows;
  if q.Ast.order_by <> [] then
    Buffer.add_string b ("order by: " ^ order_to_string q.Ast.order_by ^ "\n");
  (match q.Ast.limit with
  | Some k -> Buffer.add_string b (Printf.sprintf "limit: %d\n" k)
  | None -> ());
  Buffer.contents b

let explain src = explain_ast (Parser.parse src)

(* EXPLAIN ANALYZE: the observed run, and one renderer of its span tree
   and counters under the static plan description. Everything time-valued
   prints as "%.3f ms" so tests can mask it; structure, row counts and
   counters are deterministic for a given pool size. *)
let explain_analyze_trace ~pool ?evaluator ?governor ?session ~tables src =
  let (result, _), trace =
    observed_run ~pool ?evaluator ?governor ?session ~tables (parse src)
  in
  (result, trace)

let render_analyze src (result, trace) =
  String.concat ""
    [
      explain src;
      Printf.sprintf "rows: %d (%s)\n" (Holistic_storage.Table.nrows result)
        (Obs.human_bytes (Holistic_storage.Table.footprint_bytes result));
      Obs.render trace;
    ]
