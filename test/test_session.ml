(* The persistent structure store ({!Holistic_window.Session}): directed
   maintenance/reuse checks and a differential insert/evict fuzz.

   Each fuzz case opens a session over a random table and drives it with a
   random script of appends (in-order and interleaving, NaN / signed-zero /
   NULL columns included), predicate and prefix evictions, and queries.
   Every query's result is checked {e bit-identically} against a
   from-scratch [Window_plan.run] over the session's current table — the
   store's contract is that maintained structures are indistinguishable
   from rebuilt ones.

   Reproducible like test_fuzz: FUZZ_SEED / FUZZ_CASES override the
   defaults and every failure message carries both. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Ws = Window_spec
module Rng = Holistic_util.Rng
module Bitset = Holistic_util.Bitset
module Task_pool = Holistic_parallel.Task_pool

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_nulls rng n =
  if Rng.bool rng then None
  else begin
    let b = Bitset.create n in
    let any = ref false in
    for i = 0 to n - 1 do
      if Rng.int rng 100 < 18 then begin
        Bitset.set b i;
        any := true
      end
    done;
    if !any then Some b else None
  end

(* Floats include NaN and signed zero: maintained sorts and rank encodings
   must place them exactly where a fresh sort would. *)
let gen_float rng =
  match Rng.int rng 14 with
  | 0 -> Float.nan
  | 1 -> -0.0
  | _ -> float_of_int (Rng.int_in rng (-4) 7) /. 2.0

(* [g] is a partition key, an order key, an offset and a SUM/AVG
   argument: about one row in 40 holds [min_int] or [max_int], which reach
   the partition labels, the packing of [g; k] labels, frame offset
   arithmetic and integer sums. *)
let gen_g rng =
  match Rng.int rng 80 with 0 -> min_int | 1 -> max_int | _ -> Rng.int_in rng 0 3

let gen_rows rng n =
  let ints lo hi = Array.init n (fun _ -> Rng.int_in rng lo hi) in
  let pool = [| "a"; "b"; "c"; "dd"; "e" |] in
  let base_date = Value.date_of_ymd 2024 1 15 in
  Table.create
    [
      ("g", Column.ints (Array.init n (fun _ -> gen_g rng)));
      ("k", Column.make ?nulls:(gen_nulls rng n) (Column.Ints (ints (-3) 8)));
      ( "f",
        Column.make ?nulls:(gen_nulls rng n) (Column.Floats (Array.init n (fun _ -> gen_float rng)))
      );
      ( "s",
        Column.make ?nulls:(gen_nulls rng n)
          (Column.Strings (Array.init n (fun _ -> pool.(Rng.int rng 5)))) );
      ( "d",
        Column.make ?nulls:(gen_nulls rng n)
          (Column.Dates (Array.init n (fun _ -> base_date + Rng.int rng 15))) );
    ]

let gen_table rng = gen_rows rng (1 + Rng.int rng 60)
let gen_delta rng = gen_rows rng (1 + Rng.int rng 25)

let order_cols = [| "g"; "k"; "f"; "s"; "d" |]

let gen_key rng =
  let expr =
    if Rng.int rng 6 = 0 then Expr.Add (Expr.Col "k", Expr.Const (Value.Int 1))
    else Expr.Col order_cols.(Rng.int rng (Array.length order_cols))
  in
  let direction = if Rng.bool rng then Sort_spec.Asc else Sort_spec.Desc in
  let nulls =
    match Rng.int rng 3 with
    | 0 -> Sort_spec.Nulls_default
    | 1 -> Sort_spec.Nulls_first
    | _ -> Sort_spec.Nulls_last
  in
  { Sort_spec.expr; direction; nulls }

let gen_offset rng =
  if Rng.int rng 4 = 0 then Expr.Greatest [ Expr.Col "g"; Expr.Const (Value.Int 0) ]
  else Expr.Const (Value.Int (Rng.int rng 4))

let gen_bound rng =
  match Rng.int rng 6 with
  | 0 -> Ws.Unbounded_preceding
  | 1 | 2 -> Ws.Preceding (gen_offset rng)
  | 3 -> Ws.Current_row
  | 4 -> Ws.Following (gen_offset rng)
  | _ -> Ws.Unbounded_following

let gen_exclusion rng =
  match Rng.int rng 4 with
  | 0 -> Ws.Exclude_no_others
  | 1 -> Ws.Exclude_current_row
  | 2 -> Ws.Exclude_group
  | _ -> Ws.Exclude_ties

let gen_frame rng =
  if Rng.int rng 4 = 0 then None
  else begin
    let exclusion = gen_exclusion rng in
    if Rng.bool rng then Some (Ws.rows_between ~exclusion (gen_bound rng) (gen_bound rng))
    else Some (Ws.groups_between ~exclusion (gen_bound rng) (gen_bound rng))
  end

let gen_filter rng =
  if Rng.int rng 10 < 3 then
    Some
      (match Rng.int rng 3 with
      | 0 -> Expr.Gt (Expr.Col "k", Expr.Const (Value.Int 2))
      | 1 -> Expr.Eq (Expr.Col "g", Expr.Const (Value.Int 1))
      | _ -> Expr.Is_not_null (Expr.Col "f"))
  else None

let num_cols = [| "g"; "k"; "f" |]
let any_col rng = Expr.Col order_cols.(Rng.int rng (Array.length order_cols))
let num_col rng = Expr.Col num_cols.(Rng.int rng (Array.length num_cols))

let gen_item rng ~name =
  let filter = gen_filter rng in
  let order = if Rng.bool rng then [] else [ gen_key rng ] in
  let ignore_nulls = Rng.int rng 3 = 0 in
  match Rng.int rng 18 with
  | 0 -> Wf.count_star ?filter ~name ()
  | 1 -> Wf.count ?filter ~distinct:true ~name (any_col rng)
  | 2 -> Wf.sum ?filter ~distinct:(Rng.bool rng) ~name (num_col rng)
  | 3 -> Wf.min_ ?filter ~name (any_col rng)
  | 4 -> Wf.max_ ?filter ~name (any_col rng)
  | 5 -> Wf.mode ?filter ~name (any_col rng)
  | 6 -> Wf.rank ?filter ~name order
  | 7 -> Wf.dense_rank ?filter ~name order
  | 8 -> Wf.percent_rank ?filter ~name order
  | 9 ->
      let p = [| 0.0; 0.25; 0.5; 0.9; 1.0 |].(Rng.int rng 5) in
      if Rng.bool rng then Wf.percentile_disc ?filter ~name p [ gen_key rng ]
      else Wf.percentile_cont ?filter ~name p [ gen_key rng ]
  | 10 -> Wf.first_value ?filter ~ignore_nulls ~order ~name (any_col rng)
  | 11 -> Wf.ntile ?filter ~name (1 + Rng.int rng 4) order
  | 12 -> Wf.last_value ?filter ~ignore_nulls ~order ~name (any_col rng)
  | 13 ->
      Wf.nth_value ?filter ~ignore_nulls ~order ~from_last:(Rng.bool rng) ~name
        (1 + Rng.int rng 3) (any_col rng)
  | 14 | 15 ->
      (* LEAD/LAG with and without their own ORDER BY, IGNORE NULLS and a
         default (the argument read at the current row: same type) *)
      let mk = if Rng.bool rng then Wf.lead else Wf.lag in
      let arg = any_col rng in
      let default = if Rng.bool rng then Some arg else None in
      mk ?filter ~ignore_nulls ~order ~offset:(Rng.int rng 4) ?default ~name arg
  | 16 -> Wf.cume_dist ?filter ~name order
  | _ -> if Rng.bool rng then Wf.row_number ?filter ~name order else Wf.avg ?filter ~name (num_col rng)

let partition_pool =
  [|
    [];
    [ Expr.Col "g" ];
    [ Expr.Col "s" ];
    [ Expr.Col "f" ];
    [ Expr.Add (Expr.Col "k", Expr.Const (Value.Int 1)) ];
    [ Expr.Col "g"; Expr.Col "k" ];
  |]

let gen_clauses rng =
  let nclauses = 1 + Rng.int rng 3 in
  let names = ref 0 in
  List.init nclauses (fun _ ->
      let partition_by = partition_pool.(Rng.int rng (Array.length partition_pool)) in
      let order_by =
        match Rng.int rng 4 with 0 -> [] | 1 | 2 -> [ gen_key rng ] | _ -> [ gen_key rng; gen_key rng ]
      in
      let spec = { Ws.partition_by; order_by; frame = gen_frame rng } in
      let items =
        List.init (1 + Rng.int rng 2) (fun _ ->
            let name = Printf.sprintf "w%d" !names in
            incr names;
            gen_item rng ~name)
      in
      { Window_plan.spec; items })

(* Eviction predicates reach every typed loop of [Expr.select] in both
   operand orders, with boundary constants ([min_int], [max_int], NaN,
   [-0.]) and an Int column against a Float, its NULL tests, its mask
   algebra through AND / OR / NOT, and the row-at-a-time fallback (an
   arithmetic operand). *)
let rec gen_evict_pred rng depth =
  let int_const () =
    match Rng.int rng 6 with 0 -> min_int | 1 -> max_int | _ -> Rng.int_in rng (-3) 8
  in
  let float_const () =
    match Rng.int rng 5 with 0 -> Float.nan | 1 -> -0.0 | _ -> gen_float rng
  in
  let leaf () =
    let operand, k =
      match Rng.int rng 7 with
      | 0 -> (Expr.Col "k", Value.Int (int_const ()))
      | 1 -> (Expr.Col "g", Value.Int (int_const ()))
      | 2 -> (Expr.Col "f", Value.Float (float_const ()))
      | 3 -> (Expr.Col "k", Value.Float (float_const ()))
      | 4 -> (Expr.Col "s", Value.String [| ""; "a"; "c"; "dd"; "e" |].(Rng.int rng 5))
      | 5 -> (Expr.Col "d", Value.Date (Value.date_of_ymd 2024 1 (15 + Rng.int rng 15)))
      | _ -> (Expr.Add (Expr.Col "k", Expr.Const (Value.Int 1)), Value.Int (int_const ()))
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
    match Rng.int rng 8 with
    | 0 -> Expr.Is_null operand
    | 1 -> Expr.Is_not_null operand
    | 2 | 3 -> cmp (Expr.Const k) operand
    | _ -> cmp operand (Expr.Const k)
  in
  if depth = 0 || Rng.int rng 3 > 0 then leaf ()
  else
    match Rng.int rng 3 with
    | 0 -> Expr.And (gen_evict_pred rng (depth - 1), gen_evict_pred rng (depth - 1))
    | 1 -> Expr.Or (gen_evict_pred rng (depth - 1), gen_evict_pred rng (depth - 1))
    | _ -> Expr.Not (gen_evict_pred rng (depth - 1))

(* One eviction: a prefix of at most [max_prefix] rows, or the rows a
   random predicate selects. The mask comes from [Expr.select], checked
   against the row-at-a-time evaluation on the session's table, whose
   columns have room past their length once it was evicted from. *)
let evict_step rng session ~ops ~ctx ~max_prefix =
  let table = Session.table session in
  let n = Table.nrows table in
  if Rng.bool rng then begin
    let k = Rng.int rng (max_prefix + 1) in
    ops := Printf.sprintf "evict_prefix %d" k :: !ops;
    Session.evict session (Bitset.init n (fun i -> i < k))
  end
  else begin
    let e = gen_evict_pred rng 2 in
    ops := ("evict where " ^ Expr.to_string e) :: !ops;
    let gone = Expr.select table e in
    let f = Expr.compile table e in
    for i = 0 to n - 1 do
      if Bitset.get gone i <> Expr.to_bool (f i) then
        Alcotest.failf "%s: row %d: Expr.select disagrees with the row-at-a-time predicate"
          (ctx ()) i
    done;
    Session.evict session gone
  end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(* Bit-level equality: a maintained structure may not perturb results even
   in the last ulp, NaN payloads and signed zeros included. *)
let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> compare a b = 0

let check_identical ~ctx expected actual =
  List.iter
    (fun (name, c0) ->
      let c = Table.column actual name in
      for r = 0 to Table.nrows expected - 1 do
        let v0 = Column.get c0 r and v = Column.get c r in
        if not (value_identical v0 v) then
          Alcotest.failf "%s: row %d col %s: rebuild %s, session %s" (ctx ()) r name
            (Value.to_string v0) (Value.to_string v)
      done)
    (Table.columns expected)

(* ------------------------------------------------------------------ *)
(* Fuzz driver                                                         *)
(* ------------------------------------------------------------------ *)

let bound_to_string = function
  | Ws.Unbounded_preceding -> "unbounded preceding"
  | Ws.Preceding e -> Expr.to_string e ^ " preceding"
  | Ws.Current_row -> "current row"
  | Ws.Following e -> Expr.to_string e ^ " following"
  | Ws.Unbounded_following -> "unbounded following"

let frame_to_string = function
  | None -> "<default>"
  | Some (f : Ws.frame) ->
      Printf.sprintf "%s between %s and %s%s"
        (match f.mode with Ws.Rows -> "rows" | Ws.Range -> "range" | Ws.Groups -> "groups")
        (bound_to_string f.start_bound) (bound_to_string f.end_bound)
        (match f.exclusion with
        | Ws.Exclude_no_others -> ""
        | Ws.Exclude_current_row -> " exclude current row"
        | Ws.Exclude_group -> " exclude group"
        | Ws.Exclude_ties -> " exclude ties")

let clause_to_string (c : Window_plan.clause) =
  Printf.sprintf "over (partition by [%s] order by [%s] frame %s) items [%s]"
    (String.concat "; " (List.map Expr.to_string c.spec.Ws.partition_by))
    (Sort_spec.to_string c.spec.Ws.order_by)
    (frame_to_string c.spec.Ws.frame)
    (String.concat "; "
       (List.map
          (fun (it : Wf.t) ->
            Printf.sprintf "%s=%s%s" it.Wf.name (Wf.class_name it)
              (match it.Wf.filter with None -> "" | Some e -> " filter " ^ Expr.to_string e))
          c.items))

let table_to_string table =
  let buf = Buffer.create 256 in
  for r = 0 to Table.nrows table - 1 do
    Buffer.add_string buf (Printf.sprintf "  %2d:" r);
    List.iter
      (fun (name, c) ->
        Buffer.add_string buf (Printf.sprintf " %s=%s" name (Value.to_string (Column.get c r))))
      (Table.columns table);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* A copy of [table] without order codes: a full sort may leave codes
   behind in the columns it sorts, which would change what the session's
   next append reads. *)
let code_free table = Table.append table (Table.gather table [||])

(* A stage's permutation and boundaries against a stateless full sort of
   [table] by [(pb, order)]. *)
let check_sorted ~pool ~ctx table ~pb ~order perm boundaries =
  let pids = Session.partition_ids pool table pb in
  let perm0, b0, _ = Session.full_sort pool table ~pids ~order in
  Alcotest.(check (array int)) (ctx ^ ": permutation") perm0 perm;
  Alcotest.(check (array int)) (ctx ^ ": boundaries") b0 boundaries

(* Every stored stage equals a fresh sort after every mutation. *)
let check_stages ~pool ~ctx session =
  let table = code_free (Session.table session) in
  List.iter
    (fun (pb, order, perm, boundaries) ->
      let ctx =
        Printf.sprintf "%s: stage (%s) by %s" ctx
          (String.concat ", " (List.map Expr.to_string pb))
          (Sort_spec.to_string order)
      in
      check_sorted ~pool ~ctx table ~pb ~order perm boundaries)
    (Session.stages session)

(* Every table a session handed out keeps reading its own rows after
   later appends and evictions, however its columns' buffers are shared
   with the newer tables: its values, its length and its NULL counts. *)
let column_state c =
  ( Array.init (Column.length c) (Column.get c),
    Option.map Bitset.count (Column.null_mask c) )

let snapshot table = (table, List.map (fun (_, c) -> column_state c) (Table.columns table))

let check_snapshots ~ctx snapshots =
  List.iteri
    (fun k (table, state) ->
      List.iter2
        (fun (name, c) (values, nulls) ->
          let values', nulls' = column_state c in
          if
            nulls <> nulls'
            || Array.length values <> Array.length values'
            || not (Array.for_all2 value_identical values values')
          then Alcotest.failf "%s: table %d back, column %s no longer reads its own rows" ctx k name)
        (Table.columns table) state)
    snapshots

(* The checks after every mutation: every stored stage equals a fresh
   sort, and every table the session held before still reads its own
   rows. *)
let checks_after_mutation ~pool session =
  let snapshots = ref [ snapshot (Session.table session) ] in
  fun ~ctx ->
    check_stages ~pool ~ctx session;
    snapshots := snapshot (Session.table session) :: !snapshots;
    check_snapshots ~ctx !snapshots

let run_case ~pool rng idx ~seed =
  let rng = Rng.split rng in
  let session = Session.create ~pool (gen_table rng) in
  (* a small pool of recurring query shapes, so re-queries hit cached
     structures and outputs instead of always populating fresh entries *)
  let shapes = Array.init (1 + Rng.int rng 2) (fun _ -> gen_clauses rng) in
  let ops = ref [] in
  let trace () =
    Printf.sprintf "FUZZ_SEED=%d case %d after [%s]" seed idx
      (String.concat "; " (List.rev !ops))
  in
  let mutated = checks_after_mutation ~pool session in
  let query () =
    let clauses = shapes.(Rng.int rng (Array.length shapes)) in
    let table = Session.table session in
    let ctx () =
      Printf.sprintf "%s\n%s\n%s" (trace ())
        (String.concat "\n" (List.map clause_to_string clauses))
        (table_to_string table)
    in
    let actual =
      try Window_plan.run ~pool ~session table clauses
      with e -> Alcotest.failf "%s: session run raised %s" (ctx ()) (Printexc.to_string e)
    in
    let expected = Window_plan.run ~pool table clauses in
    check_identical ~ctx expected actual
  in
  let nops = 3 + Rng.int rng 6 in
  for _ = 1 to nops do
    match Rng.int rng 5 with
    | 0 ->
        let delta = gen_delta rng in
        ops := Printf.sprintf "append %d" (Table.nrows delta) :: !ops;
        Session.append_rows session delta;
        mutated ~ctx:(trace ())
    | 1 ->
        evict_step rng session ~ops ~ctx:trace
          ~max_prefix:(Table.nrows (Session.table session));
        mutated ~ctx:(trace ())
    | _ ->
        ops := "query" :: !ops;
        query ()
  done;
  (* always finish on a query so every mutation run gets checked *)
  ops := "query" :: !ops;
  query ()

let test_fuzz () =
  let seed = env_int "FUZZ_SEED" 20240809 in
  let cases = env_int "FUZZ_CASES" 350 in
  let domains = env_int "HOLIWIN_DOMAINS" 1 in
  let pool = Task_pool.create domains in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create seed in
      let only = env_int "FUZZ_ONLY" (-1) in
      for idx = 0 to cases - 1 do
        if only >= 0 && idx <> only then ignore (Rng.split rng)
        else run_case ~pool rng idx ~seed
      done)

(* ------------------------------------------------------------------ *)
(* In-order append fuzz                                                *)
(* ------------------------------------------------------------------ *)

(* The leg that reaches partial output reuse: a re-query after an
   in-order append probes only the rows whose frame, peer group or
   exclusion holes reach a new row and copies every other row's cached
   answer.  Its tables carry a time column [t] with few distinct values,
   so peer groups are wide, and every ORDER BY leads with [t] ascending.
   An in-order delta draws [t] from the table's current maximum and just
   above it, so its rows sort after every old row of their partition —
   exact ties with the last old key included, which the row-id tie-break
   settles in the delta's favour unless a second ORDER BY key puts a tied
   row ahead (then the store sees an interleaving append). *)

let with_time rng ~lo table =
  let n = Table.nrows table in
  let table =
    Table.add_column table "t" (Column.ints (Array.init n (fun _ -> Rng.int_in rng lo (lo + 2))))
  in
  (* values whose sums round: the order a sum adds up in shows *)
  Table.add_column table "x" (Column.floats (Array.init n (fun _ -> Rng.float rng 100.)))

let max_time table =
  match Column.data (Table.column table "t") with
  | Column.Ints a -> Array.fold_left max 0 a
  | _ -> assert false

let time_key = Sort_spec.asc (Expr.Col "t")

(* FOLLOWING offsets as often as PRECEDING ones, constant or per row *)
let gen_io_bound rng =
  match Rng.int rng 7 with
  | 0 -> Ws.Unbounded_preceding
  | 1 | 2 -> Ws.Preceding (gen_offset rng)
  | 3 -> Ws.Current_row
  | 4 | 5 -> Ws.Following (gen_offset rng)
  | _ -> Ws.Unbounded_following

(* RANGE only over the lone int key [t]; GROUPS and ROWS over any order *)
let gen_io_frame rng ~ranged =
  let exclusion = gen_exclusion rng in
  let lo = gen_io_bound rng and hi = gen_io_bound rng in
  match Rng.int rng 5 with
  | 0 -> None
  | 1 when ranged -> Some (Ws.range_between ~exclusion lo hi)
  | 1 | 2 -> Some (Ws.groups_between ~exclusion lo hi)
  | _ -> Some (Ws.rows_between ~exclusion lo hi)

(* Half the items pinned to a random backend that can run them, so the
   restricted probes run on every backend, sliding ones included. *)
let gen_pinned_item rng ~name ~holed =
  let item =
    if Rng.int rng 4 > 0 then gen_item rng ~name
    else
      let filter = gen_filter rng and distinct = Rng.bool rng in
      (if Rng.bool rng then Wf.sum else Wf.avg) ?filter ~distinct ~name (Expr.Col "x")
  in
  let cls = Evaluator_choice.classify item in
  match List.filter (fun b -> Evaluator_choice.supports b cls ~holed) Evaluator_choice.all with
  | backends when backends <> [] && Rng.bool rng ->
      { item with Wf.algorithm = Some (List.nth backends (Rng.int rng (List.length backends))) }
  | _ -> item

let gen_io_items rng ~names (spec : Ws.t) =
  let holed =
    match spec.Ws.frame with
    | Some f -> f.Ws.exclusion <> Ws.Exclude_no_others
    | None -> false
  in
  List.init (1 + Rng.int rng 2) (fun _ ->
      let name = Printf.sprintf "w%d" !names in
      incr names;
      gen_pinned_item rng ~name ~holed)

let gen_io_clauses rng ~names =
  List.init (1 + Rng.int rng 3) (fun _ ->
      let partition_by = partition_pool.(Rng.int rng (Array.length partition_pool)) in
      let order_by =
        match Rng.int rng 5 with
        | 0 -> []
        | 1 | 2 -> [ time_key ]
        | _ -> [ time_key; gen_key rng ]
      in
      let spec =
        { Ws.partition_by; order_by; frame = gen_io_frame rng ~ranged:(order_by = [ time_key ]) }
      in
      { Window_plan.spec; items = gen_io_items rng ~names spec })

(* Query shapes for one case: a second shape either draws its own
   clauses or re-uses the first one's OVER clauses with other items, so
   the two share every stage but not their cached outputs. *)
let gen_io_shapes rng =
  let names = ref 0 in
  let first = gen_io_clauses rng ~names in
  match Rng.int rng 3 with
  | 0 -> [| first |]
  | 1 -> [| first; gen_io_clauses rng ~names |]
  | _ ->
      let sibling =
        List.map
          (fun (c : Window_plan.clause) -> { c with Window_plan.items = gen_io_items rng ~names c.spec })
          first
      in
      [| first; sibling |]

let partial_reuse_spans (trace : Holistic_obs.Obs.trace) =
  List.length
    (List.filter
       (fun (sp : Holistic_obs.Obs.span) ->
         sp.Holistic_obs.Obs.name = "item"
         &&
         match List.assoc_opt "cache" sp.Holistic_obs.Obs.args with
         | Some c -> String.starts_with ~prefix:"maintained(probed=" c
         | None -> false)
       trace.Holistic_obs.Obs.spans)

let run_in_order_case ~pool ~partial rng idx ~seed =
  let rng = Rng.split rng in
  let session = Session.create ~pool (with_time rng ~lo:0 (gen_table rng)) in
  let shapes = gen_io_shapes rng in
  (* small tasks cut the affected ranges into several pieces per task and
     several tasks per partition *)
  let task_size = [| 1; 3; 7; Task_pool.default_task_size |].(Rng.int rng 4) in
  let ops = ref [ Printf.sprintf "task_size %d" task_size ] in
  let trace () =
    Printf.sprintf "FUZZ_SEED=%d in-order case %d after [%s]" seed idx
      (String.concat "; " (List.rev !ops))
  in
  let mutated = checks_after_mutation ~pool session in
  let append ~in_order =
    let table = Session.table session in
    let top = max_time table in
    let lo = if in_order then top else max 0 (top - 3) in
    let delta = with_time rng ~lo (gen_delta rng) in
    ops :=
      Printf.sprintf "%s %d" (if in_order then "append" else "append_interleaved") (Table.nrows delta)
      :: !ops;
    Session.append_rows session delta;
    mutated ~ctx:(trace ())
  in
  let query () =
    let clauses = shapes.(Rng.int rng (Array.length shapes)) in
    let table = Session.table session in
    let ctx () =
      Printf.sprintf "%s\n%s\n%s" (trace ())
        (String.concat "\n" (List.map clause_to_string clauses))
        (table_to_string table)
    in
    let actual, spans =
      try Holistic_obs.Obs.with_capture (fun () -> Window_plan.run ~pool ~task_size ~session table clauses)
      with e -> Alcotest.failf "%s: session run raised %s" (ctx ()) (Printexc.to_string e)
    in
    partial := !partial + partial_reuse_spans spans;
    let expected = Window_plan.run ~pool ~task_size table clauses in
    check_identical ~ctx expected actual
  in
  ops := "query" :: !ops;
  query ();
  for _ = 1 to 2 + Rng.int rng 5 do
    match Rng.int rng 10 with
    | 0 | 1 | 2 ->
        append ~in_order:true;
        ops := "query" :: !ops;
        query ()
    | 3 | 4 ->
        (* two or three appends between queries *)
        for _ = 1 to 2 + Rng.int rng 2 do
          append ~in_order:true
        done;
        ops := "query" :: !ops;
        query ()
    | 5 -> append ~in_order:false
    | 6 ->
        evict_step rng session ~ops ~ctx:trace
          ~max_prefix:(Table.nrows (Session.table session) / 4);
        mutated ~ctx:(trace ())
    | _ ->
        ops := "query" :: !ops;
        query ()
  done;
  ops := "query" :: !ops;
  query ()

let test_fuzz_in_order () =
  let seed = env_int "FUZZ_SEED" 20240809 in
  let cases = env_int "FUZZ_CASES" 350 in
  let domains = env_int "HOLIWIN_DOMAINS" 1 in
  let pool = Task_pool.create domains in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create (seed + 1) in
      let only = env_int "FUZZ_ONLY" (-1) in
      let partial = ref 0 in
      for idx = 0 to cases - 1 do
        if only >= 0 && idx <> only then ignore (Rng.split rng)
        else run_in_order_case ~pool ~partial rng idx ~seed
      done;
      (* the leg exists to reach partial reuse: most cases must *)
      if only < 0 && !partial < cases then
        Alcotest.failf "FUZZ_SEED=%d: only %d item(s) over %d cases re-used a partial output" seed
          !partial cases)

(* ------------------------------------------------------------------ *)
(* Directed maintenance and reuse checks                               *)
(* ------------------------------------------------------------------ *)

let directed_table n =
  Table.create
    [
      ("g", Column.ints (Array.init n (fun i -> i mod 8)));
      ("k", Column.ints (Array.init n (fun i -> i)));
      ("v", Column.floats (Array.init n (fun i -> float_of_int (i * 7 mod 101))));
    ]

let directed_delta ~base n =
  Table.create
    [
      ("g", Column.ints (Array.init n (fun i -> i mod 8)));
      ("k", Column.ints (Array.init n (fun i -> base + i)));
      ("v", Column.floats (Array.init n (fun i -> float_of_int ((i * 13) mod 89))));
    ]

let directed_clauses =
  let spec =
    {
      Ws.partition_by = [ Expr.Col "g" ];
      order_by = [ Sort_spec.asc (Expr.Col "k") ];
      frame = Some (Ws.rows_between (Ws.preceding 20) Ws.Current_row);
    }
  in
  [
    {
      Window_plan.spec;
      items =
        [
          Wf.rank ~name:"r" [];
          Wf.percentile_disc ~name:"med" 0.5 [ Sort_spec.asc (Expr.Col "v") ];
          Wf.count ~distinct:true ~name:"dc" (Expr.Col "v");
        ];
    };
  ]

(* An in-order append (every new ORDER BY key sorts after the existing
   partition rows) must maintain, not rebuild: the sort is served by the
   session (no full sort), rank encodings extend, MSTs run-stack. *)
let test_extend_append () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let session = Session.create ~pool (directed_table 2048) in
      let _, s1 =
        Window_plan.run_with_stats ~pool ~session (Session.table session) directed_clauses
      in
      Alcotest.(check int) "first run sorts from scratch" 1 s1.Window_plan.full_sorts;
      Session.append_rows session (directed_delta ~base:2048 256);
      let table = Session.table session in
      let actual, s2 = Window_plan.run_with_stats ~pool ~session table directed_clauses in
      Alcotest.(check int) "sort served by the session" 1 s2.Window_plan.session_sorts;
      Alcotest.(check int) "no full re-sort" 0 s2.Window_plan.full_sorts;
      let c = Session.counters session in
      Alcotest.(check bool) "structures were maintained" true
        (Atomic.get c.Build_cache.maintained > 0);
      check_identical
        ~ctx:(fun () -> "extend_append")
        (Window_plan.run ~pool table directed_clauses)
        actual)

(* An ORDER BY that starts with an interval key compiles to no key words:
   the residual alone orders it. Appends still maintain its stored
   permutation — the appended rows are sorted and merged in, in order or
   interleaved with the old keys — rather than re-sorting, and every query
   stays bit-identical to a stateless run. *)
let test_residual_order_append () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let days = Expr.Mul (Expr.Col "k", Expr.Const (Value.Interval { Value.months = 0; days = 1 })) in
      let order = [ Sort_spec.asc days ] in
      let spec =
        {
          Ws.partition_by = [];
          order_by = order;
          frame = Some (Ws.rows_between (Ws.preceding 20) Ws.Current_row);
        }
      in
      let clauses =
        [
          {
            Window_plan.spec;
            items =
              [
                Wf.rank ~name:"r" [];
                Wf.percentile_disc ~name:"med" 0.5 [ Sort_spec.asc (Expr.Col "v") ];
              ];
          };
        ]
      in
      let session = Session.create ~pool (directed_table 512) in
      ignore (Window_plan.run ~pool ~session (Session.table session) clauses);
      List.iter
        (fun (label, delta) ->
          Session.append_rows session delta;
          (match Session.lookup session ~pb:[] ~order with
          | Some st ->
              Alcotest.(check string) (label ^ ": stage order maintained")
                (Printf.sprintf "maintained(+%d rows)" (Table.nrows delta))
                st.Session.prov
          | None -> Alcotest.failf "%s: stage not stored" label);
          let table = Session.table session in
          check_identical
            ~ctx:(fun () -> "residual order, " ^ label)
            (Window_plan.run ~pool table clauses)
            (Window_plan.run ~pool ~session table clauses))
        [ ("in order", directed_delta ~base:512 64); ("interleaved", directed_delta ~base:100 64) ])

(* An unchanged table serves the whole second run from the store: sorts,
   structures and per-item outputs, with zero new builds. *)
let test_output_reuse () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let session = Session.create ~pool (directed_table 1024) in
      let table = Session.table session in
      let r1, _ = Window_plan.run_with_stats ~pool ~session table directed_clauses in
      let r2, s2 = Window_plan.run_with_stats ~pool ~session table directed_clauses in
      Alcotest.(check int) "no encodes built" 0 s2.Window_plan.encode_builds;
      Alcotest.(check int) "no trees built" 0 s2.Window_plan.tree_builds;
      Alcotest.(check int) "sort reused" 1 s2.Window_plan.session_sorts;
      check_identical ~ctx:(fun () -> "output_reuse") r1 r2)

(* A re-query after an in-order append of [d] rows probes only the rows
   whose frame reaches a new row: the [d] new ones under a backward-only
   ROWS frame, and [f] old ones more under [f] FOLLOWING.  The item span
   reports it, and the capture counts probed and copied rows. *)
let test_partial_probe () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 1000 and d = 37 in
      let clause following =
        {
          Window_plan.spec =
            {
              Ws.partition_by = [];
              order_by = [ Sort_spec.asc (Expr.Col "k") ];
              frame = Some (Ws.rows_between (Ws.preceding 20) following);
            };
          items =
            [
              Wf.rank ~name:"r" [];
              Wf.percentile_disc ~name:"med" 0.5 [ Sort_spec.asc (Expr.Col "v") ];
            ];
        }
      in
      List.iter
        (fun (label, following, extra) ->
          let clauses = [ clause following ] in
          let session = Session.create ~pool (directed_table n) in
          ignore (Window_plan.run ~pool ~session (Session.table session) clauses);
          Session.append_rows session (directed_delta ~base:n d);
          let table = Session.table session in
          let actual, trace =
            Holistic_obs.Obs.with_capture (fun () -> Window_plan.run ~pool ~session table clauses)
          in
          let tags =
            List.filter_map
              (fun (sp : Holistic_obs.Obs.span) ->
                if sp.Holistic_obs.Obs.name = "item" then List.assoc_opt "cache" sp.Holistic_obs.Obs.args
                else None)
              trace.Holistic_obs.Obs.spans
          in
          let want = Printf.sprintf "maintained(probed=%d of %d)" (d + extra) (n + d) in
          Alcotest.(check (list string)) (label ^ ": item spans") [ want; want ] tags;
          let counter name =
            Option.value ~default:0 (List.assoc_opt name trace.Holistic_obs.Obs.counters)
          in
          Alcotest.(check int) (label ^ ": probed rows") (2 * (d + extra)) (counter "cache.probed_rows");
          Alcotest.(check int) (label ^ ": copied rows") (2 * (n - extra)) (counter "cache.copied_rows");
          check_identical
            ~ctx:(fun () -> "partial probe, " ^ label)
            (Window_plan.run ~pool table clauses)
            actual)
        [ ("backward-only", Ws.Current_row, 0); ("3 following", Ws.following 3, 3) ])

(* Bulk prefix eviction compacts the cached state without re-sorting;
   queries after it stay bit-identical to a rebuild. *)
let test_evict () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let session = Session.create ~pool (directed_table 2048) in
      ignore (Window_plan.run ~pool ~session (Session.table session) directed_clauses);
      let evict e = Session.evict session (Expr.select (Session.table session) e) in
      evict (Expr.Lt (Expr.Col "k", Expr.Const (Value.Int 512)));
      Alcotest.(check int) "rows evicted" (2048 - 512) (Table.nrows (Session.table session));
      Alcotest.(check int) "epoch advanced" 1 (Session.epoch session);
      let table = Session.table session in
      let actual, s =
        Window_plan.run_with_stats ~pool ~session table directed_clauses
      in
      Alcotest.(check int) "sort survives the eviction" 1 s.Window_plan.session_sorts;
      check_identical
        ~ctx:(fun () -> "evict")
        (Window_plan.run ~pool table directed_clauses)
        actual;
      (* evict everything: the store must survive an empty table *)
      evict (Expr.Const (Value.Bool true));
      Alcotest.(check int) "empty" 0 (Table.nrows (Session.table session));
      ignore (Window_plan.run ~pool ~session (Session.table session) directed_clauses))

(* Two sessions over one table with room append in turn: the first
   append claims the room, the other session's copies, and from then on
   each writes into its own buffer. Both answer like a fresh query, and
   the shared table keeps reading its own rows. *)
let test_two_sessions_one_table () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let table = Table.append (directed_table 1000) (directed_delta ~base:1000 10) in
      let shared = snapshot table in
      let s1 = Session.create ~pool table and s2 = Session.create ~pool table in
      let buffer t = Column.buffer (Table.column t "k") in
      let shares a b = match (a, b) with Column.Ints x, Column.Ints y -> x == y | _ -> false in
      let answers label s =
        let t = Session.table s in
        check_identical
          ~ctx:(fun () -> label)
          (Window_plan.run ~pool t directed_clauses)
          (Window_plan.run ~pool ~session:s t directed_clauses)
      in
      answers "first session, before" s1;
      answers "second session, before" s2;
      let s2_buffer = ref None in
      for round = 0 to 3 do
        let base = 1010 + (round * 40) in
        Session.append_rows s1 (directed_delta ~base 20);
        Session.append_rows s2 (directed_delta ~base:(base + 20) 20);
        if round = 0 then begin
          Alcotest.(check bool) "the first session writes in place" true
            (shares (buffer (Session.table s1)) (buffer table));
          Alcotest.(check bool) "the second one copies" false
            (shares (buffer (Session.table s2)) (buffer table));
          s2_buffer := Some (buffer (Session.table s2))
        end;
        let label = Printf.sprintf "round %d" round in
        answers (label ^ ", first session") s1;
        answers (label ^ ", second session") s2;
        check_snapshots ~ctx:label [ shared ]
      done;
      Alcotest.(check bool) "then the second session writes in place too" true
        (shares (buffer (Session.table s2)) (Option.get !s2_buffer));
      Alcotest.(check int) "each session has its rows" (1010 + 80) (Table.nrows (Session.table s1));
      Alcotest.(check int) "and so has the shared table" 1010 (Table.nrows table))

(* Appending to a table with room costs the delta: 64 rows allocate the
   same number of words onto 10 000 rows as onto 40 000. *)
let test_append_words () =
  let tbl n =
    let nulls = Bitset.create n in
    for i = 0 to n - 1 do
      if i mod 7 = 0 then Bitset.set nulls i
    done;
    Table.create
      [
        ("i", Column.ints (Array.init n Fun.id));
        ("f", Column.make ~nulls (Column.Floats (Array.init n float_of_int)));
        ("s", Column.strings (Array.init n string_of_int));
      ]
  in
  (* [Gc.minor_words] is exact at any point, where [Gc.counters]' minor
     count can lag; large arrays go straight to the major heap *)
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let words n =
    let t = Table.append (tbl n) (tbl 1) in
    let delta = tbl 64 in
    let before = allocated () in
    let t' = Table.append t delta in
    let after = allocated () in
    Alcotest.(check int) "rows" (n + 65) (Table.nrows t');
    int_of_float (after -. before)
  in
  let small = words 10_000 and large = words 40_000 in
  Alcotest.(check int) "same words at n and 4n" small large;
  Alcotest.(check bool) (Printf.sprintf "%d words: no column copied" small) true (small < 1_000)

(* A session passed alongside a table it does not own must stay inert:
   stateless execution, no session stats, no state mutation. *)
let test_foreign_table () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let session = Session.create ~pool (directed_table 64) in
      let other = directed_table 128 in
      let r, s = Window_plan.run_with_stats ~pool ~session other directed_clauses in
      Alcotest.(check int) "no session sorts" 0 s.Window_plan.session_sorts;
      Alcotest.(check int) "session untouched" 0 (Session.epoch session);
      check_identical
        ~ctx:(fun () -> "foreign_table")
        (Window_plan.run ~pool other directed_clauses)
        r)

(* The SQL front door: queries through ~session, session_append /
   session_evict with predicates in SQL text, and EXPLAIN ANALYZE
   provenance tags. *)
let test_sql_session () =
  let module Sql = Holistic_sql.Sql in
  let session = Sql.session_create ~pool:Shared_pool.pool (directed_table 512) in
  let q =
    "select g, k, rank() over w as r, median(v) over w as m from t \
     window w as (partition by g order by k rows between 20 preceding and current row)"
  in
  let tables () = [ ("t", Sql.session_table session) ] in
  let oracle () = Sql.query ~pool:Shared_pool.pool ~tables:(tables ()) q in
  let via_session () = Sql.query ~pool:Shared_pool.pool ~session ~tables:(tables ()) q in
  check_identical ~ctx:(fun () -> "sql first") (oracle ()) (via_session ());
  Sql.session_append session (directed_delta ~base:512 64);
  Alcotest.(check int) "rows appended" 576 (Table.nrows (Sql.session_table session));
  check_identical ~ctx:(fun () -> "sql after append") (oracle ()) (via_session ());
  let report = Sql.render_analyze q (Sql.explain_analyze_trace ~pool:Shared_pool.pool ~session ~tables:(tables ()) q) in
  let contains sub =
    let n = String.length report and m = String.length sub in
    let rec go i = i + m <= n && (String.sub report i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "provenance tag rendered" true
    (contains "cache=reused" || contains "cache=maintained");
  (* right after an in-order append, EXPLAIN ANALYZE shows the items
     probing only the affected rows *)
  Sql.session_append session (directed_delta ~base:576 8);
  let report = Sql.render_analyze q (Sql.explain_analyze_trace ~pool:Shared_pool.pool ~session ~tables:(tables ()) q) in
  let contains sub =
    let n = String.length report and m = String.length sub in
    let rec go i = i + m <= n && (String.sub report i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "partial probe rendered" true (contains "cache=maintained(probed=1 of 73)");
  Sql.session_evict session "k < 100";
  Alcotest.(check int) "rows evicted" 484 (Table.nrows (Sql.session_table session));
  check_identical ~ctx:(fun () -> "sql after evict") (oracle ()) (via_session ());
  Alcotest.check_raises "malformed predicate"
    (Sql.Semantic_error "unknown column \"nope\"")
    (fun () -> Sql.session_evict session "nope < 1")

(* ------------------------------------------------------------------ *)
(* Directed splice legs                                                *)
(* ------------------------------------------------------------------ *)

(* An append splices the sorted delta into the partitions it touches and
   copies every other one.  Each leg checks the maintained stage bit for
   bit against a stateless full sort of the appended table — permutation
   and boundaries — and checks how the append classified its parts. *)

let splice_rows ~g ~k =
  let strs = [| "x"; "yy"; "a"; "q"; "mm" |] in
  Table.create
    [
      ("g", Column.ints g);
      ("k", Column.ints k);
      (* thirds: the float key needs a second word for its low bits *)
      ("v", Column.floats (Array.map (fun k -> float_of_int (k * 7 mod 101) /. 3.) k));
      ("s", Column.strings (Array.map (fun k -> strs.(abs k mod 5)) k));
    ]

let status_name = function Session.Reused -> "R" | Session.Extended -> "X" | Session.Rebuilt -> "B"

(* The stored stage of [(pb, order)] against a full sort ({!check_sorted});
   returns the provenance and the parts' statuses. *)
let check_stage ~pool ~ctx session ~pb ~order =
  match Session.lookup session ~pb ~order with
  | None -> Alcotest.failf "%s: stage not stored" ctx
  | Some st ->
      check_sorted ~pool ~ctx (code_free (Session.table session)) ~pb ~order st.Session.perm
        st.Session.boundaries;
      ( st.Session.prov,
        String.concat "" (Array.to_list (Array.map (fun p -> status_name p.Session.status) st.Session.parts)) )

(* A session holding one stage of [(pb, order)]; [append] applies a delta,
   checks the stage, its provenance and part statuses ("R" reused, "X"
   extended, "B" rebuilt, in partition order), then a query's results. *)
let splice_session ~pool ~pb ~order table =
  let clauses =
    [
      {
        Window_plan.spec =
          { Ws.partition_by = pb; order_by = order; frame = Some (Ws.rows_between (Ws.preceding 2) Ws.Current_row) };
        items = [ Wf.row_number ~name:"rn" []; Wf.count_star ~name:"c" () ];
      };
    ]
  in
  let session = Session.create ~pool table in
  let query ctx =
    let table = Session.table session in
    check_identical ~ctx:(fun () -> ctx) (Window_plan.run ~pool table clauses)
      (Window_plan.run ~pool ~session table clauses)
  in
  query "first query";
  let append ~ctx ~statuses delta =
    Session.append_rows session delta;
    let got_prov, got = check_stage ~pool ~ctx session ~pb ~order in
    Alcotest.(check string) (ctx ^ ": provenance")
      (Printf.sprintf "maintained(+%d rows)" (Table.nrows delta))
      got_prov;
    Alcotest.(check string) (ctx ^ ": part statuses") statuses got;
    query ctx
  in
  (session, query, append)

let by_k = [ Sort_spec.asc (Expr.Col "k") ]

let test_splice_partitions () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 60 in
      (* labels 10, 20, 30 *)
      let table = splice_rows ~g:(Array.init n (fun i -> 10 * (1 + (i mod 3)))) ~k:(Array.init n Fun.id) in
      let _, _, append = splice_session ~pool ~pb:[ Expr.Col "g" ] ~order:by_k table in
      append ~ctx:"in order into 10 and 30" ~statuses:"XRX"
        (splice_rows ~g:[| 30; 10; 30 |] ~k:[| 100; 101; 102 |]);
      append ~ctx:"back-dated into 20" ~statuses:"RBR"
        (splice_rows ~g:[| 20; 20 |] ~k:[| 200; 5 |]);
      (* a tie on the key with the partition's last row sorts after it:
         the new row's id is larger *)
      append ~ctx:"tie with the last row" ~statuses:"XRR"
        (splice_rows ~g:[| 10 |] ~k:[| 101 |]);
      append ~ctx:"new labels before, between and after" ~statuses:"BRBXBRB"
        (splice_rows ~g:[| 35; 15; 5; 20; 25; 5 |] ~k:[| 1; 2; 3; 300; 4; 0 |]))

(* Partition ids of a string column follow the string order, so evicting
   a partition's first row keeps the partitions in key order (a, mm, q,
   x, yy): the filtered stage equals a fresh sort right after the
   eviction, and the next append splices into it. *)
let test_evict_keeps_order () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 30 in
      (* s cycles x, yy, a, q, mm with k *)
      let table = splice_rows ~g:(Array.make n 0) ~k:(Array.init n Fun.id) in
      let pb = [ Expr.Col "s" ] in
      let session, query, append = splice_session ~pool ~pb ~order:by_k table in
      Session.evict session
        (Expr.select (Session.table session) (Expr.Lt (Expr.Col "k", Expr.Const (Value.Int 1))));
      let prov, statuses = check_stage ~pool ~ctx:"after the eviction" session ~pb ~order:by_k in
      Alcotest.(check string) "eviction provenance" "maintained(-1 rows)" prov;
      (* "x" lost its first row *)
      Alcotest.(check string) "eviction part statuses" "RRRBR" statuses;
      query "after the eviction";
      (* "mm" (k = 104) gets an in-order row *)
      append ~ctx:"append after the eviction" ~statuses:"RXRRR" (splice_rows ~g:[| 0 |] ~k:[| 104 |]);
      append ~ctx:"second append" ~statuses:"RRRXR" (splice_rows ~g:[| 0 |] ~k:[| 100 |]))

let test_splice_unpartitioned () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 50 in
      let table = splice_rows ~g:(Array.make n 0) ~k:(Array.init n (fun i -> 2 * i)) in
      let _, _, append = splice_session ~pool ~pb:[] ~order:by_k table in
      append ~ctx:"in order" ~statuses:"X" (splice_rows ~g:[| 0; 0 |] ~k:[| 500; 400 |]);
      append ~ctx:"back-dated" ~statuses:"B" (splice_rows ~g:[| 0; 0 |] ~k:[| 501; 7 |]))

(* Orders of several key words, of the residual alone (an interval key
   compiles to no word) and of a string key (whose order codes
   [Column.append] drops), in order and back-dated. *)
let test_splice_orders () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 48 in
      let table = splice_rows ~g:(Array.init n (fun i -> i mod 2)) ~k:(Array.init n Fun.id) in
      let days = Expr.Mul (Expr.Col "k", Expr.Const (Value.Interval { Value.months = 0; days = 1 })) in
      let multi = [ Sort_spec.asc (Expr.Col "v"); Sort_spec.desc (Expr.Col "k") ] in
      let pids = Session.partition_ids pool table [ Expr.Col "g" ] in
      Alcotest.(check bool) "several key words" true
        (Array.length (Key_codec.compile ?pids table multi).Key_codec.words >= 2);
      Alcotest.(check int) "residual only" 0
        (Array.length (Key_codec.compile table [ Sort_spec.asc days ]).Key_codec.words);
      List.iter
        (fun (name, order, late, early) ->
          let _, _, append = splice_session ~pool ~pb:[ Expr.Col "g" ] ~order table in
          append ~ctx:(name ^ ", in order") ~statuses:"XR" (splice_rows ~g:[| 0 |] ~k:[| late |]);
          append ~ctx:(name ^ ", back-dated") ~statuses:"RB"
            (splice_rows ~g:[| 1 |] ~k:[| early |]))
        [
          (* v = (k * 7 mod 101) / 3 is at most 99/3 over the table and
             100/3 at k = 72; k = 0 gives 0, the least *)
          ("multi-word", multi, 72, 0);
          ("residual only", [ Sort_spec.asc days ], 1000, -1);
          (* s cycles x, yy, a, q, mm with |k|: "yy" is the largest
             string, "a" the smallest *)
          ("string key", [ Sort_spec.asc (Expr.Col "s"); Sort_spec.asc (Expr.Col "k") ], 1001, -2);
        ])

(* A traced append shows one child span per phase, and an in-order append
   keys only its delta and the last old row of each partition it touches:
   a one-row append into 51 500 rows over 85 groups keys 2 rows. *)
let test_append_phases () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 51_500 and groups = 85 in
      let table = splice_rows ~g:(Array.init n (fun i -> i * 7 mod groups)) ~k:(Array.init n Fun.id) in
      let pb = [ Expr.Col "g" ] in
      let session, _, _ = splice_session ~pool ~pb ~order:by_k table in
      let module Obs = Holistic_obs.Obs in
      let (), trace = Obs.with_capture (fun () -> Session.append_rows session (splice_rows ~g:[| 3 |] ~k:[| n |])) in
      let root =
        match List.filter (fun (sp : Obs.span) -> sp.Obs.name = "session.append") trace.Obs.spans with
        | [ sp ] -> sp
        | _ -> Alcotest.fail "one session.append span"
      in
      let children =
        List.filter_map
          (fun (sp : Obs.span) -> if sp.Obs.parent = root.Obs.id then Some sp.Obs.name else None)
          trace.Obs.spans
      in
      Alcotest.(check (list string)) "phase spans"
        [ "session.pids"; "session.boundaries"; "session.compile"; "session.splice"; "session.classify" ]
        children;
      let keyed =
        List.find_map
          (fun (sp : Obs.span) ->
            if sp.Obs.name = "session.compile" then Option.map int_of_string (List.assoc_opt "keyed_rows" sp.Obs.args)
            else None)
          trace.Obs.spans
      in
      let old_rows = (n / groups) + 1 in
      Alcotest.(check bool) "keyed rows within the delta and the touched partition" true
        (match keyed with Some k -> k <= 1 + old_rows && k < 1_000 | None -> false);
      Alcotest.(check (option int)) "keyed: the delta row and the last old row" (Some 2) keyed;
      ignore (check_stage ~pool ~ctx:"large append" session ~pb ~order:by_k))

(* Stateless and session plans share one item loop: the first query
   through a fresh session traces the same span tree (names and nesting)
   as the same query run stateless, the frame ahead of the item spans in
   both. *)
let test_one_item_loop () =
  let pool = Task_pool.create 1 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  let module Obs = Holistic_obs.Obs in
  let tree (trace : Obs.trace) =
    let rec render (sp : Obs.span) =
      let kids = List.filter (fun (c : Obs.span) -> c.Obs.parent = sp.Obs.id) trace.Obs.spans in
      sp.Obs.name
      ^ if kids = [] then "" else "(" ^ String.concat " " (List.map render kids) ^ ")"
    in
    String.concat " "
      (List.map render (List.filter (fun (sp : Obs.span) -> sp.Obs.parent < 0) trace.Obs.spans))
  in
  let table = directed_table 256 in
  let _, stateless = Obs.with_capture (fun () -> Window_plan.run ~pool table directed_clauses) in
  let session = Session.create ~pool table in
  let _, first =
    Obs.with_capture (fun () -> Window_plan.run ~pool ~session table directed_clauses)
  in
  Alcotest.(check string) "one span tree" (tree stateless) (tree first)

let () =
  Alcotest.run "session"
    [
      ( "directed",
        [
          Alcotest.test_case "in-order append maintains" `Quick test_extend_append;
          Alcotest.test_case "unchanged table reuses outputs" `Quick test_output_reuse;
          Alcotest.test_case "in-order append probes affected rows" `Quick test_partial_probe;
          Alcotest.test_case "bulk eviction compacts" `Quick test_evict;
          Alcotest.test_case "foreign table stays stateless" `Quick test_foreign_table;
          Alcotest.test_case "two sessions append to one table" `Quick test_two_sessions_one_table;
          Alcotest.test_case "append with room costs the delta" `Quick test_append_words;
          Alcotest.test_case "sql session front door" `Quick test_sql_session;
          Alcotest.test_case "residual-only order maintains" `Quick test_residual_order_append;
          Alcotest.test_case "splice into touched partitions" `Quick test_splice_partitions;
          Alcotest.test_case "eviction keeps the partition order" `Quick test_evict_keeps_order;
          Alcotest.test_case "splice without partitions" `Quick test_splice_unpartitioned;
          Alcotest.test_case "splice multi-word, residual, string" `Quick test_splice_orders;
          Alcotest.test_case "append phases and keyed rows" `Quick test_append_phases;
          Alcotest.test_case "one item loop, one span tree" `Quick test_one_item_loop;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "insert/evict scripts vs rebuild" `Slow test_fuzz;
          Alcotest.test_case "in-order append scripts vs rebuild" `Slow test_fuzz_in_order;
        ] );
    ]
