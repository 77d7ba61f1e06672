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

let gen_rows rng n =
  let ints lo hi = Array.init n (fun _ -> Rng.int_in rng lo hi) in
  let pool = [| "a"; "b"; "c"; "dd"; "e" |] in
  let base_date = Value.date_of_ymd 2024 1 15 in
  Table.create
    [
      ("g", Column.ints (ints 0 3));
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
  if Rng.int rng 4 = 0 then Expr.Col "g" else Expr.Const (Value.Int (Rng.int rng 4))

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
  match Rng.int rng 12 with
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
  | 10 -> Wf.first_value ?filter ~order ~name (any_col rng)
  | _ -> Wf.ntile ?filter ~name (1 + Rng.int rng 4) order

let partition_pool = [| []; [ Expr.Col "g" ]; [ Expr.Col "s" ]; [ Expr.Col "g"; Expr.Col "k" ] |]

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

let gen_evict_pred rng table =
  let e =
    match Rng.int rng 4 with
    | 0 -> Expr.Lt (Expr.Col "k", Expr.Const (Value.Int (Rng.int_in rng (-3) 8)))
    | 1 -> Expr.Gt (Expr.Col "f", Expr.Const (Value.Float (gen_float rng)))
    | 2 -> Expr.Eq (Expr.Col "g", Expr.Const (Value.Int (Rng.int rng 4)))
    | _ -> Expr.Is_null (Expr.Col "s")
  in
  let f = Expr.compile table e in
  fun row -> Expr.to_bool (f row)

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
        Session.append_rows session delta
    | 1 ->
        let table = Session.table session in
        if Rng.bool rng then begin
          let k = Rng.int rng (Table.nrows table + 1) in
          ops := Printf.sprintf "evict_prefix %d" k :: !ops;
          Session.evict_prefix session k
        end
        else begin
          ops := "evict_where" :: !ops;
          Session.evict_where session (gen_evict_pred rng table)
        end
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

(* Bulk prefix eviction compacts the cached state without re-sorting;
   queries after it stay bit-identical to a rebuild. *)
let test_evict () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let session = Session.create ~pool (directed_table 2048) in
      ignore (Window_plan.run ~pool ~session (Session.table session) directed_clauses);
      Session.evict_prefix session 512;
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
      Session.evict_where session (fun _ -> true);
      Alcotest.(check int) "empty" 0 (Table.nrows (Session.table session));
      ignore (Window_plan.run ~pool ~session (Session.table session) directed_clauses))

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
  let session = Sql.session_create (directed_table 512) in
  let q =
    "select g, k, rank() over w as r, median(v) over w as m from t \
     window w as (partition by g order by k rows between 20 preceding and current row)"
  in
  let tables () = [ ("t", Sql.session_table session) ] in
  let oracle () = Sql.query ~tables:(tables ()) q in
  let via_session () = Sql.query ~session ~tables:(tables ()) q in
  check_identical ~ctx:(fun () -> "sql first") (oracle ()) (via_session ());
  Sql.session_append session (directed_delta ~base:512 64);
  Alcotest.(check int) "rows appended" 576 (Table.nrows (Sql.session_table session));
  check_identical ~ctx:(fun () -> "sql after append") (oracle ()) (via_session ());
  let report = Sql.render_analyze q (Sql.explain_analyze_trace ~session ~tables:(tables ()) q) in
  let contains sub =
    let n = String.length report and m = String.length sub in
    let rec go i = i + m <= n && (String.sub report i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "provenance tag rendered" true
    (contains "cache=reused" || contains "cache=maintained");
  Sql.session_evict session "k < 100";
  Alcotest.(check int) "rows evicted" 476 (Table.nrows (Sql.session_table session));
  check_identical ~ctx:(fun () -> "sql after evict") (oracle ()) (via_session ());
  Alcotest.check_raises "malformed predicate"
    (Sql.Semantic_error "unknown column \"nope\"")
    (fun () -> Sql.session_evict session "nope < 1")

let () =
  Alcotest.run "session"
    [
      ( "directed",
        [
          Alcotest.test_case "in-order append maintains" `Quick test_extend_append;
          Alcotest.test_case "unchanged table reuses outputs" `Quick test_output_reuse;
          Alcotest.test_case "bulk eviction compacts" `Quick test_evict;
          Alcotest.test_case "foreign table stays stateless" `Quick test_foreign_table;
          Alcotest.test_case "sql session front door" `Quick test_sql_session;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "insert/evict scripts vs rebuild" `Slow test_fuzz ] );
    ]
