(* Differential fuzzing of the whole window pipeline against the naive
   oracle ([Holistic_window.Reference]).

   Each case draws a random table (ints / floats / strings / dates, NULLs,
   heavy duplication) and a random set of OVER clauses — PARTITION BY,
   multi-key ORDER BY with directions and NULLS placement, ROWS / RANGE /
   GROUPS frames including data-dependent offsets, inverted (empty) bounds
   and all four exclusion modes — carrying items from every function class,
   then checks [Window_plan.run] row-for-row against [Reference.run].

   The run is reproducible: FUZZ_SEED and FUZZ_CASES override the defaults,
   and every failure message carries the seed and case number. *)

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

(* None = NULL-free (keeps the unboxed fast paths reachable). *)
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

let gen_table rng =
  let n = 1 + Rng.int rng 60 in
  let ints lo hi = Array.init n (fun _ -> Rng.int_in rng lo hi) in
  let pool = [| "a"; "b"; "c"; "dd"; "e" |] in
  let base_date = Value.date_of_ymd 2024 1 15 in
  Table.create
    [
      ("g", Column.ints (ints 0 3));
      ("k", Column.make ?nulls:(gen_nulls rng n) (Column.Ints (ints (-3) 8)));
      ( "f",
        (* dyadic halves keep SUM/AVG exact; the occasional NaN exercises
           the sort paths' total order (NaN once diverged between the raw
           float fast path and the comparator under DESC) *)
        Column.make ?nulls:(gen_nulls rng n)
          (Column.Floats
             (Array.init n (fun _ ->
                  if Rng.int rng 14 = 0 then Float.nan
                  else float_of_int (Rng.int_in rng (-4) 7) /. 2.0))) );
      ( "s",
        Column.make ?nulls:(gen_nulls rng n)
          (Column.Strings (Array.init n (fun _ -> pool.(Rng.int rng 5)))) );
      ( "d",
        Column.make ?nulls:(gen_nulls rng n)
          (Column.Dates (Array.init n (fun _ -> base_date + Rng.int rng 15))) );
    ]

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

(* ROWS/GROUPS offsets: non-negative constants or a data-dependent,
   NULL-free non-negative column. *)
let gen_offset rng =
  if Rng.int rng 4 = 0 then Expr.Col "g" else Expr.Const (Value.Int (Rng.int rng 4))

let gen_rows_groups_bound rng =
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

(* RANGE deltas typed to the single ordering column; occasionally negative,
   which inverts the bound (empty-frame coverage), and sometimes per row:
   the NULL-free int column g, which every arithmetic key type accepts. *)
let range_delta rng col =
  if Rng.int rng 5 = 0 then Expr.Col "g"
  else
    match col with
    | "g" | "k" -> Expr.Const (Value.Int (Rng.int_in rng (-1) 3))
    | "f" -> Expr.Const (Value.Float (float_of_int (Rng.int_in rng (-1) 4) /. 2.0))
    | "d" ->
        if Rng.bool rng then Expr.Const (Value.Int (Rng.int rng 10))
        else Expr.Const (Value.Interval { Value.months = Rng.int rng 2; days = Rng.int rng 10 })
    | _ -> assert false

let gen_range_bound rng key_col ~allow_offset =
  match Rng.int rng (if allow_offset then 7 else 3) with
  | 0 -> Ws.Unbounded_preceding
  | 1 -> Ws.Current_row
  | 2 -> Ws.Unbounded_following
  | 3 | 4 -> Ws.Preceding (range_delta rng key_col)
  | _ -> Ws.Following (range_delta rng key_col)

let gen_frame rng (order : Sort_spec.t) =
  if Rng.int rng 4 = 0 then None (* default frame *)
  else begin
    let exclusion = gen_exclusion rng in
    let single_plain =
      (* RANGE offsets need exactly one key of an arithmetic type: a
         column, or the k + 1 expression (typed like k) *)
      match order with
      | [ { Sort_spec.expr = Expr.Col c; _ } ] when c <> "s" -> Some c
      | [ { Sort_spec.expr = Expr.Add (Expr.Col "k", _); _ } ] -> Some "k"
      | _ -> None
    in
    match Rng.int rng 3 with
    | 0 ->
        Some (Ws.rows_between ~exclusion (gen_rows_groups_bound rng) (gen_rows_groups_bound rng))
    | 1 ->
        Some
          (Ws.groups_between ~exclusion (gen_rows_groups_bound rng) (gen_rows_groups_bound rng))
    | _ ->
        let allow_offset = single_plain <> None in
        let col = Option.value single_plain ~default:"g" in
        Some
          (Ws.range_between ~exclusion
             (gen_range_bound rng col ~allow_offset)
             (gen_range_bound rng col ~allow_offset))
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
let percentiles = [| 0.0; 0.25; 0.5; 0.9; 1.0 |]

(* item-local ORDER BY: [] inherits the window order *)
let gen_local_order rng = if Rng.bool rng then [] else [ gen_key rng ]

let gen_item rng ~name =
  let filter = gen_filter rng in
  (* Naive is a universally supported engine algorithm; everything else is
     Auto (which itself dispatches to trees / incremental states). *)
  let algorithm = if Rng.int rng 5 = 0 then Wf.Naive else Wf.Auto in
  let order = gen_local_order rng in
  let ign rng = Rng.int rng 3 = 0 in
  match Rng.int rng 17 with
  | 0 -> Wf.count_star ?filter ~algorithm ~name ()
  | 1 -> Wf.count ?filter ~algorithm ~name (any_col rng)
  | 2 -> Wf.count ?filter ~algorithm ~distinct:true ~name (any_col rng)
  | 3 -> Wf.sum ?filter ~algorithm ~distinct:(Rng.bool rng) ~name (num_col rng)
  | 4 -> Wf.avg ?filter ~algorithm ~distinct:(Rng.bool rng) ~name (num_col rng)
  | 5 -> Wf.min_ ?filter ~algorithm ~name (any_col rng)
  | 6 -> Wf.max_ ?filter ~algorithm ~name (any_col rng)
  | 7 -> Wf.mode ?filter ~name (any_col rng)
  | 8 -> Wf.rank ?filter ~algorithm ~name order
  | 9 -> Wf.dense_rank ?filter ~algorithm ~name order
  | 10 -> Wf.row_number ?filter ~algorithm ~name order
  | 11 ->
      if Rng.bool rng then Wf.percent_rank ?filter ~algorithm ~name order
      else Wf.cume_dist ?filter ~algorithm ~name order
  | 12 -> Wf.ntile ?filter ~algorithm ~name (1 + Rng.int rng 4) order
  | 13 ->
      let p = percentiles.(Rng.int rng (Array.length percentiles)) in
      let o = [ gen_key rng ] in
      if Rng.bool rng then Wf.percentile_disc ?filter ~algorithm ~name p o
      else Wf.percentile_cont ?filter ~algorithm ~name p o
  | 14 ->
      if Rng.bool rng then
        Wf.first_value ?filter ~algorithm ~ignore_nulls:(ign rng) ~order ~name (any_col rng)
      else Wf.last_value ?filter ~algorithm ~ignore_nulls:(ign rng) ~order ~name (any_col rng)
  | 15 ->
      Wf.nth_value ?filter ~algorithm ~ignore_nulls:(ign rng) ~order ~from_last:(Rng.bool rng)
        ~name (1 + Rng.int rng 3) (any_col rng)
  | _ ->
      let arg_col = order_cols.(Rng.int rng (Array.length order_cols)) in
      (* the default must be type-compatible with the argument: the output
         column holds both *)
      let default =
        match Rng.int rng 3 with
        | 0 -> None
        | 1 -> Some (Expr.Col arg_col)
        | _ ->
            Some
              (Expr.Const
                 (match arg_col with
                 | "g" | "k" -> Value.Int 42
                 | "f" -> Value.Float 9.5
                 | "s" -> Value.String "zz"
                 | _ -> Value.Date (Value.date_of_ymd 2024 2 1)))
      in
      let mk = if Rng.bool rng then Wf.lead else Wf.lag in
      mk ?filter ~algorithm ~ignore_nulls:(ign rng) ~order ~offset:(Rng.int rng 4) ?default ~name
        (Expr.Col arg_col)

let partition_pool = [| []; [ Expr.Col "g" ]; [ Expr.Col "s" ]; [ Expr.Col "g"; Expr.Col "k" ] |]

let gen_clauses rng =
  (* two PARTITION BY candidates and one base order per case, so clauses
     share partition passes and sort prefixes often enough to exercise the
     plan's sharing machinery *)
  let pb0 = partition_pool.(Rng.int rng (Array.length partition_pool)) in
  let pb1 = partition_pool.(Rng.int rng (Array.length partition_pool)) in
  let base = [ gen_key rng; gen_key rng ] in
  let nclauses = 1 + Rng.int rng 3 in
  let names = ref 0 in
  List.init nclauses (fun _ ->
      let partition_by = if Rng.bool rng then pb0 else pb1 in
      let order_by =
        match Rng.int rng 5 with
        | 0 -> []
        | 1 | 2 -> [ List.hd base ]
        | 3 -> base
        | _ -> [ gen_key rng ]
      in
      let frame = gen_frame rng order_by in
      let spec = { Ws.partition_by; order_by; frame } in
      let items =
        List.init (1 + Rng.int rng 2) (fun _ ->
            let name = Printf.sprintf "w%d" !names in
            incr names;
            gen_item rng ~name)
      in
      { Window_plan.spec; items })

(* ------------------------------------------------------------------ *)
(* Comparison and diagnostics                                          *)
(* ------------------------------------------------------------------ *)

let value_eq a b =
  match a, b with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y)
      || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | _ -> Value.equal a b

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
            Printf.sprintf "%s=%s%s" it.name (Wf.class_name it)
              (match it.filter with None -> "" | Some e -> " filter " ^ Expr.to_string e))
          c.items))

let table_to_string table =
  let cols = Table.columns table in
  let buf = Buffer.create 256 in
  for r = 0 to Table.nrows table - 1 do
    Buffer.add_string buf (Printf.sprintf "  %2d:" r);
    List.iter
      (fun (name, c) ->
        Buffer.add_string buf (Printf.sprintf " %s=%s" name (Value.to_string (Column.get c r))))
      cols;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let describe table clauses =
  String.concat "\n" (List.map clause_to_string clauses) ^ "\n" ^ table_to_string table

(* [force_backend nm] pins every eligible Auto item onto backend [nm]
   ([Evaluator_choice.supports] decides eligibility, so ineligible items
   keep their cost-based pick). *)
let force_backend nm (clauses : Window_plan.clause list) =
  List.map
    (fun (c : Window_plan.clause) ->
      let holed =
        match c.spec.Ws.frame with
        | Some f -> f.Ws.exclusion <> Ws.Exclude_no_others
        | None -> false
      in
      {
        c with
        Window_plan.items =
          List.map
            (fun (it : Wf.t) ->
              if it.Wf.algorithm = Wf.Auto && Evaluator_choice.supports nm (Evaluator_choice.classify it) ~holed
              then { it with Wf.algorithm = Evaluator_choice.to_algorithm nm }
              else it)
            c.items;
      })
    clauses

(* FUZZ_EVALUATOR=<backend> runs every case with [force_backend] applied
   (e.g. the CI's forced-segment-tree leg); unset or empty leaves the cost
   model to pick. *)
let fuzz_evaluator =
  match Sys.getenv_opt "FUZZ_EVALUATOR" with
  | None | Some "" -> None
  | Some s -> (
      match Evaluator_choice.of_string s with
      | Some nm -> Some nm
      | None -> failwith (Printf.sprintf "FUZZ_EVALUATOR: unknown backend %S" s))

let pin clauses =
  match fuzz_evaluator with Some nm -> force_backend nm clauses | None -> clauses

let run_case ~pool rng idx ~seed =
  let rng = Rng.split rng in
  let table = gen_table rng in
  let clauses = gen_clauses rng in
  let expected = Reference.run table clauses in
  let task_size = [| 4; 16; 20_000 |].(Rng.int rng 3) in
  let fanout = [| 2; 4; 16 |].(Rng.int rng 3) in
  let actual =
    try Window_plan.run ~pool ~fanout ~task_size table (pin clauses)
    with e ->
      Alcotest.failf "FUZZ_SEED=%d case %d: engine raised %s\n%s" seed idx (Printexc.to_string e)
        (describe table clauses)
  in
  List.iter
    (fun (name, exp) ->
      let col = Table.column actual name in
      Array.iteri
        (fun r e ->
          let got = Column.get col r in
          if not (value_eq e got) then
            Alcotest.failf "FUZZ_SEED=%d case %d row %d item %s: oracle %s, engine %s\n%s" seed
              idx r name (Value.to_string e) (Value.to_string got) (describe table clauses))
        exp)
    expected

(* Exact (bit-level) value equality for the cross-domain determinism check:
   unlike [value_eq] there is no tolerance — the engine must produce the
   same bits at every domain count, NaNs and signed zeros included. *)
let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> compare a b = 0

(* Morsel scheduling may change which domain evaluates a partition, never
   what gets computed or built: the same query must yield bit-identical
   columns and identical plan statistics (sorts, cache builds) at every
   domain count. *)
let determinism_case ~pools rng idx ~seed =
  let rng = Rng.split rng in
  let table = gen_table rng in
  let clauses = gen_clauses rng in
  let task_size = [| 4; 16; 20_000 |].(Rng.int rng 3) in
  let fanout = [| 2; 4; 16 |].(Rng.int rng 3) in
  let results =
    List.map
      (fun pool ->
        let n = Task_pool.size pool in
        try (n, Window_plan.run_with_stats ~pool ~fanout ~task_size table (pin clauses))
        with e ->
          Alcotest.failf "FUZZ_SEED=%d determinism case %d: engine raised %s at %d domains\n%s"
            seed idx (Printexc.to_string e) n (describe table clauses))
      pools
  in
  match results with
  | [] -> ()
  | (n0, (t0, s0)) :: rest ->
      List.iter
        (fun (n, (t, s)) ->
          if s <> s0 then
            Alcotest.failf
              "FUZZ_SEED=%d determinism case %d: plan stats differ between %d and %d domains\n%s"
              seed idx n0 n (describe table clauses);
          List.iter
            (fun (name, c0) ->
              let c = Table.column t name in
              for r = 0 to Table.nrows t0 - 1 do
                let v0 = Column.get c0 r and v = Column.get c r in
                if not (value_identical v0 v) then
                  Alcotest.failf
                    "FUZZ_SEED=%d determinism case %d row %d col %s: %d domains gave %s, %d \
                     domains gave %s\n\
                     %s"
                    seed idx r name n0 (Value.to_string v0) n (Value.to_string v)
                    (describe table clauses)
              done)
            (Table.columns t0))
        rest

(* Forced-choice: re-run each case once per backend with every eligible
   Auto item pinned to it.  Any two backends that claim a (class, frame)
   cell must agree bit-for-bit — the generator's float column holds dyadic
   halves, so even SUM/AVG are exact under every summation order and the
   comparison needs no tolerance. *)
let forced_case ~pool rng idx ~seed =
  let rng = Rng.split rng in
  let table = gen_table rng in
  let clauses = gen_clauses rng in
  let task_size = [| 4; 16; 20_000 |].(Rng.int rng 3) in
  let fanout = [| 2; 4; 16 |].(Rng.int rng 3) in
  let baseline = Window_plan.run ~pool ~fanout ~task_size table (pin clauses) in
  List.iter
    (fun nm ->
      let forced = pin (force_backend nm clauses) in
      let out =
        try Window_plan.run ~pool ~fanout ~task_size table forced
        with e ->
          Alcotest.failf "FUZZ_SEED=%d forced case %d: backend %s raised %s\n%s" seed idx
            (Evaluator_choice.to_string nm) (Printexc.to_string e) (describe table forced)
      in
      List.iter
        (fun (name, c0) ->
          let c = Table.column out name in
          for r = 0 to Table.nrows baseline - 1 do
            let v0 = Column.get c0 r and v = Column.get c r in
            if not (value_identical v0 v) then
              Alcotest.failf
                "FUZZ_SEED=%d forced case %d row %d item %s: default gave %s, backend %s gave \
                 %s\n\
                 %s"
                seed idx r name (Value.to_string v0) (Evaluator_choice.to_string nm)
                (Value.to_string v) (describe table forced)
          done)
        (Table.columns baseline))
    Evaluator_choice.all

(* Out-of-core equivalence: the same case run under a memory governor —
   spilled sort runs, streamed MST builds — must produce bit-identical
   columns (floats compared by bits, NaNs included) and identical plan
   statistics. FUZZ_MEM_LIMIT picks the budget: the default "spill"
   forces every sort out of core regardless of size (the only way to
   engage the spill machinery on these tiny tables), K/M/G-suffixed
   bytes run the real budget arithmetic. *)
let mem_limit_case ~pool ~limit rng idx ~seed =
  let rng = Rng.split rng in
  let table = gen_table rng in
  let clauses = gen_clauses rng in
  let task_size = [| 4; 16; 20_000 |].(Rng.int rng 3) in
  let fanout = [| 2; 4; 16 |].(Rng.int rng 3) in
  let clauses = pin clauses in
  let t0, s0 = Window_plan.run_with_stats ~pool ~fanout ~task_size table clauses in
  let budget, policy = Mem_governor.parse_limit limit in
  let governor = Mem_governor.create ?budget ~policy () in
  let t, s =
    Fun.protect
      ~finally:(fun () -> Mem_governor.cleanup governor)
      (fun () ->
        try Window_plan.run_with_stats ~pool ~fanout ~task_size ~governor table clauses
        with e ->
          Alcotest.failf "FUZZ_SEED=%d mem-limit case %d: engine raised %s under limit %s\n%s"
            seed idx (Printexc.to_string e) limit (describe table clauses))
  in
  if s <> s0 then
    Alcotest.failf "FUZZ_SEED=%d mem-limit case %d: plan stats differ under limit %s\n%s" seed
      idx limit (describe table clauses);
  List.iter
    (fun (name, c0) ->
      let c = Table.column t name in
      for r = 0 to Table.nrows t0 - 1 do
        let v0 = Column.get c0 r and v = Column.get c r in
        if not (value_identical v0 v) then
          Alcotest.failf
            "FUZZ_SEED=%d mem-limit case %d row %d col %s: unlimited gave %s, limit %s gave %s\n%s"
            seed idx r name (Value.to_string v0) limit (Value.to_string v)
            (describe table clauses)
      done)
    (Table.columns t0)

let () =
  let seed = env_int "FUZZ_SEED" 20240807 in
  let cases = env_int "FUZZ_CASES" 500 in
  let domain_cases = env_int "FUZZ_DOMAIN_CASES" 60 in
  let forced_cases = env_int "FUZZ_FORCED_CASES" 120 in
  let mem_cases = env_int "FUZZ_MEM_CASES" 120 in
  let mem_limit = Option.value (Sys.getenv_opt "FUZZ_MEM_LIMIT") ~default:"spill" in
  (* HOLIWIN_DOMAINS sizes the differential pool too, so the CI matrix leg
     runs the whole suite under real worker domains. *)
  let domains = env_int "HOLIWIN_DOMAINS" (min 4 (Domain.recommended_domain_count ())) in
  let run_all () =
    let pool = Task_pool.create domains in
    Fun.protect
      ~finally:(fun () -> Task_pool.shutdown pool)
      (fun () ->
        let rng = Rng.create seed in
        for idx = 0 to cases - 1 do
          run_case ~pool rng idx ~seed
        done)
  in
  let run_domains () =
    let pools = List.map Task_pool.create [ 1; 2; 4 ] in
    Fun.protect
      ~finally:(fun () -> List.iter Task_pool.shutdown pools)
      (fun () ->
        let rng = Rng.create (seed + 1) in
        for idx = 0 to domain_cases - 1 do
          determinism_case ~pools rng idx ~seed
        done)
  in
  let run_forced () =
    let pool = Task_pool.create domains in
    Fun.protect
      ~finally:(fun () -> Task_pool.shutdown pool)
      (fun () ->
        let rng = Rng.create (seed + 2) in
        for idx = 0 to forced_cases - 1 do
          forced_case ~pool rng idx ~seed
        done)
  in
  let run_mem () =
    let pool = Task_pool.create domains in
    Fun.protect
      ~finally:(fun () -> Task_pool.shutdown pool)
      (fun () ->
        let rng = Rng.create (seed + 3) in
        for idx = 0 to mem_cases - 1 do
          mem_limit_case ~pool ~limit:mem_limit rng idx ~seed
        done)
  in
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "window pipeline vs naive oracle (%d cases, seed %d, %d domains)"
               cases seed domains)
            `Quick run_all;
        ] );
      ( "determinism",
        [
          Alcotest.test_case
            (Printf.sprintf "bit-identical at 1/2/4 domains (%d cases, seed %d)" domain_cases
               seed)
            `Quick run_domains;
        ] );
      ( "forced-choice",
        [
          Alcotest.test_case
            (Printf.sprintf "every eligible backend bit-identical (%d cases, seed %d)"
               forced_cases seed)
            `Quick run_forced;
        ] );
      ( "mem-limit",
        [
          Alcotest.test_case
            (Printf.sprintf "bit-identical out of core, limit=%s (%d cases, seed %d)" mem_limit
               mem_cases seed)
            `Quick run_mem;
        ] );
    ]
