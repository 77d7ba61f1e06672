open Holistic_storage
open Holistic_window
module Wf = Window_func
module Rng = Holistic_util.Rng

(* =====================================================================
   Independent reference implementation ("oracle").

   Evaluates window functions from first principles over boxed values in
   O(n² · frame) — it shares nothing with the engine under test except the
   Value primitives: no Frame, no Remap, no Rank_encode, no trees. Frames
   are represented as per-position inclusion predicates rather than range
   lists, exclusion included.
   ===================================================================== *)

module Oracle = struct
  open Window_spec

  let nulls_last (k : Sort_spec.key) =
    match k.nulls, k.direction with
    | Sort_spec.Nulls_last, _ -> true
    | Sort_spec.Nulls_first, _ -> false
    | Sort_spec.Nulls_default, Sort_spec.Asc -> true
    | Sort_spec.Nulls_default, Sort_spec.Desc -> false

  let key_cmp table (k : Sort_spec.key) i j =
    let f = Expr.compile table k.expr in
    let a = f i and b = f j in
    match Value.is_null a, Value.is_null b with
    | true, true -> 0
    | true, false -> if nulls_last k then 1 else -1
    | false, true -> if nulls_last k then -1 else 1
    | false, false ->
        let c = Value.compare_sql ~nulls_last:true a b in
        if k.direction = Sort_spec.Desc then -c else c

  let spec_cmp table spec i j =
    let rec go = function
      | [] -> 0
      | k :: rest ->
          let c = key_cmp table k i j in
          if c <> 0 then c else go rest
    in
    go spec

  (* rows of one partition, in window order (original row ids) *)
  let partitions table over =
    let n = Table.nrows table in
    let pkeys = List.map (Expr.compile table) over.partition_by in
    let key_of i = List.map (fun f -> f i) pkeys in
    let parts = ref [] in
    for i = n - 1 downto 0 do
      let k = key_of i in
      match List.assoc_opt k !parts with
      | Some r -> r := i :: !r
      | None -> parts := (k, ref [ i ]) :: !parts
    done;
    List.map
      (fun (_, r) ->
        Array.of_list (List.stable_sort (spec_cmp table over.order_by) !r))
      !parts

  let int_offset table e row =
    match Expr.eval table e row with
    | Value.Int k -> k
    | _ -> failwith "oracle: non-integer offset"

  (* inclusion predicate for row position [r]'s frame over partition [rows] *)
  let frame_pred table over rows r =
    let np = Array.length rows in
    let cmp = spec_cmp table over.order_by in
    let peer a b = cmp rows.(a) rows.(b) = 0 in
    let frame =
      match over.frame with
      | Some f -> f
      | None ->
          if over.order_by = [] then Window_spec.whole_partition
          else range_between Unbounded_preceding Current_row
    in
    let in_base =
      match frame.mode with
      | Rows ->
          let lo =
            match frame.start_bound with
            | Unbounded_preceding -> 0
            | Preceding e -> r - int_offset table e rows.(r)
            | Current_row -> r
            | Following e -> r + int_offset table e rows.(r)
            | Unbounded_following -> np
          in
          let hi =
            match frame.end_bound with
            | Unbounded_preceding -> -1
            | Preceding e -> r - int_offset table e rows.(r)
            | Current_row -> r
            | Following e -> r + int_offset table e rows.(r)
            | Unbounded_following -> np - 1
          in
          fun p -> p >= lo && p <= hi
      | Groups ->
          (* group index by walking peers *)
          let gidx = Array.make np 0 in
          for p = 1 to np - 1 do
            gidx.(p) <- (if peer p (p - 1) then gidx.(p - 1) else gidx.(p - 1) + 1)
          done;
          let glo =
            match frame.start_bound with
            | Unbounded_preceding -> min_int
            | Preceding e -> gidx.(r) - int_offset table e rows.(r)
            | Current_row -> gidx.(r)
            | Following e -> gidx.(r) + int_offset table e rows.(r)
            | Unbounded_following -> max_int
          in
          let ghi =
            match frame.end_bound with
            | Unbounded_preceding -> min_int
            | Preceding e -> gidx.(r) - int_offset table e rows.(r)
            | Current_row -> gidx.(r)
            | Following e -> gidx.(r) + int_offset table e rows.(r)
            | Unbounded_following -> max_int
          in
          fun p -> gidx.(p) >= glo && gidx.(p) <= ghi
      | Range ->
          (* offset bounds need the single sort key; CURRENT ROW / UNBOUNDED
             bounds work with any ORDER BY via peer comparison *)
          let key =
            match over.order_by with
            | [ k ] -> k
            | k :: _ -> k
            | [] -> failwith "oracle: range without order"
          in
          let full_cmp p q = spec_cmp table over.order_by rows.(p) rows.(q) in
          let f = Expr.compile table key.expr in
          let v p = f rows.(p) in
          let desc = key.direction = Sort_spec.Desc in
          let cmpv a b =
            let c = Value.compare_sql ~nulls_last:true a b in
            if desc then -c else c
          in
          (* direction- and nulls-aware frame-order comparison *)
          let kc p q = key_cmp table key rows.(p) rows.(q) in
          let vr = v r in
          (* offset bounds behave like CURRENT ROW whenever a NULL key is
             involved (PostgreSQL semantics: NULL rows are peers; numeric
             offsets never reach them) *)
          let sat_start p =
            match frame.start_bound with
            | Unbounded_preceding -> true
            | Current_row -> full_cmp p r >= 0
            | Unbounded_following -> false
            | Preceding e | Following e ->
                if Value.is_null vr || Value.is_null (v p) then kc p r >= 0
                else begin
                  let d = Expr.eval table e rows.(r) in
                  let back = match frame.start_bound with Preceding _ -> true | _ -> false in
                  let target =
                    if back <> desc then Value.sub vr d else Value.add vr d
                  in
                  cmpv (v p) target >= 0
                end
          in
          let sat_end p =
            match frame.end_bound with
            | Unbounded_following -> true
            | Current_row -> full_cmp p r <= 0
            | Unbounded_preceding -> false
            | Preceding e | Following e ->
                if Value.is_null vr || Value.is_null (v p) then kc p r <= 0
                else begin
                  let d = Expr.eval table e rows.(r) in
                  let back = match frame.end_bound with Preceding _ -> true | _ -> false in
                  let target =
                    if back <> desc then Value.sub vr d else Value.add vr d
                  in
                  cmpv (v p) target <= 0
                end
          in
          fun p -> sat_start p && sat_end p
    in
    let excluded p =
      match frame.exclusion with
      | Exclude_no_others -> false
      | Exclude_current_row -> p = r
      | Exclude_group -> peer p r
      | Exclude_ties -> p <> r && peer p r
    in
    fun p -> in_base p && not (excluded p)

  (* evaluate one item over one partition; writes original-row slots *)
  let eval_item table over rows (item : Wf.t) out =
    let np = Array.length rows in
    let filt =
      match item.filter with
      | None -> fun _ -> true
      | Some e ->
          let f = Expr.compile table e in
          fun p -> Expr.to_bool (f rows.(p))
    in
    let forder spec = if spec = [] then over.Window_spec.order_by else spec in
    (* function-order comparison on partition positions with position
       tie-break (the ROW_NUMBER disambiguation) *)
    let fcmp spec p q = spec_cmp table (forder spec) rows.(p) rows.(q) in
    let fcmp_total spec p q =
      let c = fcmp spec p q in
      if c <> 0 then c else compare p q
    in
    for r = 0 to np - 1 do
      let pred = frame_pred table over rows r in
      let members p = pred p && filt p in
      let frame_list = List.filter members (List.init np (fun p -> p)) in
      let s_all = List.length frame_list in
      let result =
        match item.func with
        | Wf.Aggregate { kind; arg; distinct } -> begin
            let argv p = Expr.eval table (Option.get arg) rows.(p) in
            match kind with
            | Wf.Count_star -> Value.Int s_all
            | Wf.Count ->
                let vals = List.filter (fun p -> not (Value.is_null (argv p))) frame_list in
                if distinct then begin
                  let rec uniq = function
                    | [] -> []
                    | v :: rest -> v :: uniq (List.filter (fun w -> not (Value.equal v w)) rest)
                  in
                  Value.Int (List.length (uniq (List.map argv vals)))
                end
                else Value.Int (List.length vals)
            | Wf.Sum | Wf.Avg ->
                let vals =
                  List.filter_map (fun p -> if Value.is_null (argv p) then None else Some (argv p)) frame_list
                in
                let vals =
                  if distinct then begin
                    let rec uniq = function
                      | [] -> []
                      | v :: rest -> v :: uniq (List.filter (fun w -> not (Value.equal v w)) rest)
                    in
                    uniq vals
                  end
                  else vals
                in
                if vals = [] then Value.Null
                else begin
                  let sum = List.fold_left Value.add (Value.Int 0) vals in
                  if kind = Wf.Sum then
                    (* the engine computes distinct sums in float *)
                    if distinct then
                      Value.Float
                        (List.fold_left
                           (fun acc v ->
                             acc +. (match v with Value.Int x -> float_of_int x | Value.Float x -> x | _ -> nan))
                           0.0 vals)
                    else sum
                  else begin
                    let s = match sum with Value.Int x -> float_of_int x | Value.Float x -> x | _ -> nan in
                    Value.Float (s /. float_of_int (List.length vals))
                  end
                end
            | Wf.Min | Wf.Max ->
                let vals = List.filter (fun p -> not (Value.is_null (argv p))) frame_list in
                List.fold_left
                  (fun acc p ->
                    let v = argv p in
                    if Value.is_null acc then v
                    else if kind = Wf.Min then
                      if Value.compare_sql ~nulls_last:true v acc < 0 then v else acc
                    else if Value.compare_sql ~nulls_last:true v acc > 0 then v
                    else acc)
                  Value.Null vals
          end
        | Wf.Mode arg -> begin
            let af = Expr.compile table arg in
            let vals =
              List.filter_map
                (fun p ->
                  let v = af rows.(p) in
                  if Value.is_null v then None else Some v)
                frame_list
            in
            let rec distinct = function
              | [] -> []
              | v :: rest -> v :: distinct (List.filter (fun w -> not (Value.equal v w)) rest)
            in
            let count v = List.length (List.filter (Value.equal v) vals) in
            List.fold_left
              (fun acc v ->
                let c = count v in
                match acc with
                | Value.Null -> v
                | best ->
                    let bc = count best in
                    if c > bc || (c = bc && Value.compare_sql ~nulls_last:true v best < 0) then v
                    else best)
              Value.Null (distinct vals)
          end
        | Wf.Rank spec ->
            Value.Int (1 + List.length (List.filter (fun p -> fcmp spec p r < 0) frame_list))
        | Wf.Dense_rank spec ->
            (* count equivalence classes strictly below the current row *)
            let below = List.filter (fun p -> fcmp spec p r < 0) frame_list in
            let rec classes = function
              | [] -> 0
              | p :: rest -> 1 + classes (List.filter (fun q -> fcmp spec p q <> 0) rest)
            in
            Value.Int (1 + classes below)
        | Wf.Row_number spec ->
            Value.Int (1 + List.length (List.filter (fun p -> fcmp_total spec p r < 0) frame_list))
        | Wf.Percent_rank spec ->
            if s_all <= 1 then Value.Float 0.0
            else begin
              let less = List.length (List.filter (fun p -> fcmp spec p r < 0) frame_list) in
              Value.Float (float_of_int less /. float_of_int (s_all - 1))
            end
        | Wf.Cume_dist spec ->
            if s_all = 0 then Value.Null
            else begin
              let le = List.length (List.filter (fun p -> fcmp spec p r <= 0) frame_list) in
              Value.Float (float_of_int le /. float_of_int s_all)
            end
        | Wf.Ntile (b, spec) ->
            if s_all = 0 then Value.Null
            else begin
              let rn0 =
                min (s_all - 1) (List.length (List.filter (fun p -> fcmp_total spec p r < 0) frame_list))
              in
              (* build the bucket sizes explicitly: s = q·b + rem, first rem
                 buckets get q+1 rows *)
              let q = s_all / b and rem = s_all mod b in
              let rec find bucket start =
                let size = if bucket <= rem then q + 1 else q in
                if rn0 < start + size || bucket >= b then bucket else find (bucket + 1) (start + size)
              in
              Value.Int (find 1 0)
            end
        | Wf.Percentile_disc (p, spec) | Wf.Percentile_cont (p, spec) -> begin
            let keyexpr = (List.hd spec).Sort_spec.expr in
            let kf = Expr.compile table keyexpr in
            let qual = List.filter (fun q -> not (Value.is_null (kf rows.(q)))) frame_list in
            let sorted = List.stable_sort (fcmp_total spec) qual in
            let s = List.length sorted in
            if s = 0 then Value.Null
            else begin
              match item.func with
              | Wf.Percentile_disc _ ->
                  let i = max 0 (min (s - 1) (int_of_float (Float.ceil (p *. float_of_int s)) - 1)) in
                  kf rows.(List.nth sorted i)
              | _ ->
                  let x = p *. float_of_int (s - 1) in
                  let lo = int_of_float (Float.floor x) in
                  let frac = x -. float_of_int lo in
                  let fv i =
                    match kf rows.(List.nth sorted i) with
                    | Value.Int v -> float_of_int v
                    | Value.Float v -> v
                    | Value.Date d -> float_of_int d
                    | _ -> nan
                  in
                  if frac <= 0.0 || lo + 1 >= s then Value.Float (fv lo)
                  else Value.Float (fv lo +. (frac *. (fv (lo + 1) -. fv lo)))
            end
          end
        | Wf.First_value vf | Wf.Last_value vf | Wf.Nth_value (_, _, vf) | Wf.Lead (_, _, vf)
        | Wf.Lag (_, _, vf) -> begin
            let af = Expr.compile table vf.Wf.arg in
            let qual =
              if vf.Wf.ignore_nulls then
                List.filter (fun q -> not (Value.is_null (af rows.(q)))) frame_list
              else frame_list
            in
            let sorted = List.stable_sort (fcmp_total vf.Wf.order) qual in
            let s = List.length sorted in
            let nth i = if i >= 0 && i < s then Some (af rows.(List.nth sorted i)) else None in
            match item.func with
            | Wf.First_value _ -> Option.value (nth 0) ~default:Value.Null
            | Wf.Last_value _ -> Option.value (nth (s - 1)) ~default:Value.Null
            | Wf.Nth_value (k, from_last, _) ->
                Option.value (nth (if from_last then s - k else k - 1)) ~default:Value.Null
            | Wf.Lead (off, default, _) | Wf.Lag (off, default, _) -> begin
                let off = match item.func with Wf.Lag _ -> -off | _ -> off in
                let rn = List.length (List.filter (fun q -> fcmp_total vf.Wf.order q r < 0) sorted) in
                match nth (rn + off) with
                | Some v -> v
                | None -> (
                    match default with
                    | Some e -> Expr.eval table e rows.(r)
                    | None -> Value.Null)
              end
            | _ -> assert false
          end
      in
      out.(rows.(r)) <- result
    done

  let run table ~over items =
    let parts = partitions table over in
    List.map
      (fun (item : Wf.t) ->
        let out = Array.make (Table.nrows table) Value.Null in
        List.iter (fun rows -> eval_item table over rows item out) parts;
        (item.name, out))
      items
end

(* =====================================================================
   Random test-case generation
   ===================================================================== *)

let value_eq a b =
  match a, b with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | _ -> (Value.is_null a && Value.is_null b) || Value.equal a b

let make_table rng n =
  let ts = Array.init n (fun _ -> Rng.int rng 30) in
  let vcol =
    Array.init n (fun _ ->
        if Rng.int rng 8 = 0 then Value.Null else Value.Float (float_of_int (Rng.int rng 25)))
  in
  let k = Array.init n (fun _ -> Rng.int rng 6) in
  let p = Array.init n (fun _ -> Rng.int rng 3) in
  let s = Array.init n (fun _ -> [| "ant"; "bee"; "cat"; "dog" |].(Rng.int rng 4)) in
  let off = Array.init n (fun _ -> Rng.int rng 6) in
  Table.create
    [
      ("ts", Column.ints ts);
      ("v", Column.of_values vcol);
      ("k", Column.ints k);
      ("p", Column.ints p);
      ("s", Column.strings s);
      ("off", Column.ints off);
    ]

let random_frame rng =
  let bound side =
    match Rng.int rng (if side = `Start then 4 else 4) with
    | 0 -> Window_spec.Unbounded_preceding
    | 1 -> Window_spec.preceding (Rng.int rng 8)
    | 2 -> Window_spec.Current_row
    | _ -> Window_spec.following (Rng.int rng 8)
  in
  let sb = if Rng.int rng 6 = 0 then Window_spec.Unbounded_following else bound `Start in
  let eb = if Rng.int rng 6 = 0 then Window_spec.Unbounded_preceding else bound `End in
  let exclusion =
    [| Window_spec.Exclude_no_others; Exclude_current_row; Exclude_group; Exclude_ties |].(Rng.int rng 4)
  in
  let mode = [| Window_spec.Rows; Range; Groups |].(Rng.int rng 3) in
  (* per-row expression bounds for ROWS mode sometimes (§2.2) *)
  let sb =
    if mode = Window_spec.Rows && Rng.int rng 4 = 0 then Window_spec.Preceding (Expr.Col "off")
    else sb
  in
  { Window_spec.mode; start_bound = sb; end_bound = eb; exclusion }

let random_over rng =
  let partition_by = if Rng.bool rng then [ Expr.Col "p" ] else [] in
  let order_by =
    match Rng.int rng 4 with
    | 0 -> [ Sort_spec.asc (Expr.Col "ts") ]
    | 1 -> [ Sort_spec.desc (Expr.Col "ts") ]
    | 2 -> [ Sort_spec.asc (Expr.Col "ts"); Sort_spec.desc (Expr.Col "k") ]
    | _ -> [ Sort_spec.asc (Expr.Col "v") ]
  in
  let frame = if Rng.int rng 8 = 0 then None else Some (random_frame rng) in
  (* RANGE offset bounds require a single key; retry with ROWS otherwise *)
  let frame =
    match frame with
    | Some f when f.Window_spec.mode = Window_spec.Range && List.length order_by <> 1 ->
        Some { f with Window_spec.mode = Window_spec.Rows }
    | f -> f
  in
  Window_spec.over ~partition_by ~order_by ?frame ()

let some_filter rng =
  if Rng.int rng 3 = 0 then Some Expr.(Gt (Col "k", Const (Value.Int 1))) else None

let forder rng =
  match Rng.int rng 3 with
  | 0 -> [ Sort_spec.asc (Expr.Col "v") ]
  | 1 -> [ Sort_spec.desc (Expr.Col "v") ]
  | _ -> [ Sort_spec.asc (Expr.Col "k"); Sort_spec.asc (Expr.Col "ts") ]

let random_items rng =
  let filter = some_filter rng in
  [
    Wf.count_star ?filter ~name:"cstar" ();
    Wf.count ?filter ~name:"cnt" (Expr.Col "v");
    Wf.count ?filter ~distinct:true ~name:"dcnt" (Expr.Col "k");
    Wf.sum ?filter ~distinct:true ~name:"dsum" (Expr.Col "k");
    Wf.avg ?filter ~distinct:true ~name:"davg" (Expr.Col "k");
    Wf.sum ?filter ~name:"sum" (Expr.Col "v");
    Wf.avg ?filter ~name:"avg" (Expr.Col "v");
    Wf.min_ ?filter ~name:"mn" (Expr.Col "v");
    Wf.max_ ?filter ~name:"mx" (Expr.Col "s");
    Wf.rank ?filter ~name:"rnk" (forder rng);
    Wf.dense_rank ?filter ~name:"drnk" (forder rng);
    Wf.row_number ?filter ~name:"rno" (forder rng);
    Wf.percent_rank ?filter ~name:"prnk" (forder rng);
    Wf.cume_dist ?filter ~name:"cd" (forder rng);
    Wf.ntile ?filter ~name:"nt" (1 + Rng.int rng 5) (forder rng);
    Wf.percentile_disc ?filter ~name:"pd"
      (float_of_int (Rng.int rng 101) /. 100.0)
      [ Sort_spec.asc (Expr.Col "v") ];
    Wf.percentile_cont ?filter ~name:"pc"
      (float_of_int (Rng.int rng 101) /. 100.0)
      [ Sort_spec.asc (Expr.Col "v") ];
    Wf.median ?filter ~name:"med" (Expr.Col "v");
    Wf.mode ?filter ~name:"mode" (Expr.Col "k");
    Wf.mode ?filter ~name:"modef" (Expr.Col "v");
    Wf.first_value ?filter ~order:(forder rng) ~name:"fv" (Expr.Col "v");
    Wf.last_value ?filter ~order:(forder rng) ~name:"lv" (Expr.Col "v");
    Wf.nth_value ?filter ~order:(forder rng) ~name:"nv" (1 + Rng.int rng 4) (Expr.Col "v");
    Wf.nth_value ?filter ~order:(forder rng) ~from_last:true ~name:"nvl" (1 + Rng.int rng 4)
      (Expr.Col "v");
    Wf.first_value ?filter ~ignore_nulls:true ~order:(forder rng) ~name:"fvn" (Expr.Col "v");
    Wf.lead ?filter ~ignore_nulls:true ~order:(forder rng) ~name:"ldn" (Expr.Col "v");
    Wf.lag ?filter ~order:(forder rng) ~name:"lgn" (Expr.Col "v");
    Wf.lead ?filter ~order:(forder rng) ~offset:(Rng.int rng 3) ~name:"ld" (Expr.Col "v");
    Wf.lag ?filter ~order:(forder rng) ~offset:(Rng.int rng 3)
      ~default:(Expr.Const (Value.Float (-1.0)))
      ~name:"lg" (Expr.Col "v");
  ]

let compare_against_oracle ~algorithm ~supported seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 36 in
  let table = make_table rng n in
  let over = random_over rng in
  let items = List.filter supported (random_items rng) in
  let items =
    List.map
      (fun (it : Wf.t) ->
        match it.Wf.func, algorithm with
        (* mode has no tree algorithm: keep Auto except for the Naive pass *)
        | Wf.Mode _, Wf.Naive -> { it with Wf.algorithm = Wf.Naive }
        | Wf.Mode _, _ -> it
        | _ -> { it with Wf.algorithm })
      items
  in
  let expected = Oracle.run table ~over items in
  let got =
    Window_plan.run
      ~fanout:(2 + Rng.int rng 7)
      ~sample:[| 0; 1; 3; 32 |].(Rng.int rng 4)
      ~task_size:(1 + Rng.int rng 12)
      table
      [ { Window_plan.spec = over; items } ]
  in
  List.iter
    (fun (name, exp) ->
      let col = Table.column got name in
      Array.iteri
        (fun i e ->
          let g = Column.get col i in
          if not (value_eq e g) then
            Alcotest.failf "seed %d: %s row %d: oracle=%s engine=%s" seed name i
              (Value.to_string e) (Value.to_string g))
        exp)
    expected

let has_exclusion (over : Window_spec.t) =
  match over.frame with
  | Some f -> f.Window_spec.exclusion <> Window_spec.Exclude_no_others
  | None -> false

let mst_vs_oracle seed () = compare_against_oracle ~algorithm:Wf.Mst ~supported:(fun _ -> true) seed
let auto_vs_oracle seed () = compare_against_oracle ~algorithm:Wf.Auto ~supported:(fun _ -> true) seed

let nocascade_vs_oracle seed () =
  compare_against_oracle ~algorithm:Wf.Mst_no_cascade
    ~supported:(fun it ->
      match it.Wf.func with
      | Wf.Aggregate { distinct = false; _ } -> false (* plain aggs don't cascade *)
      | _ -> true)
    seed

let naive_vs_oracle seed () =
  compare_against_oracle ~algorithm:Wf.Naive ~supported:(fun _ -> true) seed

(* incremental / OST support neither exclusion nor every function; check the
   supported subset on exclusion-free frames *)
let incremental_vs_oracle alg seed () =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 30 in
  let table = make_table rng n in
  let over = random_over rng in
  if not (has_exclusion over) then begin
    let items =
      [
        Wf.median ~algorithm:alg ~name:"med" (Expr.Col "v");
        Wf.lead ~algorithm:alg ~order:[ Sort_spec.asc (Expr.Col "v") ] ~name:"ld" (Expr.Col "v");
        Wf.first_value ~algorithm:alg ~order:[ Sort_spec.desc (Expr.Col "v") ] ~name:"fv"
          (Expr.Col "v");
      ]
      @ (if alg = Wf.Incremental || alg = Wf.Incremental_serial then
           [ Wf.count ~algorithm:alg ~distinct:true ~name:"dc" (Expr.Col "k") ]
         else [ Wf.rank ~algorithm:alg ~name:"rnk" [ Sort_spec.asc (Expr.Col "v") ] ])
    in
    let expected = Oracle.run table ~over items in
    let got =
      Window_plan.run ~task_size:(1 + Rng.int rng 9) table [ { Window_plan.spec = over; items } ]
    in
    List.iter
      (fun (name, exp) ->
        let col = Table.column got name in
        Array.iteri
          (fun i e ->
            if not (value_eq e (Column.get col i)) then
              Alcotest.failf "seed %d: %s row %d: oracle=%s engine=%s" seed name i
                (Value.to_string e)
                (Value.to_string (Column.get col i)))
          exp)
      expected
  end

(* =====================================================================
   Deterministic unit tests
   ===================================================================== *)

let test_running_sum () =
  let table = Table.create [ ("x", Column.ints [| 3; 1; 4; 1; 5 |]) ] in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "x") ]
      ~frame:(Window_spec.rows_between Window_spec.Unbounded_preceding Window_spec.Current_row)
      ()
  in
  let t =
    Window_plan.run table [ { Window_plan.spec = over; items = [ Wf.sum ~name:"rs" (Expr.Col "x") ] } ]
  in
  let c = Table.column t "rs" in
  (* sorted: 1 1 3 4 5 → running 1 2 5 9 14; original order 3 1 4 1 5 *)
  let got = Array.init 5 (fun i -> Column.get c i) in
  Alcotest.(check (list string)) "running sums in input order"
    [ "5"; "1"; "9"; "2"; "14" ]
    (Array.to_list (Array.map Value.to_string got))

let test_tpcc_query_shape () =
  (* the §2.4 flagship query: framed count(distinct), rank, first_value,
     lead over an unbounded-preceding frame *)
  let table = Holistic_data.Scenarios.tpcc_results ~rows:200 () in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "submission_date") ]
      ~frame:(Window_spec.range_between Window_spec.Unbounded_preceding Window_spec.Current_row)
      ()
  in
  let items =
    [
      Wf.count ~distinct:true ~name:"competitors" (Expr.Col "dbsystem");
      Wf.rank ~name:"rank_at_submission" [ Sort_spec.desc (Expr.Col "tps") ];
      Wf.first_value ~order:[ Sort_spec.desc (Expr.Col "tps") ] ~name:"best_tps" (Expr.Col "tps");
      Wf.lead ~order:[ Sort_spec.desc (Expr.Col "tps") ] ~name:"next_best" (Expr.Col "tps");
    ]
  in
  let expected = Oracle.run table ~over items in
  let got = Window_plan.run table [ { Window_plan.spec = over; items } ] in
  List.iter
    (fun (name, exp) ->
      let col = Table.column got name in
      Array.iteri
        (fun i e ->
          if not (value_eq e (Column.get col i)) then
            Alcotest.failf "%s row %d differs" name i)
        exp)
    expected

let test_empty_table () =
  let table = Table.create [ ("x", Column.ints [||]) ] in
  let over = Window_spec.over ~order_by:[ Sort_spec.asc (Expr.Col "x") ] () in
  let t =
    Window_plan.run table [ { Window_plan.spec = over; items = [ Wf.median ~name:"m" (Expr.Col "x") ] } ]
  in
  Alcotest.(check int) "no rows" 0 (Table.nrows t);
  Alcotest.(check (list string)) "column added" [ "x"; "m" ] (Table.column_names t)

let test_single_row () =
  let table = Table.create [ ("x", Column.ints [| 9 |]) ] in
  let over = Window_spec.over ~order_by:[ Sort_spec.asc (Expr.Col "x") ] () in
  let t =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              Wf.median ~name:"m" (Expr.Col "x");
              Wf.rank ~name:"r" [ Sort_spec.asc (Expr.Col "x") ];
              Wf.count ~distinct:true ~name:"d" (Expr.Col "x");
            ];
        };
      ]
  in
  Alcotest.(check string) "median" "9" (Value.to_string (Column.get (Table.column t "m") 0));
  Alcotest.(check string) "rank" "1" (Value.to_string (Column.get (Table.column t "r") 0));
  Alcotest.(check string) "distinct" "1" (Value.to_string (Column.get (Table.column t "d") 0))

let test_empty_frame_semantics () =
  let table = Table.create [ ("x", Column.ints [| 1; 2; 3 |]) ] in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "x") ]
      ~frame:(Window_spec.rows_between (Window_spec.following 5) (Window_spec.following 9))
      ()
  in
  let t =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              Wf.median ~name:"m" (Expr.Col "x");
              Wf.count_star ~name:"c" ();
              Wf.sum ~name:"s" (Expr.Col "x");
              Wf.rank ~name:"r" [ Sort_spec.asc (Expr.Col "x") ];
            ];
        };
      ]
  in
  Alcotest.(check string) "median of empty frame" "NULL"
    (Value.to_string (Column.get (Table.column t "m") 0));
  Alcotest.(check string) "count of empty frame" "0"
    (Value.to_string (Column.get (Table.column t "c") 0));
  Alcotest.(check string) "sum of empty frame" "NULL"
    (Value.to_string (Column.get (Table.column t "s") 0));
  Alcotest.(check string) "rank over empty frame" "1"
    (Value.to_string (Column.get (Table.column t "r") 0))

let test_stock_orders_shape () =
  (* §2.2 non-constant bounds: compare engine against the oracle *)
  let table = Holistic_data.Scenarios.stock_orders ~rows:120 () in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "placement_time") ]
      ~frame:
        (Window_spec.range_between Window_spec.Current_row
           (Window_spec.Following (Expr.Col "good_for")))
      ()
  in
  let items = [ Wf.median ~name:"med" (Expr.Col "price") ] in
  let expected = Oracle.run table ~over items in
  let got = Window_plan.run table [ { Window_plan.spec = over; items } ] in
  let col = Table.column got "med" in
  List.iter
    (fun (_, exp) ->
      Array.iteri
        (fun i e ->
          if not (value_eq e (Column.get col i)) then Alcotest.failf "stock row %d differs" i)
        exp)
    expected

let test_multi_domain_determinism () =
  (* the probe phase is claimed embarrassingly parallel: a 3-domain pool
     must produce bit-identical results to the serial pool *)
  let table = Holistic_data.Tpch.lineitem ~rows:30_000 () in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "l_shipdate") ]
      ~frame:(Window_spec.rows_between (Window_spec.preceding 500) Window_spec.Current_row)
      ()
  in
  let items =
    [
      Wf.median ~name:"med" (Expr.Col "l_extendedprice");
      Wf.count ~distinct:true ~name:"dc" (Expr.Col "l_partkey");
      Wf.rank ~name:"rnk" [ Sort_spec.desc (Expr.Col "l_extendedprice") ];
    ]
  in
  let pool1 = Holistic_parallel.Task_pool.create 1 in
  let pool3 = Holistic_parallel.Task_pool.create 3 in
  let clauses = [ { Window_plan.spec = over; items } ] in
  let serial = Window_plan.run ~pool:pool1 ~task_size:1_000 table clauses in
  let parallel = Window_plan.run ~pool:pool3 ~task_size:1_000 table clauses in
  Holistic_parallel.Task_pool.shutdown pool1;
  Holistic_parallel.Task_pool.shutdown pool3;
  List.iter
    (fun name ->
      let a = Table.column serial name and b = Table.column parallel name in
      for i = 0 to Table.nrows serial - 1 do
        if not (value_eq (Column.get a i) (Column.get b i)) then
          Alcotest.failf "%s row %d differs between 1-domain and 3-domain pools" name i
      done)
    [ "med"; "dc"; "rnk" ]

let test_unsupported_combination () =
  let table = Table.create [ ("x", Column.ints [| 1; 2 |]) ] in
  let over = Window_spec.over ~order_by:[ Sort_spec.asc (Expr.Col "x") ] () in
  Alcotest.(check bool) "raises invalid_arg" true
    (try
       ignore
         (Window_plan.run table
            [
              {
                Window_plan.spec = over;
                items = [ Wf.sum ~algorithm:Wf.Incremental ~name:"s" (Expr.Col "x") ];
              };
            ]);
       false
     with Invalid_argument _ -> true)

let oracle_cases algorithm mk =
  List.init 60 (fun i ->
      Alcotest.test_case (Printf.sprintf "%s seed %d" algorithm i) `Quick (mk (i * 37)))

let () =
  Alcotest.run "window"
    [
      ( "unit",
        [
          Alcotest.test_case "running sum" `Quick test_running_sum;
          Alcotest.test_case "tpcc flagship query" `Quick test_tpcc_query_shape;
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "single row" `Quick test_single_row;
          Alcotest.test_case "empty frames" `Quick test_empty_frame_semantics;
          Alcotest.test_case "non-constant bounds (stock orders)" `Quick test_stock_orders_shape;
          Alcotest.test_case "multi-domain determinism" `Quick test_multi_domain_determinism;
          Alcotest.test_case "unsupported combination" `Quick test_unsupported_combination;
        ] );
      ("oracle-mst", oracle_cases "mst" mst_vs_oracle);
      ("oracle-auto", oracle_cases "auto" auto_vs_oracle);
      ("oracle-no-cascade", oracle_cases "nocascade" nocascade_vs_oracle);
      ("oracle-naive", oracle_cases "naive" naive_vs_oracle);
      ("oracle-incremental", oracle_cases "incremental" (incremental_vs_oracle Wf.Incremental));
      ( "oracle-incremental-serial",
        oracle_cases "incremental-serial" (incremental_vs_oracle Wf.Incremental_serial) );
      ("oracle-ost", oracle_cases "ost" (incremental_vs_oracle Wf.Order_statistic));
    ]
