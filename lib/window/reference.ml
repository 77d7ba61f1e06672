(* A deliberately naive re-implementation of the whole window pipeline, used
   as the differential-testing oracle by the fuzz suite.

   Everything here is per-row, list-based and comparator-driven: partitions
   are hash buckets of evaluated key values, sorts call
   [Sort_spec.comparator] per comparison, frames are linear scans, and every
   function is evaluated from the covered positions from first principles.
   None of the machinery under test — key codecs, normalized-key sorts, OVC
   merging, rank encodings, merge sort trees, segment trees, the build
   cache — is touched.

   The only piece of the planner shared on purpose is
   [Window_plan.schedule]: stage assignment is observable (a clause ordered
   by a prefix of another clause's order is evaluated under the longer
   stage sort, which ROWS frames can see under ties), so the oracle must
   sort by the same stage orders the plan chooses. *)

open Holistic_storage
open Window_spec

let value_to_float = function
  | Value.Int x -> float_of_int x
  | Value.Float x -> x
  | Value.Date d -> float_of_int d
  | _ -> Float.nan

let to_float_numeric = function
  | Value.Int x -> float_of_int x
  | Value.Float x -> x
  | v -> invalid_arg ("Window: AVG of non-numeric value " ^ Value.to_string v)

(* --- partitioning --------------------------------------------------- *)

(* Buckets of row ids sharing the evaluated PARTITION BY key values.
   [Hashtbl] compares keys structurally, which gives SQL grouping semantics
   for NULLs (NULL groups with NULL). Bucket order is irrelevant: results
   land at original row ids. *)
let partitions table (exprs : Expr.t list) =
  let n = Table.nrows table in
  if exprs = [] then [ Array.init n (fun i -> i) ]
  else begin
    let fs = List.map (Expr.compile table) exprs in
    let tbl = Hashtbl.create 64 in
    let keys_seen = ref [] in
    for r = 0 to n - 1 do
      let key = List.map (fun f -> f r) fs in
      match Hashtbl.find_opt tbl key with
      | Some l -> l := r :: !l
      | None ->
          Hashtbl.add tbl key (ref [ r ]);
          keys_seen := key :: !keys_seen
    done;
    List.rev_map
      (fun key -> Array.of_list (List.rev !(Hashtbl.find tbl key)))
      !keys_seen
  end

(* The pipeline's total sort order: the stage ORDER BY, then ascending row
   id (the encoded sorts guarantee exactly this permutation). *)
let sorted_rows table (order : Sort_spec.t) part =
  let rows = Array.copy part in
  let cmp = Sort_spec.comparator table order in
  Array.sort (fun a b ->
      let c = cmp a b in
      if c <> 0 then c else compare a b)
    rows;
  rows

(* --- frames, linear-scan edition ------------------------------------ *)

let peers_of table (order : Sort_spec.t) rows =
  let np = Array.length rows in
  let peer_start = Array.make np 0 and peer_end = Array.make np np in
  if order <> [] then begin
    let cmp = Sort_spec.comparator table order in
    let gstart = ref 0 in
    for r = 1 to np do
      if r = np || cmp rows.(r - 1) rows.(r) <> 0 then begin
        for i = !gstart to r - 1 do
          peer_start.(i) <- !gstart;
          peer_end.(i) <- r
        done;
        gstart := r
      end
    done
  end;
  (peer_start, peer_end)

(* An offset past the partition's [np] rows reaches as far as [np + 1]
   does; capping it keeps the position arithmetic from wrapping. *)
let eval_offset table expr row ~np =
  match Expr.eval table expr row with
  | Value.Int k when k >= 0 -> min k (np + 1)
  | _ -> invalid_arg "Frame: bad ROWS/GROUPS offset"

(* Covered position ranges per partition position: resolved frame bounds,
   clamped, minus the exclusion holes. *)
let frame_ranges table (spec : Window_spec.t) rows (peer_start, peer_end) =
  let np = Array.length rows in
  let frame =
    match spec.frame with
    | Some f -> f
    | None ->
        if spec.order_by = [] then Window_spec.whole_partition
        else range_between Unbounded_preceding Current_row
  in
  let start_ = Array.make np 0 and end_ = Array.make np 0 in
  (match frame.mode with
  | Rows ->
      for r = 0 to np - 1 do
        let row = rows.(r) in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Preceding e -> r - eval_offset table e row ~np
          | Current_row -> r
          | Following e -> r + eval_offset table e row ~np
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Preceding e -> r - eval_offset table e row ~np + 1
          | Current_row -> r + 1
          | Following e -> r + eval_offset table e row ~np + 1
          | Unbounded_following -> np)
      done
  | Groups ->
      (* group index per row; group g spans [gstart g, gend g) *)
      let gidx = Array.make np 0 in
      for r = 1 to np - 1 do
        gidx.(r) <- gidx.(r - 1) + (if peer_start.(r) = r then 1 else 0)
      done;
      let ngroups = if np = 0 then 0 else gidx.(np - 1) + 1 in
      let gstart = Array.make (max ngroups 1) 0 and gend = Array.make (max ngroups 1) 0 in
      for r = 0 to np - 1 do
        gstart.(gidx.(r)) <- peer_start.(r);
        gend.(gidx.(r)) <- peer_end.(r)
      done;
      for r = 0 to np - 1 do
        let row = rows.(r) in
        let g = gidx.(r) in
        let bound ~is_start = function
          | Unbounded_preceding -> 0
          | Current_row -> if is_start then peer_start.(r) else peer_end.(r)
          | Preceding e ->
              let k = eval_offset table e row ~np in
              if g - k < 0 then 0 else if is_start then gstart.(g - k) else gend.(g - k)
          | Following e ->
              let k = eval_offset table e row ~np in
              if g + k >= ngroups then np
              else if is_start then gstart.(g + k)
              else gend.(g + k)
          | Unbounded_following -> np
        in
        start_.(r) <- bound ~is_start:true frame.start_bound;
        end_.(r) <- bound ~is_start:false frame.end_bound
      done
  | Range ->
      let needs_key =
        match frame.start_bound, frame.end_bound with
        | (Preceding _ | Following _), _ | _, (Preceding _ | Following _) -> true
        | _ -> false
      in
      let key = match spec.order_by with [ k ] -> Some k | _ -> None in
      if needs_key && key = None then
        invalid_arg "Frame: RANGE with offsets requires exactly one ORDER BY key";
      let vals, nulls_first, desc =
        match key with
        | None -> ([||], false, false)
        | Some k ->
            let f = Expr.compile table k.Sort_spec.expr in
            ( Array.init np (fun r -> f rows.(r)),
              not (Sort_spec.nulls_last_flag k),
              k.Sort_spec.direction = Sort_spec.Desc )
      in
      let nn_lo, nn_hi =
        if vals = [||] then (0, np)
        else begin
          let nnulls =
            Array.fold_left (fun acc v -> if Value.is_null v then acc + 1 else acc) 0 vals
          in
          if nulls_first then (nnulls, np) else (0, np - nnulls)
        end
      in
      let cmpv a b = Value.compare_sql ~nulls_last:true a b in
      (* first position in the non-null region satisfying a predicate that
         is monotone under the sorted order; nn_hi when none does *)
      let scan_first pred =
        let p = ref nn_lo in
        while !p < nn_hi && not (pred !p) do
          incr p
        done;
        !p
      in
      (* [vs p] compares row [p]'s key with a target *)
      let first_geq vs = scan_first (fun p -> if desc then vs p <= 0 else vs p >= 0) in
      let past_leq vs = scan_first (fun p -> if desc then vs p < 0 else vs p > 0) in
      (* The offset types [Frame] searches with, by the partition's
         non-NULL key values: numbers take numbers, dates take days and
         intervals, and any other key takes none. A misfit raises only
         after the value arithmetic has had its chance to raise its own
         error, as in [Frame]. *)
      let only p = Array.for_all (fun v -> Value.is_null v || p v) vals in
      let fits =
        if only (function Value.Int _ | Value.Float _ -> true | _ -> false) then
          function Value.Int _ | Value.Float _ -> true | _ -> false
        else if only (function Value.Date _ -> true | _ -> false) then
          function Value.Int _ | Value.Interval _ -> true | _ -> false
        else fun _ -> false
      in
      let shifted v e row ~towards_preceding =
        let d = Expr.eval table e row in
        if Value.is_null d then invalid_arg "Frame: NULL RANGE offset";
        let back = if desc then not towards_preceding else towards_preceding in
        let target = if back then Value.sub v d else Value.add v d in
        if not (fits d) then invalid_arg "Frame: RANGE offset type does not match the ORDER BY key";
        (* integer arithmetic that leaves the int range puts the target
           above or below every key *)
        match v, d, target with
        | (Value.Int x | Value.Date x), Value.Int y, (Value.Int t | Value.Date t)
          when (if back then y < 0 else y > 0) && t < x ->
            fun _ -> -1
        | (Value.Int x | Value.Date x), Value.Int y, (Value.Int t | Value.Date t)
          when (if back then y > 0 else y < 0) && t > x ->
            fun _ -> 1
        | _ -> fun p -> cmpv vals.(p) target
      in
      for r = 0 to np - 1 do
        let row = rows.(r) in
        let v = if vals = [||] then Value.Null else vals.(r) in
        let is_null = Value.is_null v in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Current_row -> peer_start.(r)
          | Preceding e ->
              if is_null then peer_start.(r)
              else first_geq (shifted v e row ~towards_preceding:true)
          | Following e ->
              if is_null then peer_start.(r)
              else first_geq (shifted v e row ~towards_preceding:false)
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Current_row -> peer_end.(r)
          | Preceding e ->
              if is_null then peer_end.(r)
              else past_leq (shifted v e row ~towards_preceding:true)
          | Following e ->
              if is_null then peer_end.(r)
              else past_leq (shifted v e row ~towards_preceding:false)
          | Unbounded_following -> np)
      done);
  for r = 0 to np - 1 do
    start_.(r) <- max 0 (min start_.(r) np);
    end_.(r) <- max 0 (min end_.(r) np);
    if end_.(r) < start_.(r) then end_.(r) <- start_.(r)
  done;
  fun r ->
    let s = start_.(r) and e = end_.(r) in
    if s >= e then []
    else begin
      let holes =
        match frame.exclusion with
        | Exclude_no_others -> []
        | Exclude_current_row -> [ (r, r + 1) ]
        | Exclude_group -> [ (peer_start.(r), peer_end.(r)) ]
        | Exclude_ties -> [ (peer_start.(r), r); (r + 1, peer_end.(r)) ]
      in
      let holes =
        List.filter_map
          (fun (a, b) ->
            let a = max a s and b = min b e in
            if a < b then Some (a, b) else None)
          holes
      in
      let pieces = ref [] and pos = ref s in
      List.iter
        (fun (a, b) ->
          if a > !pos then pieces := (!pos, a) :: !pieces;
          pos := max !pos b)
        holes;
      if !pos < e then pieces := (!pos, e) :: !pieces;
      List.rev !pieces
    end

(* --- per-item evaluation -------------------------------------------- *)

let ntile_bucket ~buckets ~s ~rn0 =
  let rn0 = max 0 (min rn0 (s - 1)) in
  let q = s / buckets and rem = s mod buckets in
  let b =
    if q = 0 then rn0
    else if rn0 < (q + 1) * rem then rn0 / (q + 1)
    else rem + ((rn0 - ((q + 1) * rem)) / q)
  in
  b + 1

(* Count of distinct ordering-equivalence classes in a position list. *)
let distinct_classes cmp positions =
  match List.sort cmp positions with
  | [] -> 0
  | p0 :: rest ->
      let n, _ =
        List.fold_left (fun (n, prev) p -> if cmp prev p <> 0 then (n + 1, p) else (n, prev))
          (1, p0) rest
      in
      n

let eval_item table (spec : Window_spec.t) rows ranges_of (item : Window_func.t) out =
  let open Window_func in
  let pos_cmp order =
    let c = Sort_spec.comparator table order in
    fun p q -> c rows.(p) rows.(q)
  in
  let eff order = if order = [] then spec.order_by else order in
  let filter_ok =
    match item.filter with
    | None -> fun _ -> true
    | Some e ->
        let f = Expr.compile table e in
        fun p -> Expr.to_bool (f rows.(p))
  in
  let nonnull e =
    let f = Expr.compile table e in
    fun p -> not (Value.is_null (f rows.(p)))
  in
  (* covered qualifying positions of row [r], ascending *)
  let covered ?(extra = fun _ -> true) r =
    List.concat_map
      (fun (lo, hi) ->
        List.filter (fun p -> filter_ok p && extra p) (List.init (hi - lo) (fun i -> lo + i)))
      (ranges_of r)
  in
  let emit r v = out.(rows.(r)) <- v in
  let np = Array.length rows in
  (* rank-family core: counts against the effective order *)
  let rank_family variant order =
    let cmp = pos_cmp (eff order) in
    for r = 0 to np - 1 do
      let cov = covered r in
      let s = List.length cov in
      let cnt_less = List.length (List.filter (fun p -> cmp p r < 0) cov) in
      let v =
        match variant with
        | `Rank -> Value.Int (cnt_less + 1)
        | `Dense ->
            Value.Int (distinct_classes cmp (List.filter (fun p -> cmp p r < 0) cov) + 1)
        | `Percent ->
            Value.Float
              (if s <= 1 then 0.0 else float_of_int cnt_less /. float_of_int (s - 1))
        | `Cume ->
            if s = 0 then Value.Null
            else begin
              let le = List.length (List.filter (fun p -> cmp p r <= 0) cov) in
              Value.Float (float_of_int le /. float_of_int s)
            end
        | `Row_number | `Ntile _ ->
            let rn0 =
              List.length
                (List.filter (fun p ->
                     let c = cmp p r in
                     c < 0 || (c = 0 && p < r))
                   cov)
            in
            (match variant with
            | `Row_number -> Value.Int (rn0 + 1)
            | `Ntile b -> if s = 0 then Value.Null else Value.Int (ntile_bucket ~buckets:b ~s ~rn0)
            | _ -> assert false)
      in
      emit r v
    done
  in
  (* select family: percentiles, value functions, LEAD/LAG *)
  let select_family kind arg order ignore_nulls =
    let order = eff order in
    let cmp = pos_cmp order in
    let is_percentile = match kind with `Disc _ | `Cont _ -> true | _ -> false in
    let extra =
      if is_percentile then
        match order with [] -> fun _ -> true | key :: _ -> nonnull key.Sort_spec.expr
      else if ignore_nulls then nonnull arg
      else fun _ -> true
    in
    let argf = Expr.compile table arg in
    let value_at p = argf rows.(p) in
    let float_at p = value_to_float (value_at p) in
    for r = 0 to np - 1 do
      let cov = covered ~extra r in
      let ord =
        Array.of_list
          (List.sort (fun p q ->
               let c = cmp p q in
               if c <> 0 then c else compare p q)
             cov)
      in
      let s = Array.length ord in
      let v =
        match kind with
        | `Disc p ->
            if s = 0 then Value.Null
            else begin
              let i = int_of_float (Float.ceil (p *. float_of_int s)) - 1 in
              value_at ord.(max 0 (min i (s - 1)))
            end
        | `Cont p ->
            if s = 0 then Value.Null
            else begin
              let x = p *. float_of_int (s - 1) in
              let lo = int_of_float (Float.floor x) in
              let frac = x -. float_of_int lo in
              let vlo = float_at ord.(lo) in
              if frac <= 0.0 || lo + 1 >= s then Value.Float vlo
              else Value.Float (vlo +. (frac *. (float_at ord.(lo + 1) -. vlo)))
            end
        | `First -> if s = 0 then Value.Null else value_at ord.(0)
        | `Last -> if s = 0 then Value.Null else value_at ord.(s - 1)
        | `Nth (n, from_last) ->
            let i = if from_last then s - n else n - 1 in
            if i >= 0 && i < s then value_at ord.(i) else Value.Null
        | `Shift (off, default) ->
            let rn =
              List.length
                (List.filter (fun p ->
                     let c = cmp p r in
                     c < 0 || (c = 0 && p < r))
                   cov)
            in
            let target = rn + off in
            if target >= 0 && target < s then value_at ord.(target)
            else begin
              match default with
              | Some e -> Expr.eval table e rows.(r)
              | None -> Value.Null
            end
      in
      emit r v
    done
  in
  (* aggregates *)
  let each_row ?extra f =
    for r = 0 to np - 1 do
      emit r (f (covered ?extra r))
    done
  in
  let distinct_reps arg cov =
    (* first-occurrence representative value per distinct argument value *)
    let argf = Expr.compile table arg in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let v = argf rows.(p) in
        if not (Hashtbl.mem seen v) then Hashtbl.add seen v ())
      cov;
    seen
  in
  match item.func with
  | Aggregate { kind = Count_star; _ } -> each_row (fun cov -> Value.Int (List.length cov))
  | Aggregate { kind = Count; arg = Some e; distinct = false } ->
      each_row ~extra:(nonnull e) (fun cov -> Value.Int (List.length cov))
  | Aggregate { kind = Count; arg = Some e; distinct = true } ->
      each_row ~extra:(nonnull e) (fun cov -> Value.Int (Hashtbl.length (distinct_reps e cov)))
  | Aggregate { kind = (Sum | Avg) as kind; arg = Some e; distinct = true } ->
      each_row ~extra:(nonnull e) (fun cov ->
          let reps = distinct_reps e cov in
          let c = Hashtbl.length reps in
          if c = 0 then Value.Null
          else begin
            (* ints sum exactly, as in a plain SUM *)
            let si, sf =
              Hashtbl.fold
                (fun v () (si, sf) ->
                  match v with Value.Int x -> (si + x, sf) | v -> (si, sf +. value_to_float v))
                reps (0, 0.0)
            in
            let s = sf +. float_of_int si in
            if kind = Sum then Value.Float s else Value.Float (s /. float_of_int c)
          end)
  | Aggregate { kind = (Sum | Avg | Min | Max) as kind; arg = Some e; _ } ->
      let argf = Expr.compile table e in
      each_row ~extra:(nonnull e) (fun cov ->
          let vals = List.map (fun p -> argf rows.(p)) cov in
          match kind with
          | Sum -> (match vals with [] -> Value.Null | v0 :: rest -> List.fold_left Value.add v0 rest)
          | Avg ->
              let c = List.length vals in
              if c = 0 then Value.Null
              else begin
                let s = match vals with [] -> Value.Null | v0 :: rest -> List.fold_left Value.add v0 rest in
                Value.Float (to_float_numeric s /. float_of_int c)
              end
          | Min ->
              List.fold_left
                (fun a v ->
                  if Value.is_null a then v
                  else if Value.compare_sql ~nulls_last:true v a < 0 then v
                  else a)
                Value.Null vals
          | Max ->
              List.fold_left
                (fun a v ->
                  if Value.is_null a then v
                  else if Value.compare_sql ~nulls_last:true v a > 0 then v
                  else a)
                Value.Null vals
          | _ -> assert false)
  | Aggregate _ -> invalid_arg "Reference: aggregate without argument"
  | Mode e ->
      let argf = Expr.compile table e in
      each_row ~extra:(nonnull e) (fun cov ->
          let counts = Hashtbl.create 16 in
          List.iter
            (fun p ->
              let v = argf rows.(p) in
              Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
            cov;
          Hashtbl.fold
            (fun v c best ->
              match best with
              | None -> Some (v, c)
              | Some (bv, bc) ->
                  if c > bc || (c = bc && Value.compare_sql ~nulls_last:true v bv < 0) then
                    Some (v, c)
                  else best)
            counts None
          |> function
          | None -> Value.Null
          | Some (v, _) -> v)
  | Rank order -> rank_family `Rank order
  | Dense_rank order -> rank_family `Dense order
  | Row_number order -> rank_family `Row_number order
  | Percent_rank order -> rank_family `Percent order
  | Cume_dist order -> rank_family `Cume order
  | Ntile (b, order) -> rank_family (`Ntile b) order
  | Percentile_disc (p, order) ->
      let arg =
        match order with
        | k :: _ -> k.Sort_spec.expr
        | [] -> invalid_arg "Reference: percentile requires an ORDER BY expression"
      in
      select_family (`Disc p) arg order false
  | Percentile_cont (p, order) ->
      let arg =
        match order with
        | k :: _ -> k.Sort_spec.expr
        | [] -> invalid_arg "Reference: percentile requires an ORDER BY expression"
      in
      select_family (`Cont p) arg order false
  | First_value { arg; order; ignore_nulls } -> select_family `First arg order ignore_nulls
  | Last_value { arg; order; ignore_nulls } -> select_family `Last arg order ignore_nulls
  | Nth_value (n, from_last, { arg; order; ignore_nulls }) ->
      select_family (`Nth (n, from_last)) arg order ignore_nulls
  | Lead (off, default, { arg; order; ignore_nulls }) ->
      select_family (`Shift (off, default)) arg order ignore_nulls
  | Lag (off, default, { arg; order; ignore_nulls }) ->
      select_family (`Shift (-off, default)) arg order ignore_nulls

(* --- driver ---------------------------------------------------------- *)

let run table (clauses : Window_plan.clause list) =
  let n = Table.nrows table in
  let outputs =
    List.map
      (fun (c : Window_plan.clause) ->
        (c, List.map (fun (it : Window_func.t) -> (it, Array.make n Value.Null)) c.items))
      clauses
  in
  List.iter
    (fun (g : Window_plan.group) ->
      let parts = partitions table g.partition_by in
      List.iter
        (fun (st : Window_plan.stage) ->
          List.iter
            (fun part ->
              let rows = sorted_rows table st.order part in
              List.iter
                (fun (cl : Window_plan.clause) ->
                  let peers = peers_of table cl.spec.order_by rows in
                  let ranges_of = frame_ranges table cl.spec rows peers in
                  List.iter
                    (fun (it, arr) -> eval_item table cl.spec rows ranges_of it arr)
                    (List.assq cl outputs))
                st.members)
            parts)
        g.stages)
    (Window_plan.schedule clauses);
  List.concat_map
    (fun ((_ : Window_plan.clause), outs) ->
      List.map (fun ((it : Window_func.t), arr) -> (it.name, arr)) outs)
    outputs
