open Holistic_storage
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Mstw = Holistic_core.Mst_width
module Prev = Holistic_core.Prev_occurrence
module Rank_encode = Holistic_core.Rank_encode
module Range_tree = Holistic_core.Range_tree
module Ost = Holistic_baselines.Order_statistic_tree
module Inc = Holistic_baselines.Incremental
module Naive = Holistic_baselines.Naive
open Window_func

(* Monoids and tree instances live in Build_cache (so cached trees have a
   home module); aliased here for the evaluator bodies. *)
module Value_monoid_sum = Build_cache.Value_monoid_sum
module Value_monoid_min = Build_cache.Value_monoid_min
module Value_monoid_max = Build_cache.Value_monoid_max
module Vsum_seg = Build_cache.Vsum_seg
module Vmin_seg = Build_cache.Vmin_seg
module Vmax_seg = Build_cache.Vmax_seg
module Sum_count_mst = Build_cache.Sum_count_mst

type ctx = {
  table : Table.t;
  pool : Task_pool.t;
  rows : int array;
  frame : Frame.t;
  window_order : Sort_spec.t;
  fanout : int;
  sample : int;
  task_size : int;
  width : Mstw.choice;
  cache : Build_cache.t;
  gov : Mem_governor.t option;
}

let np ctx = Array.length ctx.rows

let unsupported what =
  invalid_arg (Printf.sprintf "Window: unsupported function/algorithm combination (%s)" what)

(* Cache-key tag for the MST-family structures: the cascade-free variant
   builds different trees (sample 0) and must not alias the cascaded ones
   even when [ctx.sample] is 0. *)
let mst_tag = function Mst_no_cascade -> "mst-no-cascade" | _ -> "mst"

(* [maintain] callback for cached MSTs: run-stack the grown leaf array
   onto the stale tree ({!Mstw.try_extend}); [leaf] is a thunk because the
   grown operand is only needed when the entry is actually stale. *)
let mst_maintain ctx ~sample leaf old =
  let a = leaf () in
  match Mstw.try_extend ~fanout:ctx.fanout ~sample ~choice:ctx.width old a with
  | Some t -> Some (t, Printf.sprintf "+%d rows" (Array.length a - Mstw.length old))
  | None -> None

(* Governed MST construction. When the governor says the in-memory build's
   transients (operand array plus a sorted copy, ~16 B/row) would overrun
   the budget, the tree is built by streaming its leaves level-by-level
   ({!Mstw.create_stream}): [get] supplies elements one at a time so the
   operand array is never materialized on that path. Value bounds
   accumulate from 0 exactly like [Mst_width.value_bounds], so width
   selection — and therefore the tree — is bit-identical to [Mstw.create]
   over [arr ()]. *)
let governed_mst ctx ~sample ~n ~get ~arr =
  let stream =
    match ctx.gov with
    | Some g -> n > 0 && Mem_governor.stream_builds g ~bytes:(16 * n)
    | None -> false
  in
  if not stream then Mstw.create ~pool:ctx.pool ~fanout:ctx.fanout ~sample ~choice:ctx.width (arr ())
  else begin
    let mn = ref 0 and mx = ref 0 in
    for i = 0 to n - 1 do
      let v = get i in
      if v < !mn then mn := v;
      if v > !mx then mx := v
    done;
    Mstw.create_stream ~fanout:ctx.fanout ~sample ~choice:ctx.width ~n ~min_value:!mn
      ~max_value:!mx
      ~fill:(fun chunk ~pos ~len ->
        for i = 0 to len - 1 do
          chunk.(i) <- get (pos + i)
        done)
      ()
  end

(* ------------------------------------------------------------------ *)
(* Shared preprocessing helpers                                        *)
(* ------------------------------------------------------------------ *)

(* Qualifying-row remap for a structural predicate key; memoized per
   partition so items with equal FILTER / NULL-skipping predicates scan the
   partition once. *)
let qualify ctx (qual : Build_cache.qual) =
  match qual with
  | { Build_cache.filter = None; extra = Build_cache.Ex_none } -> Remap.all (np ctx)
  | _ ->
      Build_cache.remap ctx.cache ~qual (fun () ->
          let filt = Option.map (Expr.compile ctx.table) qual.Build_cache.filter in
          let extra =
            match qual.Build_cache.extra with
            | Build_cache.Ex_none -> None
            | Build_cache.Ex_nonnull (Expr.Col name) ->
                let c = Table.column ctx.table name in
                Some (fun r -> not (Column.is_null c ctx.rows.(r)))
            | Build_cache.Ex_nonnull e ->
                let f = Expr.compile ctx.table e in
                Some (fun r -> not (Value.is_null (f ctx.rows.(r))))
          in
          Remap.create ~np:(np ctx) ~qualifies:(fun r ->
              (match filt with None -> true | Some f -> Expr.to_bool (f ctx.rows.(r)))
              && match extra with None -> true | Some g -> g r))

let effective_order ctx spec = if spec = [] then ctx.window_order else spec

(* Integer preprocessing of an ORDER BY over the partition (§5.1 Fig. 8).
   Memoized on the effective ORDER BY: rank + percent_rank + median over one
   named window encode once. An order the partition is already sorted by
   (a prefix of the window order: every rank-family item, every value
   function without its own ORDER BY) reads its codes off the peer groups;
   single plain-column keys sort unboxed; anything else sorts with the
   comparator. *)
let encode ctx order =
  (* A stale encoding (the partition was extended in order under a
     session) extends instead of rebuilding: the prefix rows are
     untouched, so codes and permutation carry over and only the appended
     suffix is sorted and coded.  [extend_*] themselves verify the suffix
     sorts after the prefix and decline otherwise. *)
  let at keys = Array.map (fun row -> keys.(row)) ctx.rows in
  let maintain old =
    let n = np ctx in
    let grown = Printf.sprintf "+%d rows" (n - Array.length old.Rank_encode.permutation) in
    let ext =
      match Sort_spec.fast_key ctx.table order with
      | Some { Sort_spec.values = Sort_spec.Int_values keys; desc = false; nulls = None } ->
          Rank_encode.extend_ints old (at keys)
      | Some { Sort_spec.values = Sort_spec.Int_values keys; desc = true; nulls = None } ->
          Rank_encode.extend_cmp old n ~cmp:(fun i j ->
              compare keys.(ctx.rows.(j)) keys.(ctx.rows.(i)))
      | Some { Sort_spec.values = Sort_spec.Float_values keys; desc; nulls = None } ->
          Rank_encode.extend_floats ~desc old (at keys)
      | Some { Sort_spec.nulls = Some _; _ } | None ->
          let cmp_rows = Sort_spec.comparator ctx.table order in
          Rank_encode.extend_cmp old n ~cmp:(fun i j -> cmp_rows ctx.rows.(i) ctx.rows.(j))
    in
    Option.map (fun enc -> (enc, grown)) ext
  in
  Build_cache.encode ctx.cache ~maintain ~order (fun () ->
      if Sort_spec.is_prefix order ctx.window_order then
        (* [ctx.rows] is in window order, hence in [order]: the (key,
           position) sort would return the identity *)
        let peer_start, _ =
          Build_cache.peers ctx.cache ~order (fun () -> Frame.peers ctx.table order ctx.rows)
        in
        Rank_encode.of_peers peer_start
      else
        match Sort_spec.fast_key ctx.table order with
        | Some { Sort_spec.values; desc; nulls } -> (
            let nulls =
              Option.map
                (fun (mask, last) -> ((fun p -> Holistic_util.Bitset.get mask ctx.rows.(p)), last))
                nulls
            in
            match values with
            | Sort_spec.Int_values keys ->
                (* DESC = ascending [lnot] codes: an order-reversing bijection *)
                let keys = if desc then Array.map (fun row -> lnot keys.(row)) ctx.rows else at keys in
                Rank_encode.of_ints ~pool:ctx.pool ?nulls keys
            | Sort_spec.Float_values keys ->
                Rank_encode.of_floats ~pool:ctx.pool ~desc ?nulls (at keys))
        | None ->
            let cmp_rows = Sort_spec.comparator ctx.table order in
            Rank_encode.of_cmp ~pool:ctx.pool (np ctx) ~cmp:(fun i j ->
                cmp_rows ctx.rows.(i) ctx.rows.(j)))

let mapped_ranges ctx rm r = Remap.map_ranges rm (Frame.ranges ctx.frame r)
let covered_of ranges = Array.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 ranges

(* Embarrassingly parallel probe phase over the partition's rows. *)
let probe ctx f =
  Task_pool.parallel_for ctx.pool ~lo:0 ~hi:(np ctx) ~chunk:ctx.task_size (fun lo hi ->
      for r = lo to hi - 1 do
        f r
      done)

(* Task-based driver for incremental competitors: each chunk of [task_size]
   output rows rebuilds its state from scratch (§3.2). *)
let incremental_drive ctx rm ~serial ~make_state =
  let m = Remap.filtered_count rm in
  if Frame.exclusion ctx.frame <> Window_spec.Exclude_no_others then
    unsupported "incremental algorithms cannot evaluate frames with exclusion holes";
  let run lo hi =
    let add, remove, result, reset = make_state () in
    Inc.Frame_driver.run ~n:m
      ~frame:(fun r -> Remap.map_range rm (Frame.start_ ctx.frame r, Frame.end_ ctx.frame r))
      ~add ~remove ~result ~reset ~lo ~hi
  in
  if serial then run 0 (np ctx)
  else Task_pool.parallel_for ctx.pool ~lo:0 ~hi:(np ctx) ~chunk:ctx.task_size run

(* Access to an argument expression's values, with unboxed column fast
   paths. Positions are partition positions. (NULL tests live in [qualify]'s
   structural predicates now, so there is no null accessor here.) *)
type arg_access = {
  value_at : int -> Value.t;
  float_at : int -> float;
  ids_filtered : Remap.t -> int array; (* dense equality ids over filtered rows *)
}

let generic_ids value_at rm =
  let m = Remap.filtered_count rm in
  let id = Column.dense_numbering (2 * m) in
  Array.init m (fun i -> id (value_at (Remap.position rm i)))

let arg_access ctx e =
  let fallback () =
    let f = Expr.compile ctx.table e in
    let cache = Array.map f ctx.rows in
    {
      value_at = (fun r -> cache.(r));
      float_at =
        (fun r ->
          match cache.(r) with
          | Value.Int x -> float_of_int x
          | Value.Float x -> x
          | Value.Date d -> float_of_int d
          | _ -> nan);
      ids_filtered = (fun rm -> generic_ids (fun r -> cache.(r)) rm);
    }
  in
  match e with
  | Expr.Col name -> begin
      let c = Table.column ctx.table name in
      let value_at r = Column.get c ctx.rows.(r) in
      match Column.data c with
      | Column.Ints a | Column.Dates a ->
          {
            value_at;
            float_at = (fun r -> float_of_int a.(ctx.rows.(r)));
            ids_filtered =
              (fun rm ->
                Array.init (Remap.filtered_count rm) (fun i ->
                    a.(ctx.rows.(Remap.position rm i))));
          }
      | Column.Floats a ->
          {
            value_at;
            float_at = (fun r -> a.(ctx.rows.(r)));
            ids_filtered = generic_ids (fun r -> a.(ctx.rows.(r)));
          }
      | Column.Strings _ | Column.Bools _ ->
          {
            value_at;
            float_at = (fun _ -> nan);
            ids_filtered = (fun rm -> generic_ids value_at rm);
          }
    end
  | _ -> fallback ()

(* next-occurrence array derived from the encoded prev array *)
let next_of prev =
  let m = Array.length prev in
  let next = Array.make m m in
  for i = 0 to m - 1 do
    if prev.(i) > 0 then next.(prev.(i) - 1) <- i
  done;
  next

(* ------------------------------------------------------------------ *)
(* DISTINCT aggregates over holed frames (§4.7 + back-reference chains) *)
(* ------------------------------------------------------------------ *)

(* Iterates the hole positions whose value occurs in the frame's span only
   inside holes; [on_orphan] receives each such position once (its first
   in-span occurrence). See DESIGN.md: per-range thresholds overcount values
   spanning ranges, so holed DISTINCT frames are evaluated as one span query
   minus these orphans. *)
let iter_hole_orphans prev next ranges ~on_orphan =
  let k = Array.length ranges in
  let span_lo = fst ranges.(0) and span_hi = snd ranges.(k - 1) in
  let in_ranges q =
    let rec go i = i < k && ((q >= fst ranges.(i) && q < snd ranges.(i)) || go (i + 1)) in
    go 0
  in
  for g = 0 to k - 2 do
    let glo = snd ranges.(g) and ghi = fst ranges.(g + 1) in
    for p = glo to ghi - 1 do
      if prev.(p) < span_lo + 1 then begin
        let q = ref next.(p) in
        while !q < span_hi && not (in_ranges !q) do
          q := next.(!q)
        done;
        if !q >= span_hi then on_orphan p
      end
    done
  done

let span_of ranges = (fst ranges.(0), snd ranges.(Array.length ranges - 1))

(* ------------------------------------------------------------------ *)
(* Plain (non-distinct) framed aggregates — segment trees (Leis et al.) *)
(* ------------------------------------------------------------------ *)

let to_float_v = function
  | Value.Int x -> float_of_int x
  | Value.Float x -> x
  | v -> invalid_arg ("Window: AVG of non-numeric value " ^ Value.to_string v)

let eval_plain_agg ctx ~kind ~arg ~acc ~qual ~rm ~algorithm ~out =
  let m = Remap.filtered_count rm in
  let value_f i = acc.value_at (Remap.position rm i) in
  let emit r v = out.(ctx.rows.(r)) <- v in
  match algorithm with
  | Auto | Segment_tree -> begin
      match kind with
      | Sum | Avg ->
          let tree =
            match
              Build_cache.seg_tree ctx.cache ~cls:Build_cache.Seg_sum ~arg ~qual (fun () ->
                  Build_cache.Sum_tree (Vsum_seg.create m value_f))
            with
            | Build_cache.Sum_tree t -> t
            | _ -> assert false
          in
          probe ctx (fun r ->
              let ranges = mapped_ranges ctx rm r in
              let s =
                Array.fold_left
                  (fun a (lo, hi) -> Value_monoid_sum.combine a (Vsum_seg.query tree ~lo ~hi))
                  Value.Null ranges
              in
              if kind = Sum then emit r s
              else begin
                let cnt = covered_of ranges in
                emit r (if cnt = 0 then Value.Null else Value.Float (to_float_v s /. float_of_int cnt))
              end)
      | Min ->
          let tree =
            match
              Build_cache.seg_tree ctx.cache ~cls:Build_cache.Seg_min ~arg ~qual (fun () ->
                  Build_cache.Min_tree (Vmin_seg.create m value_f))
            with
            | Build_cache.Min_tree t -> t
            | _ -> assert false
          in
          probe ctx (fun r ->
              let ranges = mapped_ranges ctx rm r in
              emit r
                (Array.fold_left
                   (fun a (lo, hi) -> Value_monoid_min.combine a (Vmin_seg.query tree ~lo ~hi))
                   Value.Null ranges))
      | Max ->
          let tree =
            match
              Build_cache.seg_tree ctx.cache ~cls:Build_cache.Seg_max ~arg ~qual (fun () ->
                  Build_cache.Max_tree (Vmax_seg.create m value_f))
            with
            | Build_cache.Max_tree t -> t
            | _ -> assert false
          in
          probe ctx (fun r ->
              let ranges = mapped_ranges ctx rm r in
              emit r
                (Array.fold_left
                   (fun a (lo, hi) -> Value_monoid_max.combine a (Vmax_seg.query tree ~lo ~hi))
                   Value.Null ranges))
      | Count | Count_star -> assert false
    end
  | Naive ->
      let combine =
        match kind with
        | Sum | Avg -> Value_monoid_sum.combine
        | Min -> Value_monoid_min.combine
        | Max -> Value_monoid_max.combine
        | Count | Count_star -> assert false
      in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let s = ref Value.Null in
          Array.iter
            (fun (lo, hi) ->
              for i = lo to hi - 1 do
                s := combine !s (value_f i)
              done)
            ranges;
          if kind = Avg then begin
            let cnt = covered_of ranges in
            emit r (if cnt = 0 then Value.Null else Value.Float (to_float_v !s /. float_of_int cnt))
          end
          else emit r !s)
  | Mst | Mst_no_cascade | Incremental | Incremental_serial | Order_statistic ->
      unsupported "plain aggregates support Auto/Segment_tree/Naive"

(* ------------------------------------------------------------------ *)
(* DISTINCT aggregates                                                 *)
(* ------------------------------------------------------------------ *)

let eval_distinct_count ctx ~arg ~filter ~algorithm ~out =
  let acc = arg_access ctx arg in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull arg } in
  let rm = qualify ctx qual in
  let ids = Build_cache.arg_ids ctx.cache ~arg ~qual (fun () -> acc.ids_filtered rm) in
  let emit r v = out.(ctx.rows.(r)) <- Value.Int v in
  match algorithm with
  | Auto | Mst | Mst_no_cascade ->
      let sample = if algorithm = Mst_no_cascade then 0 else ctx.sample in
      let prev =
        Build_cache.prev_array ctx.cache ~arg ~qual (fun () -> Prev.compute ~pool:ctx.pool ids)
      in
      let tree =
        Build_cache.distinct_tree ctx.cache ~algo:(mst_tag algorithm) ~arg ~qual ~sample
          ~maintain:(mst_maintain ctx ~sample (fun () -> prev))
          (fun () ->
            governed_mst ctx ~sample ~n:(Array.length prev) ~get:(Array.get prev)
              ~arr:(fun () -> prev))
      in
      let next =
        if Frame.exclusion ctx.frame = Window_spec.Exclude_no_others then [||] else next_of prev
      in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let v =
            match Array.length ranges with
            | 0 -> 0
            | 1 ->
                let lo, hi = ranges.(0) in
                Mstw.count tree ~lo ~hi ~less_than:(lo + 1)
            | _ ->
                let span_lo, span_hi = span_of ranges in
                let base = Mstw.count tree ~lo:span_lo ~hi:span_hi ~less_than:(span_lo + 1) in
                let corr = ref 0 in
                iter_hole_orphans prev next ranges ~on_orphan:(fun _ -> incr corr);
                base - !corr
          in
          emit r v)
  | Naive ->
      probe ctx (fun r -> emit r (Naive.distinct_count ids ~ranges:(mapped_ranges ctx rm r)))
  | Incremental | Incremental_serial ->
      incremental_drive ctx rm
        ~serial:(algorithm = Incremental_serial)
        ~make_state:(fun () ->
          let dc = Inc.Distinct_count.create () in
          ( (fun p -> Inc.Distinct_count.add dc ids.(p)),
            (fun p -> Inc.Distinct_count.remove dc ids.(p)),
            (fun r -> emit r (Inc.Distinct_count.count dc)),
            fun () -> Inc.Distinct_count.clear dc ))
  | Order_statistic | Segment_tree -> unsupported "distinct count"

let eval_distinct_sum_avg ctx ~kind ~arg ~filter ~algorithm ~out =
  let acc = arg_access ctx arg in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull arg } in
  let rm = qualify ctx qual in
  let ids = Build_cache.arg_ids ctx.cache ~arg ~qual (fun () -> acc.ids_filtered rm) in
  let m = Remap.filtered_count rm in
  let fvals = Array.init m (fun i -> acc.float_at (Remap.position rm i)) in
  let emit r (s, c) =
    out.(ctx.rows.(r)) <-
      (if c = 0 then Value.Null
       else if kind = Sum then Value.Float s
       else Value.Float (s /. float_of_int c))
  in
  match algorithm with
  | Auto | Mst | Mst_no_cascade ->
      let sample = if algorithm = Mst_no_cascade then 0 else ctx.sample in
      let prev =
        Build_cache.prev_array ctx.cache ~arg ~qual (fun () -> Prev.compute ~pool:ctx.pool ids)
      in
      let tree =
        Build_cache.annotated_tree ctx.cache ~algo:(mst_tag algorithm) ~arg ~qual ~sample (fun () ->
            Sum_count_mst.create ~pool:ctx.pool ~fanout:ctx.fanout ~sample ~keys:prev
              ~value:(fun i -> (fvals.(i), 1))
              ())
      in
      let next =
        if Frame.exclusion ctx.frame = Window_spec.Exclude_no_others then [||] else next_of prev
      in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let v =
            match Array.length ranges with
            | 0 -> (0.0, 0)
            | 1 ->
                let lo, hi = ranges.(0) in
                Sum_count_mst.query tree ~lo ~hi ~less_than:(lo + 1)
            | _ ->
                let span_lo, span_hi = span_of ranges in
                let s, c = Sum_count_mst.query tree ~lo:span_lo ~hi:span_hi ~less_than:(span_lo + 1) in
                let corr_s = ref 0.0 and corr_c = ref 0 in
                iter_hole_orphans prev next ranges ~on_orphan:(fun p ->
                    corr_s := !corr_s +. fvals.(p);
                    incr corr_c);
                (s -. !corr_s, c - !corr_c)
          in
          emit r v)
  | Naive ->
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let seen = Hashtbl.create 16 in
          Array.iter
            (fun (lo, hi) ->
              for i = lo to hi - 1 do
                if not (Hashtbl.mem seen ids.(i)) then Hashtbl.add seen ids.(i) fvals.(i)
              done)
            ranges;
          let s = Hashtbl.fold (fun _ v a -> a +. v) seen 0.0 in
          emit r (s, Hashtbl.length seen))
  | Incremental | Incremental_serial | Order_statistic | Segment_tree ->
      unsupported "distinct sum/avg supports Auto/Mst/Naive"

let eval_aggregate ctx ~kind ~arg ~distinct ~filter ~algorithm ~out =
  match kind, arg with
  | Count_star, _ ->
      let rm = qualify ctx { Build_cache.filter; extra = Build_cache.Ex_none } in
      probe ctx (fun r -> out.(ctx.rows.(r)) <- Value.Int (covered_of (mapped_ranges ctx rm r)))
  | Count, Some e when not distinct ->
      let rm = qualify ctx { Build_cache.filter; extra = Build_cache.Ex_nonnull e } in
      probe ctx (fun r -> out.(ctx.rows.(r)) <- Value.Int (covered_of (mapped_ranges ctx rm r)))
  | Count, Some e -> eval_distinct_count ctx ~arg:e ~filter ~algorithm ~out
  | (Sum | Avg), Some e when distinct ->
      eval_distinct_sum_avg ctx ~kind ~arg:e ~filter ~algorithm ~out
  | (Sum | Avg | Min | Max), Some e ->
      (* MIN/MAX DISTINCT ≡ MIN/MAX *)
      let acc = arg_access ctx e in
      let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull e } in
      let rm = qualify ctx qual in
      eval_plain_agg ctx ~kind ~arg:e ~acc ~qual ~rm ~algorithm ~out
  | _ -> unsupported "aggregate without argument"

(* ------------------------------------------------------------------ *)
(* Windowed MODE (extension; Wesley & Xu's third holistic aggregate)   *)
(* ------------------------------------------------------------------ *)

let eval_mode ctx ~arg ~filter ~algorithm ~out =
  let acc = arg_access ctx arg in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull arg } in
  let rm = qualify ctx qual in
  let ids = Build_cache.arg_ids ctx.cache ~arg ~qual (fun () -> acc.ids_filtered rm) in
  let m = Remap.filtered_count rm in
  (* a representative row per id, giving ids their value for tie-breaking *)
  let repr = Hashtbl.create (2 * m) in
  for i = 0 to m - 1 do
    if not (Hashtbl.mem repr ids.(i)) then Hashtbl.add repr ids.(i) (Remap.position rm i)
  done;
  let value_of_id id = acc.value_at (Hashtbl.find repr id) in
  (* ids denote distinct values, so this order is strict: smallest value wins *)
  let better a b = Value.compare_sql ~nulls_last:true (value_of_id a) (value_of_id b) < 0 in
  let emit r id_opt =
    out.(ctx.rows.(r)) <- (match id_opt with None -> Value.Null | Some id -> value_of_id id)
  in
  let holed = Frame.exclusion ctx.frame <> Window_spec.Exclude_no_others in
  let algorithm =
    match algorithm with
    | Auto -> if holed then Naive else Incremental
    | a -> a
  in
  match algorithm with
  | Naive | Auto ->
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let counts = Hashtbl.create 16 in
          let best = ref None in
          Array.iter
            (fun (lo, hi) ->
              for i = lo to hi - 1 do
                let id = ids.(i) in
                let c = 1 + Option.value (Hashtbl.find_opt counts id) ~default:0 in
                Hashtbl.replace counts id c;
                best :=
                  (match !best with
                  | None -> Some (c, id)
                  | Some (bc, bid) ->
                      if c > bc || (c = bc && id <> bid && better id bid) then Some (c, id)
                      else Some (bc, bid))
              done)
            ranges;
          emit r (Option.map snd !best))
  | Incremental | Incremental_serial ->
      incremental_drive ctx rm
        ~serial:(algorithm = Incremental_serial)
        ~make_state:(fun () ->
          let st = Inc.Mode.create () in
          ( (fun p -> Inc.Mode.add st ids.(p)),
            (fun p -> Inc.Mode.remove st ids.(p)),
            (fun r -> emit r (Inc.Mode.mode st ~better)),
            fun () -> Inc.Mode.clear st ))
  | Mst | Mst_no_cascade | Order_statistic | Segment_tree ->
      unsupported "mode supports Auto/Naive/Incremental (no known O(n log n) range-mode index)"

(* ------------------------------------------------------------------ *)
(* Rank functions (§4.4)                                               *)
(* ------------------------------------------------------------------ *)

type rank_variant = Rank_v | Dense_v | Row_number_v | Percent_rank_v | Cume_dist_v | Ntile_v of int

let ntile_bucket ~buckets ~s ~rn0 =
  let rn0 = max 0 (min rn0 (s - 1)) in
  let q = s / buckets and rem = s mod buckets in
  let b =
    if q = 0 then rn0
    else if rn0 < (q + 1) * rem then rn0 / (q + 1)
    else rem + ((rn0 - ((q + 1) * rem)) / q)
  in
  b + 1

let eval_rank_family ctx ~variant ~order ~filter ~algorithm ~out =
  let order = effective_order ctx order in
  let enc = encode ctx order in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_none } in
  let rm = qualify ctx qual in
  let m = Remap.filtered_count rm in
  (* Lazy so the streamed (out-of-core) MST build path never materializes
     the filtered code arrays it doesn't probe with. *)
  let frank = lazy (Array.init m (fun i -> enc.Rank_encode.rank_codes.(Remap.position rm i))) in
  let frow = lazy (Array.init m (fun i -> enc.Rank_encode.row_codes.(Remap.position rm i))) in
  let emit r v = out.(ctx.rows.(r)) <- v in
  let finish r ~cnt_less ~cnt_le ~rn0 ~s =
    match variant with
    | Rank_v -> emit r (Value.Int (cnt_less + 1))
    | Percent_rank_v ->
        emit r (Value.Float (if s <= 1 then 0.0 else float_of_int cnt_less /. float_of_int (s - 1)))
    | Cume_dist_v ->
        emit r (if s = 0 then Value.Null else Value.Float (float_of_int cnt_le /. float_of_int s))
    | Row_number_v -> emit r (Value.Int (rn0 + 1))
    | Ntile_v b -> emit r (if s = 0 then Value.Null else Value.Int (ntile_bucket ~buckets:b ~s ~rn0))
    | Dense_v -> assert false
  in
  let needs_rank = match variant with Rank_v | Percent_rank_v | Cume_dist_v -> true | _ -> false in
  let needs_row = match variant with Row_number_v | Ntile_v _ -> true | _ -> false in
  match variant, algorithm with
  | Dense_v, (Auto | Mst | Mst_no_cascade) ->
      let sample = if algorithm = Mst_no_cascade then 0 else ctx.sample in
      let frank = Lazy.force frank in
      let rt =
        Build_cache.range_tree ctx.cache ~algo:(mst_tag algorithm) ~order ~qual ~sample (fun () ->
            Range_tree.create ~pool:ctx.pool ~fanout:ctx.fanout ~sample frank)
      in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let key = enc.Rank_encode.rank_codes.(r) in
          let v =
            match Array.length ranges with
            | 0 -> 0
            | 1 ->
                let lo, hi = ranges.(0) in
                Range_tree.distinct_below rt ~lo ~hi ~key
            | _ ->
                (* holed frames fall back to a scan; see DESIGN.md *)
                Naive.distinct_below frank ~ranges ~key
          in
          emit r (Value.Int (v + 1)))
  | Dense_v, Naive ->
      let frank = Lazy.force frank in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          emit r (Value.Int (Naive.distinct_below frank ~ranges ~key:enc.Rank_encode.rank_codes.(r) + 1)))
  | Dense_v, _ -> unsupported "dense_rank supports Auto/Mst/Naive"
  | _, (Auto | Mst | Mst_no_cascade) ->
      let sample = if algorithm = Mst_no_cascade then 0 else ctx.sample in
      let getr i = enc.Rank_encode.rank_codes.(Remap.position rm i) in
      let getw i = enc.Rank_encode.row_codes.(Remap.position rm i) in
      let tree_rank =
        if needs_rank then
          Some
            (Build_cache.count_tree ctx.cache ~algo:(mst_tag algorithm) ~cls:Build_cache.Rank_codes ~order ~qual ~sample
               ~maintain:(mst_maintain ctx ~sample (fun () -> Lazy.force frank))
               (fun () ->
                 governed_mst ctx ~sample ~n:m ~get:getr ~arr:(fun () -> Lazy.force frank)))
        else None
      in
      let tree_row =
        if needs_row then
          Some
            (Build_cache.count_tree ctx.cache ~algo:(mst_tag algorithm) ~cls:Build_cache.Row_codes ~order ~qual ~sample
               ~maintain:(mst_maintain ctx ~sample (fun () -> Lazy.force frow))
               (fun () ->
                 governed_mst ctx ~sample ~n:m ~get:getw ~arr:(fun () -> Lazy.force frow)))
        else None
      in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let s = covered_of ranges in
          let code = enc.Rank_encode.rank_codes.(r) in
          let cnt_less, cnt_le =
            match tree_rank with
            | Some t ->
                ( Mstw.count_ranges t ~ranges ~less_than:code,
                  if variant = Cume_dist_v then Mstw.count_ranges t ~ranges ~less_than:(code + 1)
                  else 0 )
            | None -> (0, 0)
          in
          let rn0 =
            match tree_row with
            | Some t -> Mstw.count_ranges t ~ranges ~less_than:enc.Rank_encode.row_codes.(r)
            | None -> 0
          in
          finish r ~cnt_less ~cnt_le ~rn0 ~s)
  | _, Naive ->
      let frank = if needs_rank then Lazy.force frank else [||] in
      let frow = if needs_row then Lazy.force frow else [||] in
      probe ctx (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let s = covered_of ranges in
          let code = enc.Rank_encode.rank_codes.(r) in
          let cnt_less = if needs_rank then Naive.count_less frank ~ranges ~less_than:code else 0 in
          let cnt_le =
            if variant = Cume_dist_v then Naive.count_less frank ~ranges ~less_than:(code + 1) else 0
          in
          let rn0 =
            if needs_row then Naive.count_less frow ~ranges ~less_than:enc.Rank_encode.row_codes.(r)
            else 0
          in
          finish r ~cnt_less ~cnt_le ~rn0 ~s)
  | _, Order_statistic ->
      let codes = if needs_row then Lazy.force frow else Lazy.force frank in
      let own r =
        if needs_row then enc.Rank_encode.row_codes.(r) else enc.Rank_encode.rank_codes.(r)
      in
      incremental_drive ctx rm ~serial:false ~make_state:(fun () ->
          let ost = Ost.create () in
          ( (fun p -> Ost.insert ost codes.(p)),
            (fun p -> Ost.remove ost codes.(p)),
            (fun r ->
              let s = Ost.size ost in
              let code = own r in
              let cnt_less = Ost.rank ost (if variant = Cume_dist_v then code + 1 else code) in
              if variant = Cume_dist_v then finish r ~cnt_less:0 ~cnt_le:cnt_less ~rn0:0 ~s
              else finish r ~cnt_less ~cnt_le:0 ~rn0:cnt_less ~s),
            fun () -> Ost.clear ost ))
  | _, (Incremental | Incremental_serial | Segment_tree) ->
      unsupported "rank functions support Auto/Mst/Naive/Order_statistic"

(* ------------------------------------------------------------------ *)
(* Percentiles, value functions, LEAD/LAG (§4.5, §4.6)                 *)
(* ------------------------------------------------------------------ *)

type select_kind =
  | Sel_percentile_disc of float
  | Sel_percentile_cont of float
  | Sel_first
  | Sel_last
  | Sel_nth of int * bool (* from_last *)
  | Sel_lead of int * Expr.t option
  | Sel_lag of int * Expr.t option

let eval_select_family ctx ~kind ~arg ~order ~ignore_nulls ~filter ~algorithm ~out =
  let order = effective_order ctx order in
  let enc = encode ctx order in
  let acc = arg_access ctx arg in
  let is_percentile =
    match kind with Sel_percentile_disc _ | Sel_percentile_cont _ -> true | _ -> false
  in
  let extra =
    if is_percentile then begin
      (* percentiles ignore NULLs of the aggregated (= ordering) value *)
      match order with
      | [] -> Build_cache.Ex_none
      | key :: _ -> Build_cache.Ex_nonnull key.Sort_spec.expr
    end
    else if ignore_nulls then Build_cache.Ex_nonnull arg
    else Build_cache.Ex_none
  in
  let qual = { Build_cache.filter; extra } in
  let rm = qualify ctx qual in
  let m = Remap.filtered_count rm in
  let fro = lazy (Array.init m (fun i -> enc.Rank_encode.row_codes.(Remap.position rm i))) in
  let needs_rn = match kind with Sel_lead _ | Sel_lag _ -> true | _ -> false in
  (* the LEAD/LAG default, compiled once for every out-of-range row *)
  let default =
    match kind with
    | Sel_lead (_, Some e) | Sel_lag (_, Some e) -> Expr.compile ctx.table e
    | _ -> fun _ -> Value.Null
  in
  (* Per-algorithm primitives: [select_nth ranges s nth] yields the selected
     row's partition position; [rn ranges r] the current row's 0-based
     position among the frame rows under the function order. *)
  let value_of_pos p = acc.value_at p in
  let float_of_pos p = acc.float_at p in
  let emit_for r ~s ~select_nth ~rn =
    let row = ctx.rows.(r) in
    let v =
      match kind with
      | Sel_percentile_disc p ->
          if s = 0 then Value.Null
          else begin
            let i = int_of_float (Float.ceil (p *. float_of_int s)) - 1 in
            let i = max 0 (min i (s - 1)) in
            value_of_pos (select_nth i)
          end
      | Sel_percentile_cont p ->
          if s = 0 then Value.Null
          else begin
            let x = p *. float_of_int (s - 1) in
            let lo = int_of_float (Float.floor x) in
            let frac = x -. float_of_int lo in
            let vlo = float_of_pos (select_nth lo) in
            if frac <= 0.0 || lo + 1 >= s then Value.Float vlo
            else begin
              let vhi = float_of_pos (select_nth (lo + 1)) in
              Value.Float (vlo +. (frac *. (vhi -. vlo)))
            end
          end
      | Sel_first -> if s = 0 then Value.Null else value_of_pos (select_nth 0)
      | Sel_last -> if s = 0 then Value.Null else value_of_pos (select_nth (s - 1))
      | Sel_nth (n, from_last) ->
          let i = if from_last then s - n else n - 1 in
          if i >= 0 && i < s then value_of_pos (select_nth i) else Value.Null
      | Sel_lead (off, _) | Sel_lag (off, _) ->
          let off = match kind with Sel_lag _ -> -off | _ -> off in
          let target = rn () + off in
          if target >= 0 && target < s then value_of_pos (select_nth target) else default row
    in
    out.(row) <- v
  in
  match algorithm with
  | Auto | Mst | Mst_no_cascade ->
      let sample = if algorithm = Mst_no_cascade then 0 else ctx.sample in
      let getro i = enc.Rank_encode.row_codes.(Remap.position rm i) in
      (* permutation of filtered positions in function order = §4.5 Fig. 6 *)
      let sel_perm () =
        let keys = Array.init m getro in
        let permf = Array.init m (fun i -> i) in
        Introsort.sort_pairs ~key:keys ~payload:permf;
        permf
      in
      let sel_tree =
        Build_cache.count_tree ctx.cache ~algo:(mst_tag algorithm) ~cls:Build_cache.Select_perm ~order ~qual ~sample
          ~maintain:(mst_maintain ctx ~sample sel_perm)
          (fun () ->
            let p = sel_perm () in
            governed_mst ctx ~sample ~n:m ~get:(Array.get p) ~arr:(fun () -> p))
      in
      let cnt_tree =
        if needs_rn then
          Some
            (Build_cache.count_tree ctx.cache ~algo:(mst_tag algorithm) ~cls:Build_cache.Row_codes ~order ~qual ~sample
               ~maintain:(mst_maintain ctx ~sample (fun () -> Lazy.force fro))
               (fun () ->
                 governed_mst ctx ~sample ~n:m ~get:getro ~arr:(fun () -> Lazy.force fro)))
        else None
      in
      Task_pool.parallel_for ctx.pool ~lo:0 ~hi:(np ctx) ~chunk:ctx.task_size (fun lo hi ->
          let scratch = Mstw.create_scratch () in
          for r = lo to hi - 1 do
            let ranges = mapped_ranges ctx rm r in
            let s = covered_of ranges in
            emit_for r ~s
              ~select_nth:(fun nth ->
                Remap.position rm (Mstw.select sel_tree ~scratch ~ranges ~nth))
              ~rn:(fun () ->
                Mstw.count_ranges (Option.get cnt_tree) ~ranges
                  ~less_than:enc.Rank_encode.row_codes.(r))
          done)
  | Naive ->
      let fro = Lazy.force fro in
      Task_pool.parallel_for ctx.pool ~lo:0 ~hi:(np ctx) ~chunk:ctx.task_size (fun lo hi ->
          let scratch = Array.make (max m 1) 0 in
          for r = lo to hi - 1 do
            let ranges = mapped_ranges ctx rm r in
            let s = covered_of ranges in
            emit_for r ~s
              ~select_nth:(fun nth ->
                let code = Naive.select_kth fro ~scratch ~ranges ~k:nth in
                enc.Rank_encode.permutation.(code))
              ~rn:(fun () ->
                Naive.count_less fro ~ranges ~less_than:enc.Rank_encode.row_codes.(r))
          done)
  | Incremental | Incremental_serial ->
      let fro = Lazy.force fro in
      incremental_drive ctx rm
        ~serial:(algorithm = Incremental_serial)
        ~make_state:(fun () ->
          let sw = Inc.Sorted_window.create () in
          ( (fun p -> Inc.Sorted_window.add sw fro.(p)),
            (fun p -> Inc.Sorted_window.remove sw fro.(p)),
            (fun r ->
              let s = Inc.Sorted_window.size sw in
              emit_for r ~s
                ~select_nth:(fun nth ->
                  enc.Rank_encode.permutation.(Inc.Sorted_window.select sw nth))
                ~rn:(fun () -> Inc.Sorted_window.rank sw enc.Rank_encode.row_codes.(r))),
            fun () -> Inc.Sorted_window.clear sw ))
  | Order_statistic ->
      let fro = Lazy.force fro in
      incremental_drive ctx rm ~serial:false ~make_state:(fun () ->
          let ost = Ost.create () in
          ( (fun p -> Ost.insert ost fro.(p)),
            (fun p -> Ost.remove ost fro.(p)),
            (fun r ->
              let s = Ost.size ost in
              emit_for r ~s
                ~select_nth:(fun nth -> enc.Rank_encode.permutation.(Ost.select ost nth))
                ~rn:(fun () -> Ost.rank ost enc.Rank_encode.row_codes.(r))),
            fun () -> Ost.clear ost ))
  | Segment_tree -> unsupported "percentiles/value functions do not use segment trees"

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let eval_item ctx (item : Window_func.t) ~out =
  let filter = item.filter and algorithm = item.algorithm in
  match item.func with
  | Aggregate { kind; arg; distinct } -> eval_aggregate ctx ~kind ~arg ~distinct ~filter ~algorithm ~out
  | Rank order -> eval_rank_family ctx ~variant:Rank_v ~order ~filter ~algorithm ~out
  | Dense_rank order -> eval_rank_family ctx ~variant:Dense_v ~order ~filter ~algorithm ~out
  | Row_number order -> eval_rank_family ctx ~variant:Row_number_v ~order ~filter ~algorithm ~out
  | Percent_rank order -> eval_rank_family ctx ~variant:Percent_rank_v ~order ~filter ~algorithm ~out
  | Cume_dist order -> eval_rank_family ctx ~variant:Cume_dist_v ~order ~filter ~algorithm ~out
  | Ntile (b, order) -> eval_rank_family ctx ~variant:(Ntile_v b) ~order ~filter ~algorithm ~out
  | Percentile_disc (p, order) ->
      let arg =
        match order with
        | k :: _ -> k.Sort_spec.expr
        | [] -> invalid_arg "Window: percentile_disc requires an ORDER BY expression"
      in
      eval_select_family ctx ~kind:(Sel_percentile_disc p) ~arg ~order ~ignore_nulls:false ~filter
        ~algorithm ~out
  | Percentile_cont (p, order) ->
      let arg =
        match order with
        | k :: _ -> k.Sort_spec.expr
        | [] -> invalid_arg "Window: percentile_cont requires an ORDER BY expression"
      in
      eval_select_family ctx ~kind:(Sel_percentile_cont p) ~arg ~order ~ignore_nulls:false ~filter
        ~algorithm ~out
  | First_value { arg; order; ignore_nulls } ->
      eval_select_family ctx ~kind:Sel_first ~arg ~order ~ignore_nulls ~filter ~algorithm ~out
  | Last_value { arg; order; ignore_nulls } ->
      eval_select_family ctx ~kind:Sel_last ~arg ~order ~ignore_nulls ~filter ~algorithm ~out
  | Nth_value (n, from_last, { arg; order; ignore_nulls }) ->
      eval_select_family ctx ~kind:(Sel_nth (n, from_last)) ~arg ~order ~ignore_nulls ~filter
        ~algorithm ~out
  | Lead (off, default, { arg; order; ignore_nulls }) ->
      eval_select_family ctx ~kind:(Sel_lead (off, default)) ~arg ~order ~ignore_nulls ~filter
        ~algorithm ~out
  | Lag (off, default, { arg; order; ignore_nulls }) ->
      eval_select_family ctx ~kind:(Sel_lag (off, default)) ~arg ~order ~ignore_nulls ~filter
        ~algorithm ~out
  | Mode arg -> eval_mode ctx ~arg ~filter ~algorithm ~out
