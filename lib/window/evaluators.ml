open Holistic_storage
module Task_pool = Holistic_parallel.Task_pool
module Mstw = Holistic_core.Mst_width
module Prev = Holistic_core.Prev_occurrence
module Rank_encode = Holistic_core.Rank_encode
module Range_tree = Holistic_core.Range_tree
module Ost = Holistic_baselines.Order_statistic_tree
module Inc = Holistic_baselines.Incremental
module Naive = Holistic_baselines.Naive
module Seg = Holistic_baselines.Segment_tree
module Ec = Evaluator_choice
open Window_func

module Sum_count = Build_cache.Sum_count_monoid
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

(* The catch-all arm of every evaluator body: [eval_item] admits only the
   (backend, class) pairs [Evaluator_choice.supports] lists, and runs the
   no-cascade and serial variants as [Mst] and [Incremental]. *)
let excluded_at_entry () = assert false

(* Build callback for cached MSTs: the tree over [a] at the plan's knobs. *)
let mst_build ctx a =
  Mstw.create ~pool:ctx.pool ~fanout:ctx.fanout ~sample:ctx.sample ~choice:ctx.width a

(* [maintain] callback for cached MSTs: run-stack the grown leaf array
   onto the stale tree ({!Mstw.try_extend}); [leaf] is a thunk because the
   grown operand is only needed when the entry is actually stale. *)
let mst_maintain ctx leaf old =
  let a = leaf () in
  match Mstw.try_extend ~fanout:ctx.fanout ~sample:ctx.sample ~choice:ctx.width old a with
  | Some t -> Some (t, Printf.sprintf "+%d rows" (Array.length a - Mstw.length old))
  | None -> None

(* ------------------------------------------------------------------ *)
(* Shared preprocessing helpers                                        *)
(* ------------------------------------------------------------------ *)

(* Qualifying-row remap for a structural predicate key; memoized per
   partition so items with equal FILTER / NULL-skipping predicates scan the
   partition once. Skipping the NULLs of a column without a null mask
   keeps every row: the identity, with nothing to build. *)
let qualify ctx (qual : Build_cache.qual) =
  match qual with
  | { Build_cache.filter = None; extra = Build_cache.Ex_none } -> Remap.all (np ctx)
  | { Build_cache.filter = None; extra = Build_cache.Ex_nonnull (Expr.Col name) }
    when Column.null_mask (Table.column ctx.table name) = None ->
      Remap.all (np ctx)
  | _ ->
      Build_cache.remap ctx.cache ~qual (fun () ->
          let filt = Option.map (Expr.select ctx.table ~rows:ctx.rows) qual.Build_cache.filter in
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
              (match filt with None -> true | Some m -> Holistic_util.Bitset.unsafe_get m r)
              && match extra with None -> true | Some g -> g r))

(* The partition's peer groups under [order], memoized in [cache]. A stale
   entry (the partition grew in order under a session) is extended from
   the start of its last old group instead of rescanned. *)
let peers cache table order rows =
  Build_cache.peers cache ~order
    ~maintain:(fun old ->
      let grown = Printf.sprintf "+%d rows" (Array.length rows - Array.length (fst old)) in
      Some (Frame.extend_peers table order rows old, grown))
    (fun () -> Frame.peers table order rows)

let effective_order ctx spec = if spec = [] then ctx.window_order else spec

(* Integer preprocessing of an ORDER BY over the partition (§5.1 Fig. 8).
   Memoized on the effective ORDER BY: rank + percent_rank + median over one
   named window encode once. An order the partition is already sorted by
   (a prefix of the window order: every rank-family item, every value
   function without its own ORDER BY) reads its codes off the peer groups.
   A one-key order over a column holding order codes gathers them through
   the partition's rows and counting-sorts them when their span is at most
   the partition's size; any other order (and codes spread wider) is
   compiled into key words over the partition's rows and sorted on them,
   and when that sorted a whole table by one uncoded column, the column
   keeps the rank codes as its order codes. A stale encoding (the
   partition was extended in order under a session) extends instead of
   rebuilding: the prefix rows are untouched, so codes and permutation
   carry over and only the appended suffix is sorted and coded;
   [extend_words] itself verifies the suffix sorts after the prefix and
   declines otherwise, and the rebuild that follows reuses the words
   compiled for the attempt. *)
let encode ctx order =
  let n = np ctx in
  let words = lazy (Key_codec.compile ~rows:ctx.rows ctx.table order) in
  let maintain old =
    let kc = Lazy.force words in
    let grown = Printf.sprintf "+%d rows" (n - Array.length old.Rank_encode.permutation) in
    Rank_encode.extend_words old ~words:kc.Key_codec.words ?tie:kc.Key_codec.residual n
    |> Option.map (fun enc -> (enc, grown))
  in
  Build_cache.encode ctx.cache ~maintain ~order (fun () ->
      if Sort_spec.is_prefix order ctx.window_order then
        (* [ctx.rows] is in window order, hence in [order]: the (key,
           position) sort would return the identity *)
        let peer_start, _ = peers ctx.cache ctx.table order ctx.rows in
        Rank_encode.of_peers peer_start
      else
        match Key_codec.code_slots ~rows:ctx.rows ctx.table order with
        | Some (slots, span) -> Rank_encode.of_codes ~pool:ctx.pool slots ~span
        | None ->
            let kc = Lazy.force words in
            let enc =
              Rank_encode.of_words ~pool:ctx.pool ~words:kc.Key_codec.words ?tie:kc.Key_codec.residual n
            in
            if n = Table.nrows ctx.table then
              Key_codec.offer_codes ctx.table order (fun () ->
                  let ranks = Array.make n 0 in
                  Array.iteri (fun i row -> ranks.(row) <- enc.Rank_encode.rank_codes.(i)) ctx.rows;
                  ranks);
            enc)

let mapped_ranges ctx rm r = Remap.map_ranges rm (Frame.ranges ctx.frame r)
let covered_of ranges = Array.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 ranges

(* The one probe driver. [at] lists the partition positions to answer as
   sorted, disjoint half-open ranges: the whole partition for a plain
   evaluation, only the rows an append affected for a session re-query.
   The ranges are cut into tasks of [task_size] answered rows each; a task
   calls [body lo hi] once per piece of a range it holds, so over one full
   range the tasks are the historical fixed-size chunks. Sliding backends
   rebuild their state at every [lo], so a range start is just another
   chunk start. *)
let drive ctx at body =
  let tasks = ref [] and cur = ref [] and fill = ref 0 in
  let flush () =
    if !cur <> [] then begin
      tasks := List.rev !cur :: !tasks;
      cur := [];
      fill := 0
    end
  in
  Array.iter
    (fun (lo, hi) ->
      let pos = ref lo in
      while !pos < hi do
        let take = min (hi - !pos) (ctx.task_size - !fill) in
        cur := (!pos, !pos + take) :: !cur;
        fill := !fill + take;
        pos := !pos + take;
        if !fill = ctx.task_size then flush ()
      done)
    at;
  flush ();
  let tasks = Array.of_list (List.rev !tasks) in
  Task_pool.parallel_for ctx.pool ~lo:0 ~hi:(Array.length tasks) ~chunk:1 (fun t _ ->
      List.iter (fun (lo, hi) -> body lo hi) tasks.(t))

(* Embarrassingly parallel probe phase over the rows in [at]. *)
let probe ctx at f =
  drive ctx at (fun lo hi ->
      for r = lo to hi - 1 do
        f r
      done)

(* Task-based driver for incremental competitors: each piece of output
   rows rebuilds its state from scratch (§3.2).  Frames with exclusion
   holes never reach it ([Evaluator_choice.supports]). *)
let incremental_drive ctx at rm ~make_state =
  let m = Remap.filtered_count rm in
  drive ctx at (fun lo hi ->
      let add, remove, result, reset = make_state () in
      Inc.Frame_driver.run ~n:m
        ~frame:(fun r -> Remap.map_range rm (Frame.start_ ctx.frame r, Frame.end_ ctx.frame r))
        ~add ~remove ~result ~reset ~lo ~hi)

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
      match Column.buffer c with
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

(* The monoids of the plain aggregates, NULL as identity. *)
let sum_v a b = if Value.is_null a then b else if Value.is_null b then a else Value.add a b

let min_v a b =
  if Value.is_null a then b
  else if Value.is_null b then a
  else if Value.compare_sql ~nulls_last:true a b <= 0 then a
  else b

let max_v a b =
  if Value.is_null a then b
  else if Value.is_null b then a
  else if Value.compare_sql ~nulls_last:true a b >= 0 then a
  else b

let eval_plain_agg ctx ~at ~kind ~arg ~acc ~qual ~rm ~algorithm ~out =
  let m = Remap.filtered_count rm in
  let value_f i = acc.value_at (Remap.position rm i) in
  let cls, combine =
    match kind with
    | Sum | Avg -> (Build_cache.Seg_sum, sum_v)
    | Min -> (Build_cache.Seg_min, min_v)
    | Max -> (Build_cache.Seg_max, max_v)
    | Count | Count_star -> excluded_at_entry ()
  in
  (* [s] combines the frame's values; AVG divides it by their count *)
  let emit r ranges s =
    out.(ctx.rows.(r)) <-
      (if kind <> Avg then s
       else
         let cnt = covered_of ranges in
         if cnt = 0 then Value.Null else Value.Float (to_float_v s /. float_of_int cnt))
  in
  match algorithm with
  | Segment_tree ->
      let tree =
        Build_cache.seg_tree ctx.cache ~cls ~arg ~qual (fun () ->
            Seg.create ~identity:Value.Null ~combine m value_f)
      in
      probe ctx at (fun r ->
          let ranges = mapped_ranges ctx rm r in
          emit r ranges
            (Array.fold_left (fun a (lo, hi) -> combine a (Seg.query tree ~lo ~hi)) Value.Null ranges))
  | Naive ->
      probe ctx at (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let s = ref Value.Null in
          Array.iter
            (fun (lo, hi) ->
              for i = lo to hi - 1 do
                s := combine !s (value_f i)
              done)
            ranges;
          emit r ranges !s)
  | _ -> excluded_at_entry ()

(* ------------------------------------------------------------------ *)
(* DISTINCT aggregates                                                 *)
(* ------------------------------------------------------------------ *)

let eval_distinct_count ctx ~at ~arg ~filter ~algorithm ~out =
  let acc = arg_access ctx arg in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull arg } in
  let rm = qualify ctx qual in
  let ids = Build_cache.arg_ids ctx.cache ~arg ~qual (fun () -> acc.ids_filtered rm) in
  let emit r v = out.(ctx.rows.(r)) <- Value.Int v in
  match algorithm with
  | Mst ->
      let prev =
        Build_cache.prev_array ctx.cache ~arg ~qual (fun () -> Prev.compute ~pool:ctx.pool ids)
      in
      let tree =
        Build_cache.distinct_tree ctx.cache ~arg ~qual ~sample:ctx.sample
          ~maintain:(mst_maintain ctx (fun () -> prev))
          (fun () -> mst_build ctx prev)
      in
      let next =
        if Frame.exclusion ctx.frame = Window_spec.Exclude_no_others then [||] else next_of prev
      in
      probe ctx at (fun r ->
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
      probe ctx at (fun r -> emit r (Naive.distinct_count ids ~ranges:(mapped_ranges ctx rm r)))
  | Incremental ->
      incremental_drive ctx at rm ~make_state:(fun () ->
          let dc = Inc.Distinct_count.create () in
          ( (fun p -> Inc.Distinct_count.add dc ids.(p)),
            (fun p -> Inc.Distinct_count.remove dc ids.(p)),
            (fun r -> emit r (Inc.Distinct_count.count dc)),
            fun () -> Inc.Distinct_count.clear dc ))
  | _ -> excluded_at_entry ()

let eval_distinct_sum_avg ctx ~at ~kind ~arg ~filter ~algorithm ~out =
  let acc = arg_access ctx arg in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull arg } in
  let rm = qualify ctx qual in
  let ids = Build_cache.arg_ids ctx.cache ~arg ~qual (fun () -> acc.ids_filtered rm) in
  let m = Remap.filtered_count rm in
  (* an int value sums exactly, as in a plain SUM; any other as a float *)
  let vals =
    Array.init m (fun i ->
        let p = Remap.position rm i in
        match acc.value_at p with Value.Int x -> (x, 0.0, 1) | _ -> (0, acc.float_at p, 1))
  in
  let emit r (si, sf, c) =
    let s = sf +. float_of_int si in
    out.(ctx.rows.(r)) <-
      (if c = 0 then Value.Null
       else if kind = Sum then Value.Float s
       else Value.Float (s /. float_of_int c))
  in
  match algorithm with
  | Mst ->
      let prev =
        Build_cache.prev_array ctx.cache ~arg ~qual (fun () -> Prev.compute ~pool:ctx.pool ids)
      in
      let tree =
        Build_cache.annotated_tree ctx.cache ~arg ~qual ~sample:ctx.sample (fun () ->
            Sum_count_mst.create ~pool:ctx.pool ~fanout:ctx.fanout ~sample:ctx.sample ~keys:prev
              ~value:(Array.get vals) ())
      in
      let next =
        if Frame.exclusion ctx.frame = Window_spec.Exclude_no_others then [||] else next_of prev
      in
      probe ctx at (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let v =
            match Array.length ranges with
            | 0 -> Sum_count.identity
            | 1 ->
                let lo, hi = ranges.(0) in
                Sum_count_mst.query tree ~lo ~hi ~less_than:(lo + 1)
            | _ ->
                let span_lo, span_hi = span_of ranges in
                let si, sf, c =
                  Sum_count_mst.query tree ~lo:span_lo ~hi:span_hi ~less_than:(span_lo + 1)
                in
                let corr = ref Sum_count.identity in
                iter_hole_orphans prev next ranges ~on_orphan:(fun p ->
                    corr := Sum_count.combine !corr vals.(p));
                let ci, cf, cc = !corr in
                (si - ci, sf -. cf, c - cc)
          in
          emit r v)
  | Naive ->
      probe ctx at (fun r ->
          let ranges = mapped_ranges ctx rm r in
          let seen = Hashtbl.create 16 in
          Array.iter
            (fun (lo, hi) ->
              for i = lo to hi - 1 do
                if not (Hashtbl.mem seen ids.(i)) then Hashtbl.add seen ids.(i) vals.(i)
              done)
            ranges;
          emit r (Hashtbl.fold (fun _ v a -> Sum_count.combine a v) seen Sum_count.identity))
  | _ -> excluded_at_entry ()

let eval_aggregate ctx ~at ~kind ~arg ~distinct ~filter ~algorithm ~out =
  match kind, arg with
  | Count_star, _ ->
      let rm = qualify ctx { Build_cache.filter; extra = Build_cache.Ex_none } in
      probe ctx at (fun r -> out.(ctx.rows.(r)) <- Value.Int (covered_of (mapped_ranges ctx rm r)))
  | Count, Some e when not distinct ->
      let rm = qualify ctx { Build_cache.filter; extra = Build_cache.Ex_nonnull e } in
      probe ctx at (fun r -> out.(ctx.rows.(r)) <- Value.Int (covered_of (mapped_ranges ctx rm r)))
  | Count, Some e -> eval_distinct_count ctx ~at ~arg:e ~filter ~algorithm ~out
  | (Sum | Avg), Some e when distinct ->
      eval_distinct_sum_avg ctx ~at ~kind ~arg:e ~filter ~algorithm ~out
  | (Sum | Avg | Min | Max), Some e ->
      (* MIN/MAX DISTINCT ≡ MIN/MAX *)
      let acc = arg_access ctx e in
      let qual = { Build_cache.filter; extra = Build_cache.Ex_nonnull e } in
      let rm = qualify ctx qual in
      eval_plain_agg ctx ~at ~kind ~arg:e ~acc ~qual ~rm ~algorithm ~out
  | _ -> invalid_arg "Window: unsupported function/algorithm combination (aggregate without argument)"

(* ------------------------------------------------------------------ *)
(* Windowed MODE (extension; Wesley & Xu's third holistic aggregate)   *)
(* ------------------------------------------------------------------ *)

let eval_mode ctx ~at ~arg ~filter ~algorithm ~out =
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
  match algorithm with
  | Naive ->
      probe ctx at (fun r ->
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
  | Incremental ->
      incremental_drive ctx at rm ~make_state:(fun () ->
          let st = Inc.Mode.create () in
          ( (fun p -> Inc.Mode.add st ids.(p)),
            (fun p -> Inc.Mode.remove st ids.(p)),
            (fun r -> emit r (Inc.Mode.mode st ~better)),
            fun () -> Inc.Mode.clear st ))
  | _ -> excluded_at_entry ()

(* ------------------------------------------------------------------ *)
(* Rank functions (§4.4)                                               *)
(* ------------------------------------------------------------------ *)

type rank_variant = Rank_v | Dense_v | Row_number_v | Percent_rank_v | Cume_dist_v | Ntile_v of int

let ntile_bucket ~buckets ~s ~rn0 =
  let rn0 = Int.max 0 (Int.min rn0 (s - 1)) in
  let q = s / buckets and rem = s mod buckets in
  let b =
    if q = 0 then rn0
    else if rn0 < (q + 1) * rem then rn0 / (q + 1)
    else rem + ((rn0 - ((q + 1) * rem)) / q)
  in
  b + 1

let eval_rank_family ctx ~at ~variant ~order ~filter ~algorithm ~out =
  let order = effective_order ctx order in
  let enc = encode ctx order in
  let qual = { Build_cache.filter; extra = Build_cache.Ex_none } in
  let rm = qualify ctx qual in
  let m = Remap.filtered_count rm in
  (* Lazy: a variant reads only one of the two, and a cached tree needs
     neither. *)
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
  | Dense_v, Mst ->
      let frank = Lazy.force frank in
      let rt =
        Build_cache.range_tree ctx.cache ~order ~qual ~sample:ctx.sample (fun () ->
            Range_tree.create ~pool:ctx.pool ~fanout:ctx.fanout ~sample:ctx.sample frank)
      in
      probe ctx at (fun r ->
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
      probe ctx at (fun r ->
          let ranges = mapped_ranges ctx rm r in
          emit r (Value.Int (Naive.distinct_below frank ~ranges ~key:enc.Rank_encode.rank_codes.(r) + 1)))
  | Dense_v, _ -> excluded_at_entry ()
  | _, Mst ->
      let tree_rank =
        if needs_rank then
          Some
            (Build_cache.count_tree ctx.cache ~cls:Build_cache.Rank_codes ~order ~qual ~sample:ctx.sample
               ~maintain:(mst_maintain ctx (fun () -> Lazy.force frank))
               (fun () -> mst_build ctx (Lazy.force frank)))
        else None
      in
      let tree_row =
        if needs_row then
          Some
            (Build_cache.count_tree ctx.cache ~cls:Build_cache.Row_codes ~order ~qual ~sample:ctx.sample
               ~maintain:(mst_maintain ctx (fun () -> Lazy.force frow))
               (fun () -> mst_build ctx (Lazy.force frow)))
        else None
      in
      probe ctx at (fun r ->
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
      probe ctx at (fun r ->
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
      incremental_drive ctx at rm ~make_state:(fun () ->
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
  | _ -> excluded_at_entry ()

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

(* One pass over the function order: the filtered positions in that order
   (the §4.5 Fig. 6 selection permutation, the leaves of the selection
   tree) and, when [with_before], each partition row's count of filtered
   rows ahead of it, which is where its LEAD/LAG search starts in the
   tree's base order. Under the identity remap these are the encoding's
   own permutation and row codes. *)
let selection_order (enc : Rank_encode.t) rm ~with_before =
  let perm = enc.permutation in
  let np = Array.length perm in
  if Remap.filtered_count rm = np then (perm, enc.row_codes)
  else begin
    let sel = Array.make (Remap.filtered_count rm) 0 in
    let before = if with_before then Array.make np 0 else [||] in
    let cnt = ref 0 in
    for c = 0 to np - 1 do
      let p = perm.(c) in
      if with_before then before.(p) <- !cnt;
      if Remap.qualifies rm p then begin
        sel.(!cnt) <- Remap.rank rm p;
        incr cnt
      end
    done;
    (sel, before)
  end

let eval_select_family ctx ~at ~kind ~arg ~order ~ignore_nulls ~filter ~algorithm ~out =
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
  (* LEAD/LAG's signed offset in the function order (LAG looks back) *)
  let shift =
    match kind with Sel_lead (off, _) -> Some off | Sel_lag (off, _) -> Some (-off) | _ -> None
  in
  (* the LEAD/LAG default, compiled once for every out-of-range row *)
  let default =
    match kind with
    | Sel_lead (_, Some e) | Sel_lag (_, Some e) -> Expr.compile ctx.table e
    | _ -> fun _ -> Value.Null
  in
  let value_of_pos p = acc.value_at p in
  let float_of_pos p = acc.float_at p in
  (* The row's value from [s], the frame's row count, [rn], the row's
     0-based position among the frame rows under the function order (read
     by LEAD/LAG only), and [select_nth nth], the partition position of the
     frame's (nth+1)-th row in that order. *)
  let emit_for r ~s ~rn select_nth =
    let row = ctx.rows.(r) in
    let v =
      match kind with
      | Sel_percentile_disc p ->
          if s = 0 then Value.Null
          else begin
            let i = int_of_float (Float.ceil (p *. float_of_int s)) - 1 in
            let i = Int.max 0 (Int.min i (s - 1)) in
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
      | Sel_lead _ | Sel_lag _ ->
          let target = rn + Option.get shift in
          if target >= 0 && target < s then value_of_pos (select_nth target) else default row
    in
    out.(row) <- v
  in
  match algorithm with
  | Mst -> begin
      let order_pass = lazy (selection_order enc rm ~with_before:(shift <> None)) in
      let sel_perm () = fst (Lazy.force order_pass) in
      let sel_tree =
        Build_cache.count_tree ctx.cache ~cls:Build_cache.Select_perm ~order ~qual ~sample:ctx.sample
          ~maintain:(mst_maintain ctx sel_perm)
          (fun () -> mst_build ctx (sel_perm ()))
      in
      match shift with
      | Some d ->
          (* LEAD/LAG: frame row rn + d is the (d+1)-th frame row met from
             the row's start [before.(r)] upwards (a row in its own frame is
             met first), or for d < 0 the |d|-th met below it *)
          let before = snd (Lazy.force order_pass) in
          let forward = d >= 0 in
          let k = if forward then d else -d - 1 in
          drive ctx at (fun lo hi ->
              let scratch = Mstw.create_scratch () in
              for r = lo to hi - 1 do
                let i =
                  Mstw.neighbour sel_tree ~scratch ~ranges:(mapped_ranges ctx rm r) ~from:before.(r)
                    ~k ~forward
                in
                let row = ctx.rows.(r) in
                out.(row) <- (if i < 0 then default row else value_of_pos (Remap.position rm i))
              done)
      | None ->
          drive ctx at (fun lo hi ->
              let scratch = Mstw.create_scratch () in
              let ranges = ref [||] in
              let select_nth nth =
                Remap.position rm (Mstw.select sel_tree ~scratch ~ranges:!ranges ~nth)
              in
              for r = lo to hi - 1 do
                ranges := mapped_ranges ctx rm r;
                emit_for r ~s:(covered_of !ranges) ~rn:0 select_nth
              done)
    end
  | Naive ->
      let fro = Lazy.force fro in
      drive ctx at (fun lo hi ->
          let scratch = Array.make (max m 1) 0 in
          let ranges = ref [||] in
          let select_nth nth =
            enc.Rank_encode.permutation.(Naive.select_kth fro ~scratch ~ranges:!ranges ~k:nth)
          in
          for r = lo to hi - 1 do
            ranges := mapped_ranges ctx rm r;
            let rn =
              if shift = None then 0
              else Naive.count_less fro ~ranges:!ranges ~less_than:enc.Rank_encode.row_codes.(r)
            in
            emit_for r ~s:(covered_of !ranges) ~rn select_nth
          done)
  | Incremental ->
      let fro = Lazy.force fro in
      incremental_drive ctx at rm ~make_state:(fun () ->
          let sw = Inc.Sorted_window.create () in
          let select_nth nth = enc.Rank_encode.permutation.(Inc.Sorted_window.select sw nth) in
          ( (fun p -> Inc.Sorted_window.add sw fro.(p)),
            (fun p -> Inc.Sorted_window.remove sw fro.(p)),
            (fun r ->
              let rn =
                if shift = None then 0 else Inc.Sorted_window.rank sw enc.Rank_encode.row_codes.(r)
              in
              emit_for r ~s:(Inc.Sorted_window.size sw) ~rn select_nth),
            fun () -> Inc.Sorted_window.clear sw ))
  | Order_statistic ->
      let fro = Lazy.force fro in
      incremental_drive ctx at rm ~make_state:(fun () ->
          let ost = Ost.create () in
          let select_nth nth = enc.Rank_encode.permutation.(Ost.select ost nth) in
          ( (fun p -> Ost.insert ost fro.(p)),
            (fun p -> Ost.remove ost fro.(p)),
            (fun r ->
              let rn = if shift = None then 0 else Ost.rank ost enc.Rank_encode.row_codes.(r) in
              emit_for r ~s:(Ost.size ost) ~rn select_nth),
            fun () -> Ost.clear ost ))
  | _ -> excluded_at_entry ()

(* Whether each row's answer depends on its frame's rows and its own key
   alone, bit for bit, whatever the partition's length — what a session
   needs to keep an old row's cached answer after an in-order append.
   Float sums over a tree are the exception: a segment tree's and an
   annotated merge sort tree's shapes follow the partition's length, and
   with them the order in which node sums add up, which moves the last
   ulp.  Integer sums are exact in any order, and the naive backend adds
   a frame's values in frame order. *)
let frame_local table (item : Window_func.t) =
  match item.func with
  | Aggregate { kind = Sum | Avg; arg = Some e; _ } when item.algorithm <> Some Naive -> (
      match e with
      | Expr.Col name -> (
          match Column.buffer (Table.column table name) with
          | Column.Ints _ | Column.Dates _ -> true
          | _ -> false)
      | _ -> false)
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* The one place the backend is decided for the bodies: an unpinned item
   takes [Evaluator_choice.default], a pair outside
   [Evaluator_choice.supports] is rejected with the plan's own message,
   and the two variants run as settings of another backend — no cascading
   is [Mst] at sample 0, serial incremental is [Incremental] with the
   whole partition as its one task.  [at] lists the partition positions
   to answer (see [drive]); every structure is built or maintained over
   the whole partition whatever [at] holds. *)
let eval_item_at ctx (item : Window_func.t) ~at ~out =
  let cls = Ec.classify item in
  let holed = Frame.exclusion ctx.frame <> Window_spec.Exclude_no_others in
  let backend = match item.algorithm with Some b -> b | None -> Ec.default cls ~holed in
  if not (Ec.supports backend cls ~holed) then invalid_arg (Ec.unsupported_message backend cls ~holed);
  let ctx, algorithm =
    match backend with
    | Mst_no_cascade -> ({ ctx with sample = 0 }, Mst)
    | Incremental_serial -> ({ ctx with task_size = max 1 (np ctx) }, Incremental)
    | b -> (ctx, b)
  in
  let filter = item.filter in
  match item.func with
  | Aggregate { kind; arg; distinct } -> eval_aggregate ctx ~at ~kind ~arg ~distinct ~filter ~algorithm ~out
  | Rank order -> eval_rank_family ctx ~at ~variant:Rank_v ~order ~filter ~algorithm ~out
  | Dense_rank order -> eval_rank_family ctx ~at ~variant:Dense_v ~order ~filter ~algorithm ~out
  | Row_number order -> eval_rank_family ctx ~at ~variant:Row_number_v ~order ~filter ~algorithm ~out
  | Percent_rank order -> eval_rank_family ctx ~at ~variant:Percent_rank_v ~order ~filter ~algorithm ~out
  | Cume_dist order -> eval_rank_family ctx ~at ~variant:Cume_dist_v ~order ~filter ~algorithm ~out
  | Ntile (b, order) -> eval_rank_family ctx ~at ~variant:(Ntile_v b) ~order ~filter ~algorithm ~out
  | Percentile_disc (p, order) ->
      let arg =
        match order with
        | k :: _ -> k.Sort_spec.expr
        | [] -> invalid_arg "Window: percentile_disc requires an ORDER BY expression"
      in
      eval_select_family ctx ~at ~kind:(Sel_percentile_disc p) ~arg ~order ~ignore_nulls:false ~filter
        ~algorithm ~out
  | Percentile_cont (p, order) ->
      let arg =
        match order with
        | k :: _ -> k.Sort_spec.expr
        | [] -> invalid_arg "Window: percentile_cont requires an ORDER BY expression"
      in
      eval_select_family ctx ~at ~kind:(Sel_percentile_cont p) ~arg ~order ~ignore_nulls:false ~filter
        ~algorithm ~out
  | First_value { arg; order; ignore_nulls } ->
      eval_select_family ctx ~at ~kind:Sel_first ~arg ~order ~ignore_nulls ~filter ~algorithm ~out
  | Last_value { arg; order; ignore_nulls } ->
      eval_select_family ctx ~at ~kind:Sel_last ~arg ~order ~ignore_nulls ~filter ~algorithm ~out
  | Nth_value (n, from_last, { arg; order; ignore_nulls }) ->
      eval_select_family ctx ~at ~kind:(Sel_nth (n, from_last)) ~arg ~order ~ignore_nulls ~filter
        ~algorithm ~out
  | Lead (off, default, { arg; order; ignore_nulls }) ->
      eval_select_family ctx ~at ~kind:(Sel_lead (off, default)) ~arg ~order ~ignore_nulls ~filter
        ~algorithm ~out
  | Lag (off, default, { arg; order; ignore_nulls }) ->
      eval_select_family ctx ~at ~kind:(Sel_lag (off, default)) ~arg ~order ~ignore_nulls ~filter
        ~algorithm ~out
  | Mode arg -> eval_mode ctx ~at ~arg ~filter ~algorithm ~out

let eval_item ctx item ~out = eval_item_at ctx item ~at:[| (0, np ctx) |] ~out
