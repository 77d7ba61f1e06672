open Holistic_storage
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Multiway = Holistic_sort.Multiway

type clause = { spec : Window_spec.t; items : Window_func.t list }

type stats = {
  stages : int;
  partition_passes : int;
  full_sorts : int;
  partial_sorts : int;
  reused_sorts : int;
  session_sorts : int;
  comparator_sorts : int;
  encode_builds : int;
  tree_builds : int;
}

(* ------------------------------------------------------------------ *)
(* Partition keys and full sorts                                       *)
(* ------------------------------------------------------------------ *)

(* These moved to {!Session}: the store's mutation paths must reproduce
   the plan's partition keys and sorts bit for bit, so both layers share
   one definition (the session sits below the plan). *)
let partition_ids = Session.partition_ids
let full_sort = Session.full_sort

(* Partial-sort sharing (Cao et al., arXiv:1208.0086): a stage whose
   partitioning matches an earlier sort re-sorts only within the inherited
   partition boundaries — partition keys are never compared again. The new
   order's compiled key words are gathered once through the base
   permutation; ties fall back to deep words, the residual and finally the
   row id, so repeated runs agree. *)
let partial_sort pool table ~base_perm ~boundaries ~order =
  let perm = Array.copy base_perm in
  let n = Array.length perm in
  let nparts = Array.length boundaries - 1 in
  let kc = Key_codec.compile table order in
  let words = kc.Key_codec.words in
  let comparator_path = Array.length words = 0 && kc.Key_codec.residual <> None in
  (* Boundary segments are disjoint spans of [perm] (and [key]), so the
     per-partition re-sorts are independent tasks; chunking over partition
     indices keeps each task a run of consecutive segments. *)
  let for_each_partition f =
    Task_pool.parallel_for pool ~lo:0 ~hi:nparts (fun plo phi ->
        for p = plo to phi - 1 do
          f ~lo:boundaries.(p) ~hi:boundaries.(p + 1)
        done)
  in
  (if Array.length words = 0 then begin
     let cmp = Key_codec.comparator kc in
     for_each_partition (fun ~lo ~hi -> Introsort.sort_by_range perm ~cmp ~lo ~hi)
   end
   else begin
     let w0 = words.(0) in
     let key = Array.make n 0 in
     Task_pool.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
         for i = lo to hi - 1 do
           Array.unsafe_set key i (Array.unsafe_get w0 (Array.unsafe_get perm i))
         done);
     match Array.length words, kc.Key_codec.residual with
     | 1, None ->
         for_each_partition (fun ~lo ~hi -> Introsort.sort_pairs_range ~key ~payload:perm ~lo ~hi)
     | nw, residual ->
         let mw =
           { Multiway.key0 = key; payload = perm; deep = Array.sub words 1 (nw - 1); tie = residual }
         in
         let tie = Multiway.deep_compare mw in
         for_each_partition (fun ~lo ~hi ->
             Introsort.sort_pairs_tie_range ~key ~payload:perm ~tie ~lo ~hi)
   end);
  (perm, comparator_path)

(* ------------------------------------------------------------------ *)
(* Stage grouping                                                      *)
(* ------------------------------------------------------------------ *)

(* [o1] is a (possibly equal) prefix of [o2], keys compared structurally:
   rows sorted by [o2] are also sorted by [o1], so a clause ordered by a
   prefix of a stage order reuses the stage's permutation outright. *)
let rec order_prefix (o1 : Sort_spec.t) (o2 : Sort_spec.t) =
  match o1, o2 with
  | [], _ -> true
  | _, [] -> false
  | k1 :: r1, k2 :: r2 -> k1 = k2 && order_prefix r1 r2

let dedup_orders orders =
  List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) [] orders |> List.rev

(* Stage orders for one partition group: the orders that are not a strict
   prefix of another requested order, in first-appearance order. Every
   clause is then assigned to the first stage whose order covers its own. *)
let stage_orders orders =
  let uniq = dedup_orders orders in
  List.filter (fun o -> not (List.exists (fun o' -> o' <> o && order_prefix o o') uniq)) uniq

(* The scheduling policy, factored out so that reference implementations
   (the differential fuzz oracle) can reproduce the engine's stage
   assignment — a clause whose ORDER BY is a strict prefix of another's is
   evaluated under the longer stage sort, which is observable through
   ROWS frames under ties — without depending on how stages are sorted or
   evaluated.  [schedule_by] is the generic core: entries carry a payload
   alongside their clause so [run_with_stats] can thread output arrays
   through unchanged. *)
let schedule_by (get : 'a -> clause) (entries : 'a list) :
    (Expr.t list * (Sort_spec.t * 'a list) list) list =
  let pgroups =
    List.fold_left
      (fun acc entry ->
        let pb = (get entry).spec.Window_spec.partition_by in
        match List.find_opt (fun (pb', _) -> pb' = pb) acc with
        | Some (_, members) ->
            members := entry :: !members;
            acc
        | None -> acc @ [ (pb, ref [ entry ]) ])
      [] entries
  in
  List.map
    (fun (pb, members) ->
      let members = List.rev !members in
      let orders =
        stage_orders (List.map (fun e -> (get e).spec.Window_spec.order_by) members)
      in
      (* first covering stage per clause, preserving member order in a stage *)
      let stage_members order =
        List.filter
          (fun e ->
            let co = (get e).spec.Window_spec.order_by in
            match List.find_opt (fun o -> order_prefix co o) orders with
            | Some first -> first == order
            | None -> assert false)
          members
      in
      (pb, List.map (fun o -> (o, stage_members o)) orders))
    pgroups

type stage = { order : Sort_spec.t; members : clause list }
type group = { partition_by : Expr.t list; stages : stage list }

let schedule clauses =
  List.map
    (fun (pb, stages) ->
      {
        partition_by = pb;
        stages = List.map (fun (o, ms) -> { order = o; members = ms }) stages;
      })
    (schedule_by (fun c -> c) clauses)

(* ------------------------------------------------------------------ *)
(* The plan                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Morsel-driven partition evaluation                                   *)
(* ------------------------------------------------------------------ *)

(* Partition evaluation is embarrassingly parallel (paper §3.2), but the
   partitions of a real stage are wildly unequal, so the unit of work is a
   morsel: a run of consecutive small partitions totalling roughly
   [morsel_rows] rows.  Partitions of at least [large] rows are *not*
   morselised — they are evaluated on the caller, where their internal
   probe loops and tree builds can themselves fan out across the pool
   (inside a worker task those would run inline and serialise).  Returns
   [(caller_partitions, morsels)], both in ascending partition order;
   morsels are [(first, last)] partition-index ranges, end-exclusive. *)
let morselize ~boundaries ~large ~morsel_rows =
  let nparts = Array.length boundaries - 1 in
  let caller = ref [] and morsels = ref [] in
  let mstart = ref (-1) and mrows = ref 0 in
  let flush upto =
    if !mstart >= 0 then begin
      morsels := (!mstart, upto) :: !morsels;
      mstart := -1;
      mrows := 0
    end
  in
  for p = 0 to nparts - 1 do
    let rows = boundaries.(p + 1) - boundaries.(p) in
    if rows >= large then begin
      flush p;
      caller := p :: !caller
    end
    else begin
      if !mstart < 0 then mstart := p;
      mrows := !mrows + rows;
      if !mrows >= morsel_rows then flush (p + 1)
    end
  done;
  flush nparts;
  (List.rev !caller, List.rev !morsels)

(* Registered plan counters, mirroring [stats] in captured traces. *)
let c_stages = Obs.Counter.make ~help:"Pipeline stages executed by window plans" "plan.stages"
let c_partition_passes = Obs.Counter.make ~help:"Partitioning passes over the input (shared across OVER clauses)" "plan.partition_passes"
let c_full_sorts = Obs.Counter.make ~help:"Full sorts of a partitioning stage from scratch" "plan.full_sorts"
let c_partial_sorts = Obs.Counter.make ~help:"Partial re-sorts refining an already partition-clustered order" "plan.partial_sorts"
let c_reused_sorts = Obs.Counter.make ~help:"Sort orders reused verbatim from an earlier stage" "plan.reused_sorts"
let c_session_sorts = Obs.Counter.make ~help:"Sort orders served from a session store entry" "plan.session_sorts"
let c_comparator_sorts = Obs.Counter.make ~help:"Sorts that fell back to the boxed comparator path" "plan.comparator_sorts"

(* One pick counter per backend: every resolved (stage, item) bumps its
   backend exactly once, independent of partition count or pool size. *)
let c_evaluator =
  List.map
    (fun nm ->
      let s = Evaluator_choice.to_string nm in
      (nm, Obs.Counter.make ~help:("Window clauses routed to the " ^ s ^ " evaluator") ("plan.evaluator." ^ s)))
    Evaluator_choice.all

(* ------------------------------------------------------------------ *)
(* Per-item evaluator resolution                                       *)
(* ------------------------------------------------------------------ *)

let holed_spec (spec : Window_spec.t) =
  match spec.Window_spec.frame with
  | Some f -> f.Window_spec.exclusion <> Window_spec.Exclude_no_others
  | None -> false

(* Resolve one (stage, item) to a concrete backend, once per stage — every
   partition of the stage then runs the same algorithm, so sibling item
   spans stay identical and cost decisions cannot depend on partition
   sizes (only on their average) or on the pool.  Returns the item with
   its [algorithm] pinned plus the backend tag for the item span; plain
   COUNT and COUNT star are structure-free and resolve to no backend.

   Precedence: an explicit item algorithm always wins and keeps the
   evaluator bodies' historical semantics (including their silent
   fallbacks); the [?evaluator] knob is strict — an unsupported (function,
   backend) pair is an error; otherwise the cost model picks. *)
let resolve_item ~evaluator ~sunk ~(model : Cost_model.constants) ~rows_avg ~nparts
    ~task_size ~fanout (spec : Window_spec.t) (item : Window_func.t) =
  let module Ec = Evaluator_choice in
  match Ec.classify item with
  | Ec.C_trivial_count -> (item, None)
  | cls ->
      let holed = holed_spec spec in
      let chosen =
        match Ec.of_algorithm item.Window_func.algorithm with
        | Some forced -> forced
        | None -> (
            match evaluator with
            | Some f ->
                if Ec.supports f cls ~holed then f
                else invalid_arg (Ec.unsupported_message f cls ~holed)
            | None ->
                let frame_rows, monotonic = Cost_model.estimate_frame spec ~rows:rows_avg in
                let d =
                  Cost_model.choose ~sunk model
                    {
                      Cost_model.rows = rows_avg;
                      nparts;
                      frame_rows;
                      monotonic;
                      holed;
                      cls;
                      task_size;
                      fanout;
                    }
                in
                Obs.span "choose"
                  ~args:(fun () ->
                    let total s = s *. float_of_int (max 1 nparts) /. 1000.0 in
                    let fmt (nm, s) =
                      Printf.sprintf "%s=%.1fus" (Ec.to_string nm) (total s)
                    in
                    [
                      ("item", item.Window_func.name);
                      ("evaluator", Ec.to_string d.Cost_model.chosen);
                      ("cost", fmt (d.Cost_model.chosen,
                                    List.assoc d.Cost_model.chosen d.Cost_model.scores));
                      ( "rejected",
                        String.concat ","
                          (List.filter_map
                             (fun (nm, s) ->
                               if nm = d.Cost_model.chosen then None else Some (fmt (nm, s)))
                             d.Cost_model.scores) );
                    ]
                    @
                    if sunk = [] then []
                    else
                      [
                        ( "sunk",
                          String.concat "," (List.map Ec.to_string sunk) );
                      ])
                  (fun () -> ());
                d.Cost_model.chosen)
      in
      Obs.Counter.incr (List.assoc chosen c_evaluator);
      ( { item with Window_func.algorithm = Ec.to_algorithm chosen },
        Some (Ec.to_string chosen) )

let exprs_to_string exprs = String.concat ", " (List.map Expr.to_string exprs)

let order_permutation ?pool table ~over =
  let pool = match pool with Some p -> p | None -> Task_pool.default () in
  let pids = partition_ids pool table over.Window_spec.partition_by in
  let perm, boundaries, _ = full_sort pool table ~pids ~order:over.Window_spec.order_by in
  (perm, boundaries)

(* [governor] is owned by the caller (spill directory included); without
   one the plan is the exact historical in-memory plan, with identical
   spans and goldens. *)
let run_with_stats ?pool ?(fanout = 32) ?(sample = 32)
    ?(task_size = Task_pool.default_task_size) ?evaluator ?governor:gov ?session table clauses =
  let pool = match pool with Some p -> p | None -> Task_pool.default () in
  let n = Table.nrows table in
  (* a session only applies to queries over exactly its table — a plan over
     any other table (e.g. a WHERE-filtered copy) runs stateless *)
  let session =
    match session with Some s when Session.table s == table -> Some s | _ -> None
  in
  let counters =
    match session with Some s -> Session.counters s | None -> Build_cache.fresh_counters ()
  in
  let encode_builds0 = Build_cache.encode_build_count counters in
  let tree_builds0 = Build_cache.tree_build_count counters in
  let n_stages = ref 0 and partition_passes = ref 0 in
  let full_sorts = ref 0 and partial_sorts = ref 0 and reused_sorts = ref 0 in
  let session_sorts = ref 0 and comparator_sorts = ref 0 in
  (* output arrays up front, in clause/item appearance order *)
  let outputs =
    List.map
      (fun c -> (c, List.map (fun (it : Window_func.t) -> (it, Array.make n Value.Null)) c.items))
      clauses
  in
  (* group clauses by PARTITION BY (structural equality), appearance
     order, and assign each to its first covering sort stage *)
  let pgroups = schedule_by (fun (c, _) -> c) outputs in
  (* One long-lived batch holds every partition morsel of the whole plan:
     morsels are submitted as soon as their stage's sort lands and drain on
     the workers while the caller sorts later stages and partition groups
     (the DAG's independent arms overlap), with one join before
     materialisation. *)
  let eval_batch = Task_pool.new_batch () in
  Obs.span "window_plan"
    ~args:(fun () ->
      [ ("rows", string_of_int n); ("clauses", string_of_int (List.length clauses)) ])
    (fun () ->
      List.iter
        (fun (pb, stages) ->
          let pids =
            Obs.span "partition_ids"
              ~args:(fun () -> [ ("by", exprs_to_string pb) ])
              (fun () ->
                match session with
                | Some s -> Session.pids_for s ~pb ~compute:(fun () -> partition_ids pool table pb)
                | None -> partition_ids pool table pb)
          in
          incr partition_passes;
          Obs.Counter.incr c_partition_passes;
          let base = ref None in
          List.iter
            (fun (order, smembers) ->
              incr n_stages;
              Obs.Counter.incr c_stages;
              reused_sorts := !reused_sorts + List.length smembers - 1;
              Obs.Counter.add c_reused_sorts (List.length smembers - 1);
              let sort_kind = ref "" and sort_comp = ref false and sort_cache = ref "" in
              let sort_spill = ref "" in
              let session_hit =
                match session with
                | Some s -> Session.lookup s ~pb ~order
                | None -> None
              in
              let perm, boundaries =
                Obs.span "sort"
                  ~args:(fun () ->
                    [
                      ("order", Sort_spec.to_string order);
                      ("kind", !sort_kind);
                      ("path", if !sort_comp then "comparator" else "encoded");
                      ("rows", string_of_int n);
                    ]
                    @ (if !sort_cache = "" then [] else [ ("cache", !sort_cache) ])
                    @ if !sort_spill = "" then [] else [ ("spilled", !sort_spill) ])
                  (fun () ->
                    let ((perm, boundaries) as result) =
                      match session_hit with
                    | Some (perm, b, _, prov, _) ->
                        (* the store already holds this stage's permutation,
                           maintained under every mutation since it was
                           built — no sort at all *)
                        incr session_sorts;
                        Obs.Counter.incr c_session_sorts;
                        sort_kind := "session";
                        sort_cache := prov;
                        if !base = None then base := Some (perm, b);
                        (perm, b)
                    | None ->
                      (match !base with
                    | None ->
                        let perm, b, comp = full_sort ?gov pool table ~pids ~order in
                        incr full_sorts;
                        Obs.Counter.incr c_full_sorts;
                        if comp then begin
                          incr comparator_sorts;
                          Obs.Counter.incr c_comparator_sorts
                        end;
                        sort_kind := "full";
                        sort_comp := comp;
                        base := Some (perm, b);
                        (perm, b)
                    | Some (bperm, bnds) ->
                        if pids = None then begin
                          (* single global partition: a "partial" re-sort would
                             cover the whole array anyway, so sort independently
                             and keep the parallel path *)
                          incr full_sorts;
                          Obs.Counter.incr c_full_sorts;
                          let perm, _, comp = full_sort ?gov pool table ~pids ~order in
                          if comp then begin
                            incr comparator_sorts;
                            Obs.Counter.incr c_comparator_sorts
                          end;
                          sort_kind := "full(global)";
                          sort_comp := comp;
                          (perm, bnds)
                        end
                        else begin
                          incr partial_sorts;
                          Obs.Counter.incr c_partial_sorts;
                          let perm, comp =
                            partial_sort pool table ~base_perm:bperm ~boundaries:bnds ~order
                          in
                          if comp then begin
                            incr comparator_sorts;
                            Obs.Counter.incr c_comparator_sorts
                          end;
                          sort_kind := "partial";
                          sort_comp := comp;
                          (perm, bnds)
                        end)
                    in
                    (match gov with
                    | Some g -> (
                        match Mem_governor.take_last_spill g with
                        | Some (runs, bytes) ->
                            sort_spill :=
                              Printf.sprintf "(runs=%d, %s)" runs (Obs.human_bytes bytes)
                        | None -> ())
                    | None -> ());
                    (* sort-stage working set: the permutation plus the
                       partition boundary array this stage holds onto *)
                    Obs.record_bytes (fun () ->
                        8 * (2 + Array.length perm + Array.length boundaries));
                    result)
              in
              let nparts = Array.length boundaries - 1 in
              (* the session-side state of this stage: per-partition caches
                 and finished outputs (from the lookup, or registered fresh
                 on a miss) plus the per-item backend memo *)
              let sess_stage =
                match session with
                | None -> None
                | Some s -> (
                    match session_hit with
                    | Some (_, _, parts, _, algs) -> Some (parts, algs)
                    | None -> Some (Session.store s ~pb ~order ~perm ~boundaries))
              in
              let structures_cached =
                match sess_stage with
                | Some (parts, _) ->
                    Array.exists
                      (fun (p : Session.part) -> p.Session.status <> Session.Rebuilt)
                      parts
                | None -> false
              in
              (* resolve every item of the stage to a concrete backend
                 before evaluation starts: one decision (and one
                 plan.evaluator.* bump) per (stage, item), shared by all
                 partitions and morsels.  Under a session, the backend the
                 item resolved to last time has its structures cached, so
                 its build cost is sunk for the cost model. *)
              let smembers =
                List.map
                  (fun (c, outs) ->
                    ( c,
                      List.map
                        (fun ((item : Window_func.t), out) ->
                          let okey =
                            (c.spec, item.Window_func.func, item.Window_func.filter)
                          in
                          let sunk =
                            match sess_stage with
                            | Some (_, algs) when structures_cached -> (
                                match Hashtbl.find_opt algs okey with
                                | Some nm -> [ nm ]
                                | None -> [])
                            | _ -> []
                          in
                          let ((item', _) as resolved) =
                            resolve_item ~evaluator ~sunk ~model:Cost_model.default
                              ~rows_avg:(if nparts = 0 then 0 else n / nparts)
                              ~nparts ~task_size ~fanout c.spec item
                          in
                          (match
                             ( sess_stage,
                               Evaluator_choice.of_algorithm item'.Window_func.algorithm )
                           with
                          | Some (_, algs), Some nm -> Hashtbl.replace algs okey nm
                          | _ -> ());
                          (resolved, out))
                        outs ))
                  smembers
              in
              (* one row view per (stage, partition), shared by every
                 clause and item of the stage; a fresh per-partition cache
                 keeps sharing counters identical at every domain count *)
              let eval_partition p =
                let plo = boundaries.(p) and phi = boundaries.(p + 1) in
                if phi > plo then begin
                  let rows =
                    if plo = 0 && phi = n then perm else Array.sub perm plo (phi - plo)
                  in
                  let spart =
                    match sess_stage with
                    | Some (parts, _) -> Some parts.(p)
                    | None -> None
                  in
                  let cache =
                    match spart with
                    | Some part -> part.Session.cache
                    | None -> Build_cache.create ~counters ()
                  in
                  let item_args (item : Window_func.t) ev extra () =
                    let base =
                      [ ("name", item.name); ("func", Window_func.class_name item) ]
                    in
                    let base =
                      match ev with None -> base | Some e -> base @ [ ("evaluator", e) ]
                    in
                    match extra with None -> base | Some kv -> base @ [ kv ]
                  in
                  List.iter
                    (fun (c, outs) ->
                      let spec = c.spec in
                      let compute_frame () =
                        Obs.span "frame"
                          ~args:(fun () ->
                            [ ("order", Sort_spec.to_string spec.Window_spec.order_by) ])
                          (fun () ->
                            let peers =
                              Build_cache.peers cache ~order:spec.Window_spec.order_by
                                (fun () -> Frame.peers table spec.Window_spec.order_by rows)
                            in
                            Frame.compute ~peers table ~spec ~rows)
                      in
                      let mk_ctx frame =
                        {
                          Evaluators.table;
                          pool;
                          rows;
                          frame;
                          window_order = spec.Window_spec.order_by;
                          fanout;
                          sample;
                          task_size;
                          width = Holistic_core.Mst_width.Auto;
                          cache;
                          gov;
                        }
                      in
                      match spart with
                      | None ->
                          (* stateless path: identical span structure and
                             evaluation order to the historical engine *)
                          let ctx = mk_ctx (compute_frame ()) in
                          List.iter
                            (fun (((item : Window_func.t), ev), out) ->
                              Obs.span "item" ~args:(item_args item ev None) (fun () ->
                                  Evaluators.eval_item ctx item ~out))
                            outs
                      | Some part ->
                          (* session path: an untouched partition serves an
                             item straight from its cached output column —
                             no frame, no structures, no probes; anything
                             else evaluates (maintaining stale structures
                             through the cache's callbacks) and deposits
                             its output for the next query *)
                          let len = Array.length rows in
                          let frame = lazy (compute_frame ()) in
                          List.iter
                            (fun (((item : Window_func.t), ev), out) ->
                              let okey =
                                (spec, item.Window_func.func, item.Window_func.filter)
                              in
                              let hit =
                                if part.Session.status = Session.Reused then
                                  Hashtbl.find_opt part.Session.outputs okey
                                else None
                              in
                              match hit with
                              | Some vals ->
                                  Obs.span "item"
                                    ~args:(item_args item ev (Some ("cache", "reused(outputs)")))
                                    (fun () ->
                                      for r = 0 to len - 1 do
                                        out.(rows.(r)) <- vals.(r)
                                      done)
                              | None ->
                                  Obs.span "item" ~args:(item_args item ev None) (fun () ->
                                      Evaluators.eval_item (mk_ctx (Lazy.force frame)) item
                                        ~out);
                                  Hashtbl.replace part.Session.outputs okey
                                    (Array.init len (fun r -> out.(rows.(r)))))
                            outs)
                    smembers;
                  match spart with
                  | Some part -> part.Session.status <- Session.Reused
                  | None -> ()
                end
              in
              Obs.span "eval"
                ~args:(fun () ->
                  [
                    ("order", Sort_spec.to_string order);
                    ("partitions", string_of_int nparts);
                  ])
                (fun () ->
                  if Task_pool.size pool = 1 then
                    (* the sequential path: identical span structure and
                       evaluation order to the historical engine *)
                    for p = 0 to nparts - 1 do
                      eval_partition p
                    done
                  else begin
                    (* morsel-driven: small partitions fan out as pool
                       tasks (drained while later stages sort), large ones
                       run on the caller with nested parallelism live *)
                    let large = max (2 * task_size) (1 + (n / (2 * Task_pool.size pool))) in
                    let caller_parts, morsels =
                      morselize ~boundaries ~large ~morsel_rows:task_size
                    in
                    List.iter
                      (fun (mfirst, mlast) ->
                        Task_pool.submit pool eval_batch (fun () ->
                            Obs.span "eval.morsel"
                              ~args:(fun () -> [ ("order", Sort_spec.to_string order) ])
                              (fun () ->
                                for p = mfirst to mlast - 1 do
                                  eval_partition p
                                done)))
                      morsels;
                    List.iter eval_partition caller_parts
                  end))
            stages)
        pgroups;
      (* join: every outstanding partition morsel of every stage *)
      Task_pool.wait pool eval_batch);
  let table' =
    Obs.span "materialize"
      ~args:(fun () ->
        [ ("columns", string_of_int (List.length (List.concat_map snd outputs))) ])
      (fun () ->
        List.fold_left
          (fun acc (_, outs) ->
            List.fold_left
              (fun acc ((item : Window_func.t), out) ->
                let col = Column.of_values out in
                Obs.record_bytes (fun () -> Column.footprint_bytes col);
                Table.add_column acc item.name col)
              acc outs)
          table outputs)
  in
  ( table',
    {
      stages = !n_stages;
      partition_passes = !partition_passes;
      full_sorts = !full_sorts;
      partial_sorts = !partial_sorts;
      reused_sorts = !reused_sorts;
      session_sorts = !session_sorts;
      comparator_sorts = !comparator_sorts;
      encode_builds = Build_cache.encode_build_count counters - encode_builds0;
      tree_builds = Build_cache.tree_build_count counters - tree_builds0;
    } )

let run ?pool ?fanout ?sample ?task_size ?evaluator ?governor ?session table clauses =
  fst (run_with_stats ?pool ?fanout ?sample ?task_size ?evaluator ?governor ?session table clauses)
