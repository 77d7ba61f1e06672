open Holistic_storage
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
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
(* Stage sorts                                                         *)
(* ------------------------------------------------------------------ *)

(* Partial-sort sharing (Cao et al., arXiv:1208.0086): a stage whose
   partitioning matches an earlier sort re-sorts only within the inherited
   partition boundaries — partition keys are never compared again. The new
   order's leading key word is gathered once through the base permutation
   (all zeros for a residual-only order); ties fall back to deep words,
   the residual and finally the row id, so repeated runs agree. *)
let partial_sort pool table ~base_perm ~boundaries ~order =
  let perm = Array.copy base_perm in
  let n = Array.length perm in
  let nparts = Array.length boundaries - 1 in
  let kc = Key_codec.compile table order in
  let words = kc.Key_codec.words in
  let nw = Array.length words in
  let comparator_path = nw = 0 && kc.Key_codec.residual <> None in
  let key0 = Array.make n 0 in
  if nw > 0 then begin
    let w0 = words.(0) in
    Task_pool.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
        for i = lo to hi - 1 do
          Array.unsafe_set key0 i (Array.unsafe_get w0 (Array.unsafe_get perm i))
        done)
  end;
  let mw =
    {
      Multiway.key0;
      payload = perm;
      deep = (if nw = 0 then [||] else Array.sub words 1 (nw - 1));
      tie = kc.Key_codec.residual;
    }
  in
  (* Boundary segments are disjoint spans of [perm] (and [key0]), so the
     per-partition re-sorts are independent tasks; chunking over partition
     indices keeps each task a run of consecutive segments. *)
  Task_pool.parallel_for pool ~lo:0 ~hi:nparts (fun plo phi ->
      for p = plo to phi - 1 do
        Multiway.sort_range mw ~lo:boundaries.(p) ~hi:boundaries.(p + 1)
      done);
  (perm, if comparator_path then Session.Comparator else Session.Encoded)

(* How a stage got its order: sorted from scratch (under one global
   partition, after an earlier stage), re-sorted within the partitions of
   an earlier stage, or read from the session store with its provenance. *)
type sort_kind = Full | Full_global | Partial | Stored of string

(* What one stage sort did, for the plan, its stats and its span. *)
type stage_sort = {
  perm : int array;
  boundaries : int array;
  kind : sort_kind;
  path : Session.sort_path;
  spill : (int * int) option;
}

(* The one stage sort. A stage the session store holds sorts nothing. The
   first stage of a partition group sorts from scratch, and every later
   one re-sorts within its partitions, except under one global partition,
   where a "partial" re-sort would cover the whole array anyway: that one
   sorts independently and keeps the parallel path. *)
let sort_stage ?gov pool table ~pids ~order ~base ~(stored : Session.stored option) =
  let full kind =
    let s = Session.sort ?gov pool table ~pids ~order in
    { perm = s.Session.perm; boundaries = s.boundaries; kind; path = s.path; spill = s.spill }
  in
  match (stored, base) with
  | Some st, _ ->
      { perm = st.perm; boundaries = st.boundaries; kind = Stored st.prov; path = Encoded; spill = None }
  | None, None -> full Full
  | None, Some (_, bnds) when pids = None -> { (full Full_global) with boundaries = bnds }
  | None, Some (bperm, bnds) ->
      let perm, path = partial_sort pool table ~base_perm:bperm ~boundaries:bnds ~order in
      { perm; boundaries = bnds; kind = Partial; path; spill = None }

let sort_args ~order ~rows s =
  [
    ("order", Sort_spec.to_string order);
    ( "kind",
      match s.kind with
      | Full -> "full"
      | Full_global -> "full(global)"
      | Partial -> "partial"
      | Stored _ -> "session" );
    ("path", Session.sort_path_name s.path);
    ("rows", string_of_int rows);
  ]
  @ (match s.kind with Stored prov -> [ ("cache", prov) ] | _ -> [])
  @
  match s.spill with
  | Some (runs, bytes) -> [ ("spilled", Printf.sprintf "(runs=%d, %s)" runs (Obs.human_bytes bytes)) ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* Stage grouping                                                      *)
(* ------------------------------------------------------------------ *)

(* Stage orders for one partition group: the orders that are not a strict
   prefix of another requested order, in first-appearance order. Every
   clause is then assigned to the first stage whose order covers its own
   ({!Sort_spec.is_prefix}) and reuses the stage's permutation outright. *)
let stage_orders orders =
  let uniq = List.rev (List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) [] orders) in
  List.filter (fun o -> not (List.exists (fun o' -> o' <> o && Sort_spec.is_prefix o o') uniq)) uniq

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
            match List.find_opt (fun o -> Sort_spec.is_prefix co o) orders with
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

(* Registered plan counters: a finished plan adds its [stats] to them in
   one place, so captured traces mirror the record. *)
let plan_counters =
  List.map
    (fun (name, help, field) -> (Obs.Counter.make ~help name, field))
    ([
      ("plan.stages", "Pipeline stages executed by window plans", fun s -> s.stages);
      ( "plan.partition_passes",
        "Partitioning passes over the input (shared across OVER clauses)",
        fun s -> s.partition_passes );
      ("plan.full_sorts", "Full sorts of a partitioning stage from scratch", fun s -> s.full_sorts);
      ( "plan.partial_sorts",
        "Partial re-sorts refining an already partition-clustered order",
        fun s -> s.partial_sorts );
      ("plan.reused_sorts", "Sort orders reused verbatim from an earlier stage", fun s -> s.reused_sorts);
      ("plan.session_sorts", "Sort orders served from a session store entry", fun s -> s.session_sorts);
      ( "plan.comparator_sorts",
        "Sorts that fell back to the boxed comparator path",
        fun s -> s.comparator_sorts );
     ]
      : (string * string * (stats -> int)) list)

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

   An item pinned to a backend (its algorithm, which the SQL front end
   also sets for a forced evaluator) keeps it, strictly: an unsupported
   (function, backend) pair is an error, so the backend an item span
   reports is the one that ran.  An unpinned item goes to the cost
   model. *)
let resolve_item ~sunk ~(model : Cost_model.constants) ~rows_avg ~nparts
    ~task_size ~fanout (spec : Window_spec.t) (item : Window_func.t) =
  let module Ec = Evaluator_choice in
  match Ec.classify item with
  | Ec.C_trivial_count -> (item, None)
  | cls ->
      let holed = holed_spec spec in
      let chosen =
        match item.Window_func.algorithm with
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
                if sunk = [] then [] else [ ("sunk", String.concat "," (List.map Ec.to_string sunk)) ])
              (fun () -> ());
            d.Cost_model.chosen
      in
      Obs.Counter.incr (List.assoc chosen c_evaluator);
      ( { item with Window_func.algorithm = Some chosen },
        Some (Ec.to_string chosen) )

(* Session provenance of item rows: answered by a probe, or copied from a
   cached output column.  Counted under a session only, so a stateless
   plan's counters are unchanged. *)
let c_rows_probed =
  Obs.Counter.make ~help:"Session item rows answered by probing" "cache.probed_rows"

let c_rows_copied =
  Obs.Counter.make ~help:"Session item rows copied from a cached output column" "cache.copied_rows"

(* The rows a cached output of length [k] cannot answer, as sorted,
   disjoint half-open ranges of partition positions: row [r] is affected
   iff [r >= k], or its base frame ends past [k], or its peer group does.

   Why every other row keeps its cached answer.  The output was computed
   when the partition held its first [k] rows, and an in-order append only
   adds rows that sort after all of them, leaving the old rows at their
   positions.  A non-empty frame that ends at most at [k] therefore has
   the same start, the same rows and the same exclusion holes as before:
   ROWS, RANGE and GROUPS bounds of an old row are read off old rows only
   (positions, keys and peer groups below [k]), and with its peer group
   also ending at most at [k] no hole reaches a new row.  An empty frame
   stays empty.  Every function reads only its frame's rows and the row's
   own key ([Reference.frame_ranges]), so the answer is the cached one —
   bit for bit wherever {!Evaluators.frame_local} holds; a float sum over
   a tree, whose shape follows the partition's length, probes every row.
   The set is not a suffix: per-row FOLLOWING offsets give non-monotonic
   frames (paper Fig. 12), so an old row far back may reach a new row
   while its neighbours do not. *)
let affected frame ~k =
  let np = Frame.size frame in
  let acc = ref [] and open_at = ref (-1) in
  for r = 0 to min k np - 1 do
    let hit = Frame.end_ frame r > k || Frame.peer_end frame r > k in
    if hit && !open_at < 0 then open_at := r
    else if (not hit) && !open_at >= 0 then begin
      acc := (!open_at, r) :: !acc;
      open_at := -1
    end
  done;
  let tail = if !open_at >= 0 then !open_at else k in
  if tail < np then acc := (tail, np) :: !acc;
  Array.of_list (List.rev !acc)

let covered at = Array.fold_left (fun n (lo, hi) -> n + hi - lo) 0 at

let item_args (item : Window_func.t) ev cache () =
  [ ("name", item.name); ("func", Window_func.class_name item) ]
  @ Option.to_list (Option.map (fun e -> ("evaluator", e)) ev)
  @ Option.to_list (Option.map (fun c -> ("cache", c)) cache)

let exprs_to_string exprs = String.concat ", " (List.map Expr.to_string exprs)

let order_permutation ~pool table ~over =
  let pids = Session.partition_ids pool table over.Window_spec.partition_by in
  let s = Session.sort pool table ~pids ~order:over.Window_spec.order_by in
  (s.Session.perm, s.Session.boundaries)

(* [governor] is owned by the caller (spill directory included); without
   one every sort runs in memory. *)
let run_with_stats ~pool ?(fanout = 32) ?(task_size = Task_pool.default_task_size) ?governor:gov
    ?session table clauses =
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
                let compute () = Session.partition_ids pool table pb in
                match session with
                | Some s -> Session.pids_for s ~pb ~compute
                | None -> compute ())
          in
          incr partition_passes;
          let base = ref None in
          List.iter
            (fun (order, smembers) ->
              incr n_stages;
              reused_sorts := !reused_sorts + List.length smembers - 1;
              let stored =
                match session with Some s -> Session.lookup s ~pb ~order | None -> None
              in
              let sorted = ref None in
              let s =
                Obs.span "sort"
                  ~args:(fun () ->
                    match !sorted with
                    | Some s -> sort_args ~order ~rows:n s
                    | None -> [ ("order", Sort_spec.to_string order); ("rows", string_of_int n) ])
                  (fun () ->
                    let s = sort_stage ?gov pool table ~pids ~order ~base:!base ~stored in
                    sorted := Some s;
                    (* sort-stage working set: the permutation plus the
                       partition boundary array this stage holds onto *)
                    Obs.record_bytes (fun () ->
                        8 * (2 + Array.length s.perm + Array.length s.boundaries));
                    s)
              in
              incr
                (match s.kind with
                | Full | Full_global -> full_sorts
                | Partial -> partial_sorts
                | Stored _ -> session_sorts);
              if s.path = Session.Comparator then incr comparator_sorts;
              let perm = s.perm and boundaries = s.boundaries in
              if !base = None then base := Some (perm, boundaries);
              let nparts = Array.length boundaries - 1 in
              (* the session-side state of this stage: per-partition caches
                 and finished outputs (from the lookup, or registered fresh
                 on a miss) plus the per-item backend memo *)
              let sess_stage =
                match (session, stored) with
                | None, _ -> None
                | Some _, Some st -> Some (st.Session.parts, st.Session.algs)
                | Some s, None -> Some (Session.store s ~pb ~order ~perm ~boundaries)
              in
              let structures_cached =
                match sess_stage with
                | Some (parts, _) -> Array.exists (fun (p : Session.part) -> p.status <> Rebuilt) parts
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
                            | Some (_, algs) when structures_cached ->
                                Option.to_list (Hashtbl.find_opt algs okey)
                            | _ -> []
                          in
                          let ((item', _) as resolved) =
                            resolve_item ~sunk ~model:Cost_model.default
                              ~rows_avg:(if nparts = 0 then 0 else n / nparts)
                              ~nparts ~task_size ~fanout c.spec item
                          in
                          (match (sess_stage, item'.Window_func.algorithm) with
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
                  let len = Array.length rows in
                  let spart = Option.map (fun (parts, _) -> parts.(p)) sess_stage in
                  let outputs = Option.map (fun (part : Session.part) -> part.outputs) spart in
                  let cache =
                    match spart with Some part -> part.cache | None -> Build_cache.create ~counters ()
                  in
                  (* Each item decides on the length of its cached output
                     column (see [affected]): a full column is copied with
                     no frame, no structures and no probes; a shorter one,
                     kept across in-order appends, probes only the affected
                     rows and copies the rest; no column (always, without a
                     session) evaluates every row.  Structures are built or
                     maintained through the cache's callbacks, and under a
                     session the completed column is kept for the next
                     query.  The clause's frame is computed before its item
                     spans whenever some item needs it. *)
                  List.iter
                    (fun (c, outs) ->
                      let spec = c.spec in
                      let outs =
                        List.map
                          (fun ((((item : Window_func.t), _), _) as o) ->
                            let okey = ((spec, item.func, item.filter), item.algorithm) in
                            (o, okey, Option.bind outputs (fun t -> Hashtbl.find_opt t okey)))
                          outs
                      in
                      let frame =
                        lazy
                          (Obs.span "frame"
                             ~args:(fun () ->
                               [ ("order", Sort_spec.to_string spec.Window_spec.order_by) ])
                             (fun () ->
                               let peers =
                                 Evaluators.peers cache table spec.Window_spec.order_by rows
                               in
                               Frame.compute ~peers table ~spec ~rows))
                      in
                      if
                        List.exists
                          (fun (_, _, cached) ->
                            match cached with Some vals -> Array.length vals <> len | None -> true)
                          outs
                      then ignore (Lazy.force frame);
                      let ctx () =
                        {
                          Evaluators.table;
                          pool;
                          rows;
                          frame = Lazy.force frame;
                          window_order = spec.Window_spec.order_by;
                          fanout;
                          sample = 32;
                          task_size;
                          width = Holistic_core.Mst_width.Auto;
                          cache;
                          gov;
                        }
                      in
                      List.iter
                        (fun ((((item : Window_func.t), ev), out), okey, cached) ->
                          let copy vals ~lo ~hi =
                            for r = lo to hi - 1 do
                              out.(rows.(r)) <- vals.(r)
                            done
                          in
                          let keep () =
                            Option.iter
                              (fun t -> Hashtbl.replace t okey (Array.init len (fun r -> out.(rows.(r)))))
                              outputs
                          in
                          match cached with
                          | Some vals when Array.length vals = len ->
                              Obs.span "item"
                                ~args:(item_args item ev (Some "reused(outputs)"))
                                (fun () -> copy vals ~lo:0 ~hi:len);
                              Obs.Counter.add c_rows_copied len
                          | Some vals
                            when Array.length vals < len && Evaluators.frame_local table item ->
                              let at = affected (Lazy.force frame) ~k:(Array.length vals) in
                              let probed = covered at in
                              Obs.span "item"
                                ~args:
                                  (item_args item ev
                                     (Some (Printf.sprintf "maintained(probed=%d of %d)" probed len)))
                                (fun () ->
                                  Evaluators.eval_item_at (ctx ()) item ~at ~out;
                                  (* the gaps between affected ranges keep
                                     their cached answers *)
                                  let prev = ref 0 in
                                  Array.iter
                                    (fun (lo, hi) ->
                                      copy vals ~lo:!prev ~hi:lo;
                                      prev := hi)
                                    at);
                              keep ();
                              Obs.Counter.add c_rows_probed probed;
                              Obs.Counter.add c_rows_copied (len - probed)
                          | _ ->
                              Obs.span "item" ~args:(item_args item ev None) (fun () ->
                                  Evaluators.eval_item (ctx ()) item ~out);
                              keep ();
                              if Option.is_some outputs then Obs.Counter.add c_rows_probed len)
                        outs)
                    smembers;
                  Option.iter (fun (part : Session.part) -> part.status <- Session.Reused) spart
                end
              in
              Obs.span "eval"
                ~args:(fun () ->
                  [ ("order", Sort_spec.to_string order); ("partitions", string_of_int nparts) ])
                (fun () ->
                  if Task_pool.size pool = 1 then
                    (* one domain: partitions in order on the caller,
                       with no morsel spans *)
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
  let stats =
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
    }
  in
  List.iter (fun (c, field) -> Obs.Counter.add c (field stats)) plan_counters;
  (table', stats)

let run ~pool ?fanout ?task_size ?governor ?session table clauses =
  fst (run_with_stats ~pool ?fanout ?task_size ?governor ?session table clauses)
