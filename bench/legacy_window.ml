(* The pre-plan single-spec window operator, preserved verbatim as the
   benchmark baseline for the [sql-multiwindow] experiment: every OVER
   clause is executed independently — its own partition pass, its own
   polymorphic-compare sort, a fresh [Array.sub] slice per partition, and a
   fresh structure cache per {e item} so rank encodings and merge sort
   trees are rebuilt exactly as often as the old per-item builders did.
   The experiment checks this baseline still produces value-identical
   columns to the shared {!Holistic_window.Window_plan} pipeline before
   timing it, so it cannot silently drift from what the library used to
   do. *)

open Holistic_storage
open Holistic_window
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Parallel_sort = Holistic_sort.Parallel_sort

let densify_ints a =
  let tbl = Hashtbl.create 256 in
  Array.map
    (fun v ->
      match Hashtbl.find_opt tbl v with
      | Some id -> id
      | None ->
          let id = Hashtbl.length tbl in
          Hashtbl.add tbl v id;
          id)
    a

let partition_ids pool table exprs =
  let n = Table.nrows table in
  match exprs with
  | [] -> None
  | _ ->
      let key_of_expr e =
        match e with
        | Expr.Col name -> Column.distinct_ids (Table.column table name)
        | _ ->
            let f = Expr.compile table e in
            let vals = Array.make n Value.Null in
            Task_pool.parallel_for pool ~lo:0 ~hi:n ~chunk:Task_pool.default_task_size
              (fun lo hi ->
                for i = lo to hi - 1 do
                  Array.unsafe_set vals i (f i)
                done);
            let tbl = Hashtbl.create 256 in
            Array.map
              (fun v ->
                match Hashtbl.find_opt tbl v with
                | Some id -> id
                | None ->
                    let id = Hashtbl.length tbl in
                    Hashtbl.add tbl v id;
                    id)
              vals
      in
      let ids =
        match List.map key_of_expr exprs with
        | [] -> assert false
        | [ k ] -> k
        | k :: rest ->
            List.fold_left
              (fun acc k ->
                let a = densify_ints acc and b = densify_ints k in
                Array.init n (fun i -> (a.(i) * n) + b.(i)))
              k rest
      in
      Some ids

let order_permutation ~pool table ~over =
  let n = Table.nrows table in
  let pids = partition_ids pool table over.Window_spec.partition_by in
  let perm =
    match pids, Sort_spec.single_int_key table over.Window_spec.order_by with
    | None, Some keys ->
        let key = Array.copy keys in
        let perm = Array.init n (fun i -> i) in
        Parallel_sort.sort_pairs pool ~key ~payload:perm;
        perm
    | _ ->
        let ord_cmp =
          if over.Window_spec.order_by = [] then fun _ _ -> 0
          else Sort_spec.comparator table over.Window_spec.order_by
        in
        let cmp =
          match pids with
          | None -> ord_cmp
          | Some ids ->
              fun i j ->
                let c = compare ids.(i) ids.(j) in
                if c <> 0 then c else ord_cmp i j
        in
        Introsort.sort_indices_by n ~cmp
  in
  let boundaries =
    match pids with
    | None -> [| 0; n |]
    | Some ids ->
        let acc = ref [ 0 ] in
        for k = 1 to n - 1 do
          if ids.(perm.(k)) <> ids.(perm.(k - 1)) then acc := k :: !acc
        done;
        Array.of_list (List.rev (n :: !acc))
  in
  (perm, boundaries)

(* [?counters] feeds the same build counters the plan reports, so the
   benchmark can show how many encodings/trees this path constructs. The
   cache handed to the evaluators is fresh per (partition, item): nothing
   is ever shared, exactly like the old per-item builders. *)
let run ~pool ?(fanout = 32) ?(sample = 32) ?(task_size = Task_pool.default_task_size)
    ?(width = Holistic_core.Mst_width.Auto) ?counters table ~over items =
  let n = Table.nrows table in
  let perm, boundaries = order_permutation ~pool table ~over in
  let outputs = List.map (fun (item : Window_func.t) -> (item, Array.make n Value.Null)) items in
  for p = 0 to Array.length boundaries - 2 do
    let plo = boundaries.(p) and phi = boundaries.(p + 1) in
    if phi > plo then begin
      let rows = Array.sub perm plo (phi - plo) in
      let frame = Frame.compute table ~spec:over ~rows in
      List.iter
        (fun (item, out) ->
          let ctx =
            {
              Evaluators.table;
              pool;
              rows;
              frame;
              window_order = over.Window_spec.order_by;
              fanout;
              sample;
              task_size;
              width;
              cache = Build_cache.create ?counters ();
              gov = None;
            }
          in
          Evaluators.eval_item ctx item ~out)
        outputs
    end
  done;
  List.fold_left
    (fun acc ((item : Window_func.t), out) -> Table.add_column acc item.name (Column.of_values out))
    table outputs

(* One independent pass per clause, like the old planner emitted. *)
let run_clauses ~pool ?fanout ?sample ?task_size ?width ?counters table clauses =
  List.fold_left
    (fun acc (c : Window_plan.clause) ->
      run ~pool ?fanout ?sample ?task_size ?width ?counters acc ~over:c.spec c.items)
    table clauses
