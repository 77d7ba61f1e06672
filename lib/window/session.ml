open Holistic_storage
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Multiway = Holistic_sort.Multiway
module Parallel_sort = Holistic_sort.Parallel_sort

(* ------------------------------------------------------------------ *)
(* Partition keys and full sorts (shared with Window_plan)             *)
(* ------------------------------------------------------------------ *)

(* These live here — below the plan — because the session's mutation
   paths must reproduce the plan's sorts and partition keys bit for bit:
   a maintained permutation is only valid if it equals what [full_sort]
   would have produced from scratch.  [Window_plan] aliases them. *)

(* Integer partition keys from the PARTITION BY expressions: two rows get
   equal keys iff every expression agrees. Per-column keys are computed
   column-at-a-time (no per-row list allocation, and the expression phase
   parallelises over the pool); multi-column keys are packed after
   densifying each side, so the combine is pure integer arithmetic. The
   stdlib [Hashtbl] compares with polymorphic equality, which preserves the
   SQL-ish grouping of the old row-key path (NULLs group together, [nan]
   equals [nan]). *)
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
        | Expr.Col name ->
            (* exact per-column equality keys; raw values for int-like
               columns, so no hash table at all on this path *)
            Column.distinct_ids (Table.column table name)
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
            (* pack pairwise: densified ids are < n, so [a * n + b] is
               collision-free and stays well inside 63-bit range *)
            List.fold_left
              (fun acc k ->
                let a = densify_ints acc and b = densify_ints k in
                Array.init n (fun i -> (a.(i) * n) + b.(i)))
              k rest
      in
      Some ids

(* Partition boundaries straight off the sorted leading key word: the
   partition component of word 0 is [word / divisor] (see
   {!Key_codec.pid_divisor}), so boundaries need no second pass over
   partition ids through the permutation. Count-then-fill: no O(n) list
   churn. *)
let boundaries_of_key0 ~key0 ~divisor n =
  let count = ref 1 in
  for k = 1 to n - 1 do
    if key0.(k) / divisor <> key0.(k - 1) / divisor then incr count
  done;
  let b = Array.make (!count + 1) 0 in
  b.(!count) <- n;
  let idx = ref 1 in
  for k = 1 to n - 1 do
    if key0.(k) / divisor <> key0.(k - 1) / divisor then begin
      b.(!idx) <- k;
      incr idx
    end
  done;
  b

(* Every full sort goes through the key codec: partition ids become the
   leading component of word 0, ORDER BY keys become the remaining words,
   and the parallel run-sort/OVC-merge machinery does the rest. A sort
   counts as comparator-path only when the codec produced no words at all
   (nothing but closure comparisons) — the regression the stats guard
   against. Returns [(perm, partition boundaries, comparator_path)]. *)
let full_sort ?gov pool table ~pids ~order =
  let n = Table.nrows table in
  let kc = Key_codec.compile ?pids table order in
  let words = kc.Key_codec.words in
  let nwords = Array.length words in
  let tie = kc.Key_codec.residual in
  let comparator_path = nwords = 0 && tie <> None in
  let in_memory () =
    let perm, key0 = Parallel_sort.sort_encoded pool ~n ~words ?tie () in
    let boundaries =
      match kc.Key_codec.pid_divisor with
      | None -> [| 0; n |]
      | Some divisor -> boundaries_of_key0 ~key0 ~divisor n
    in
    (perm, boundaries, comparator_path)
  in
  match gov with
  | None -> in_memory ()
  | Some _ when nwords = 0 -> in_memory ()
  | Some g -> (
      (* governed: charge the encoded key words, let the governor decide,
         and mirror each path's transient working set (see the model in
         Mem_governor.plan_sort) so [peak] is the accounted high-water.
         [held] tracks what is charged, so a failure anywhere — the
         budget check, the sort, the spill IO — releases it all. *)
      let held = ref 0 in
      let charge b =
        Mem_governor.charge g b;
        held := !held + b
      and release b =
        Mem_governor.release g b;
        held := !held - b
      in
      Fun.protect ~finally:(fun () -> Mem_governor.release g !held) @@ fun () ->
      let c_words = 8 * nwords * n in
      charge c_words;
      let multi_run = Task_pool.size pool > 1 && n > Task_pool.default_task_size in
      match Mem_governor.plan_sort g ~n ~nwords ~multi_run with
      | Mem_governor.Sort_in_memory ->
          let need = (16 * n) + if multi_run then 16 * n else 0 in
          charge need;
          let r = in_memory () in
          release (need + c_words);
          r
      | Mem_governor.Sort_spill { run_rows; read_entries } ->
          let dir = Mem_governor.spill_dir g in
          let stride = nwords + 1 in
          let nruns = ((n - 1) / run_rows) + 1 in
          let c_form = 24 * run_rows in
          let c_merge = (8 * n) + (nruns * read_entries * stride * 8) in
          charge c_form;
          let interior = ref [] in
          let on_key0 =
            match kc.Key_codec.pid_divisor with
            | None -> None
            | Some divisor ->
                let prev = ref 0 in
                Some
                  (fun rank k0 ->
                    let p = k0 / divisor in
                    if rank = 0 then prev := p
                    else if p <> !prev then begin
                      interior := rank :: !interior;
                      prev := p
                    end)
          in
          let perm, runs, bytes =
            Parallel_sort.sort_encoded_spill ~n ~words ?tie ~run_rows ~read_entries ~dir ?on_key0
              ~after_runs:(fun () ->
                (* the key words are on disk now: swap the formation-side
                   charges for the merge-side ones *)
                release (c_form + c_words);
                charge c_merge)
              ()
          in
          release c_merge;
          Mem_governor.note_spill g ~runs ~bytes;
          let boundaries =
            if n = 0 then [| 0; 0 |]
            else
              match kc.Key_codec.pid_divisor with
              | None -> [| 0; n |]
              | Some _ -> Array.of_list (0 :: List.rev (n :: !interior))
          in
          (perm, boundaries, comparator_path))

(* ------------------------------------------------------------------ *)
(* The persistent structure store                                      *)
(* ------------------------------------------------------------------ *)

type status = Reused | Extended of int | Rebuilt

type okey = Window_spec.t * Window_func.func * Expr.t option

type part = {
  cache : Build_cache.t;
  outputs : (okey, Value.t array) Hashtbl.t;
  mutable status : status;
}

type entry = {
  mutable perm : int array;
  mutable boundaries : int array;
  mutable parts : part array;
  mutable prov : string;
      (* pending maintenance note for the next query's sort span; [""]
         once consumed (the span then reads [reused(epoch=k)]) *)
  algs : (okey, Evaluator_choice.name) Hashtbl.t;
      (* backend each item resolved to at the last query over this stage:
         its structures are already cached, so their build cost is sunk *)
}

type t = {
  mutable table : Table.t;
  mutable epoch : int;
  pool : Task_pool.t;
  counters : Build_cache.counters;
  pids : (Expr.t list, int array option) Hashtbl.t;
  entries : (Expr.t list * Sort_spec.t, entry) Hashtbl.t;
  (* how mutations classified stage partitions over the session's
     lifetime: kept outright / extended in order / built from scratch
     (first builds included).  Monotone — the introspection and gauge
     story for "how much is maintenance actually saving". *)
  mutable tally_reused : int;
  mutable tally_extended : int;
  mutable tally_rebuilt : int;
}

let entry_bytes e =
  let parts =
    Array.fold_left
      (fun acc p ->
        Hashtbl.fold
          (fun _ vals acc -> acc + (16 * Array.length vals))
          p.outputs
          (acc + Build_cache.footprint_bytes p.cache))
      0 e.parts
  in
  (8 * (Array.length e.perm + Array.length e.boundaries)) + parts

let footprint_bytes s = Hashtbl.fold (fun _ e acc -> acc + entry_bytes e) s.entries 0

(* The session.* gauges follow the most recently created session (the
   callbacks are re-pointed by each [create]); the CLI and the serving
   story both run one session per process. *)
let register_gauges s =
  let reg name help read = ignore (Obs.Gauge.register ~help name read) in
  reg "session.rows" "Rows currently in the session table" (fun () -> Table.nrows s.table);
  reg "session.bytes" "Bytes held by the session structure store (permutations, caches, outputs)"
    (fun () -> footprint_bytes s);
  reg "session.epoch" "Mutations (appends/evictions) applied to the session" (fun () -> s.epoch);
  reg "session.keys" "(PARTITION BY, ORDER BY) stages held by the session store" (fun () ->
      Hashtbl.length s.entries);
  reg "session.parts_reused" "Stage partitions kept outright across mutations since session creation"
    (fun () -> s.tally_reused);
  reg "session.parts_extended"
    "Stage partitions maintained incrementally (in-order append) since session creation" (fun () ->
      s.tally_extended);
  reg "session.parts_rebuilt" "Stage partitions built from scratch since session creation"
    (fun () -> s.tally_rebuilt)

let create ?pool table =
  let pool = match pool with Some p -> p | None -> Task_pool.default () in
  let s =
    {
      table;
      epoch = 0;
      pool;
      counters = Build_cache.fresh_counters ();
      pids = Hashtbl.create 8;
      entries = Hashtbl.create 8;
      tally_reused = 0;
      tally_extended = 0;
      tally_rebuilt = 0;
    }
  in
  register_gauges s;
  s

let table s = s.table
let epoch s = s.epoch
let counters s = s.counters

let fresh_part counters status =
  { cache = Build_cache.create ~counters (); outputs = Hashtbl.create 8; status }

(* ------------------------------------------------------------------ *)
(* Query-side API (used by Window_plan)                                *)
(* ------------------------------------------------------------------ *)

let pids_for s ~pb ~compute =
  match Hashtbl.find_opt s.pids pb with
  | Some p -> p
  | None ->
      let p = compute () in
      Hashtbl.replace s.pids pb p;
      p

let lookup s ~pb ~order =
  match Hashtbl.find_opt s.entries (pb, order) with
  | None -> None
  | Some e ->
      let prov =
        if e.prov = "" then Printf.sprintf "reused(epoch=%d)" s.epoch else e.prov
      in
      e.prov <- "";
      Some (e.perm, e.boundaries, e.parts, prov, e.algs)

let store s ~pb ~order ~perm ~boundaries =
  let nparts = Array.length boundaries - 1 in
  let parts = Array.init nparts (fun _ -> fresh_part s.counters Rebuilt) in
  s.tally_rebuilt <- s.tally_rebuilt + nparts;
  let e = { perm; boundaries; parts; prov = ""; algs = Hashtbl.create 8 } in
  Hashtbl.replace s.entries (pb, order) e;
  (parts, e.algs)

(* ------------------------------------------------------------------ *)
(* Append maintenance                                                  *)
(* ------------------------------------------------------------------ *)

(* Match every partition of the new permutation to its old counterpart by
   partition-id label (ids recomputed on the appended table are valid for
   old rows too: their values did not change).  A slice whose length is
   unchanged is exactly the old slice — the label's old rows, in the same
   total order — so the part is reused outright.  A longer slice is an
   in-order extension iff every appended row sorts strictly after the old
   rows; then the old caches are kept and marked stale for incremental
   maintenance.  Out-of-order appends (a new row interleaving among old
   ones) invalidate precisely that partition. *)
let classify_append s ~pids ~old_perm ~old_b ~old_parts ~perm ~boundaries ~n_old =
  let counters = s.counters in
  let rebuilt () =
    s.tally_rebuilt <- s.tally_rebuilt + 1;
    fresh_part counters Rebuilt
  in
  let label row = match pids with None -> 0 | Some ids -> ids.(row) in
  let old_nparts = Array.length old_b - 1 in
  let old_index = Hashtbl.create (2 * old_nparts) in
  for p = 0 to old_nparts - 1 do
    (* an empty table stores one empty slice — nothing to match against *)
    if old_b.(p + 1) > old_b.(p) then Hashtbl.replace old_index (label old_perm.(old_b.(p))) p
  done;
  let nparts = Array.length boundaries - 1 in
  Array.init nparts (fun p ->
      let lo = boundaries.(p) and hi = boundaries.(p + 1) in
      if hi = lo then rebuilt ()
      else
      match Hashtbl.find_opt old_index (label perm.(lo)) with
      | None -> rebuilt ()
      | Some op ->
          let old_len = old_b.(op + 1) - old_b.(op) in
          let len = hi - lo in
          if len = old_len then begin
            s.tally_reused <- s.tally_reused + 1;
            old_parts.(op)
          end
          else if len > old_len then begin
            let in_order = ref true in
            for k = lo to lo + old_len - 1 do
              if perm.(k) >= n_old then in_order := false
            done;
            if !in_order then begin
              let part = old_parts.(op) in
              Build_cache.advance part.cache;
              Hashtbl.reset part.outputs;
              part.status <- Extended old_len;
              s.tally_extended <- s.tally_extended + 1;
              part
            end
            else rebuilt ()
          end
          else rebuilt ())

(* Maintain one stage order under an append: gather the new codec's
   leading word through the old permutation (run 1), sort the appended
   suffix (run 2) exactly as the parallel sort's run phase would, and
   OVC-merge the two runs.  Both runs are sorted under the codec's strict
   total order — words, residual, ascending row id — which is the full
   sort's order, so the merged permutation is bit-identical to sorting the
   appended table from scratch.  The O(n) adjacency check guards the
   old-prefix invariant (it can break when a bulk eviction reordered
   hash-densified partition labels); any failure falls back to a full
   sort, which the slice classifier then salvages partition by partition. *)
let maintain_append s entry ~pids ~order ~n_old ~n =
  let table = s.table in
  let kc = Key_codec.compile ?pids table order in
  let words = kc.Key_codec.words in
  let merged =
    if Array.length words = 0 then None
    else begin
      let payload = Array.make n 0 in
      Array.blit entry.perm 0 payload 0 n_old;
      for i = n_old to n - 1 do
        payload.(i) <- i
      done;
      let w0 = words.(0) in
      let key0 =
        Array.init n (fun i -> Array.unsafe_get w0 (Array.unsafe_get payload i))
      in
      let mw =
        {
          Multiway.key0;
          payload;
          deep = Array.sub words 1 (Array.length words - 1);
          tie = kc.Key_codec.residual;
        }
      in
      let sorted = ref true in
      (try
         for i = 1 to n_old - 1 do
           if Multiway.compare_positions mw (i - 1) i > 0 then begin
             sorted := false;
             raise Exit
           end
         done
       with Exit -> ());
      if not !sorted then None
      else begin
        if n - n_old > 1 then begin
          let tie = Multiway.deep_compare mw in
          Introsort.sort_pairs_tie_range ~key:key0 ~payload ~tie ~lo:n_old ~hi:n
        end;
        let dst_key0 = Array.make n 0 and dst_payload = Array.make n 0 in
        Multiway.merge_multiword ~mw
          ~runs:[| { Multiway.lo = 0; hi = n_old }; { Multiway.lo = n_old; hi = n } |]
          ~dst_key0 ~dst_payload ~dst_pos:0;
        Some (dst_payload, dst_key0)
      end
    end
  in
  let perm, boundaries, prov =
    match merged with
    | Some (perm, key0) ->
        let b =
          match kc.Key_codec.pid_divisor with
          | None -> [| 0; n |]
          | Some divisor -> boundaries_of_key0 ~key0 ~divisor n
        in
        (perm, b, Printf.sprintf "maintained(+%d rows)" (n - n_old))
    | None ->
        let perm, b, _ = full_sort s.pool table ~pids ~order in
        (perm, b, "rebuilt(order)")
  in
  let parts =
    classify_append s ~pids ~old_perm:entry.perm ~old_b:entry.boundaries
      ~old_parts:entry.parts ~perm ~boundaries ~n_old
  in
  entry.perm <- perm;
  entry.boundaries <- boundaries;
  entry.parts <- parts;
  entry.prov <- prov

let append_rows s delta =
  let n_old = Table.nrows s.table in
  let dn = Table.nrows delta in
  if dn > 0 then begin
    let n = n_old + dn in
    s.table <- Table.append s.table delta;
    s.epoch <- s.epoch + 1;
    Obs.span "session.append"
      ~args:(fun () -> [ ("rows", string_of_int dn); ("total", string_of_int n) ])
      (fun () ->
        (* refresh every cached partition-id array on the appended table
           first (entries share them), then maintain each stage order *)
        let pbs = Hashtbl.fold (fun pb _ acc -> pb :: acc) s.pids [] in
        List.iter (fun pb -> Hashtbl.replace s.pids pb (partition_ids s.pool s.table pb)) pbs;
        Hashtbl.iter
          (fun (pb, order) entry ->
            let pids = pids_for s ~pb ~compute:(fun () -> partition_ids s.pool s.table pb) in
            maintain_append s entry ~pids ~order ~n_old ~n)
          s.entries)
  end

(* ------------------------------------------------------------------ *)
(* Bulk eviction                                                       *)
(* ------------------------------------------------------------------ *)

(* Eviction never re-sorts: filtering a sorted permutation and renumbering
   the surviving row ids monotonically preserves the codec's total order
   (the final tie-break is ascending row id, and the renumbering keeps
   relative id order), so the filtered permutation is exactly what a full
   sort of the evicted table would produce — up to the order of
   hash-densified partition labels, which the next append's adjacency
   guard re-checks.  Partitions keep their relative order, so the new
   boundaries are survivor-count prefix sums; a partition that lost no
   rows keeps its caches and outputs (structures index slice positions
   and row values, both unchanged), one that lost any row is rebuilt. *)
let apply_evict s keep =
  let n_old = Array.length keep in
  let kept = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep in
  if kept < n_old then begin
    let rn = Array.make n_old (-1) in
    let kept_rows = Array.make kept 0 in
    let j = ref 0 in
    for i = 0 to n_old - 1 do
      if keep.(i) then begin
        rn.(i) <- !j;
        kept_rows.(!j) <- i;
        incr j
      end
    done;
    s.table <- Table.gather s.table kept_rows;
    s.epoch <- s.epoch + 1;
    Obs.span "session.evict"
      ~args:(fun () ->
        [ ("rows", string_of_int (n_old - kept)); ("total", string_of_int kept) ])
      (fun () ->
        let pbs = Hashtbl.fold (fun pb _ acc -> pb :: acc) s.pids [] in
        List.iter (fun pb -> Hashtbl.replace s.pids pb (partition_ids s.pool s.table pb)) pbs;
        Hashtbl.iter
          (fun _ entry ->
            let old_perm = entry.perm and old_b = entry.boundaries in
            let old_nparts = Array.length old_b - 1 in
            let perm = Array.make kept 0 in
            let k = ref 0 in
            Array.iter
              (fun row ->
                if keep.(row) then begin
                  perm.(!k) <- rn.(row);
                  incr k
                end)
              old_perm;
            (* survivors per old partition; surviving partitions keep
               their relative order, so boundaries are prefix sums *)
            let surviving = ref 0 in
            let surv =
              Array.init old_nparts (fun p ->
                  let c = ref 0 in
                  for q = old_b.(p) to old_b.(p + 1) - 1 do
                    if keep.(old_perm.(q)) then incr c
                  done;
                  if !c > 0 then incr surviving;
                  !c)
            in
            let boundaries = Array.make (!surviving + 1) 0 in
            let parts = Array.make !surviving (fresh_part s.counters Rebuilt) in
            let idx = ref 0 and off = ref 0 in
            for p = 0 to old_nparts - 1 do
              if surv.(p) > 0 then begin
                boundaries.(!idx) <- !off;
                parts.(!idx) <-
                  (if surv.(p) = old_b.(p + 1) - old_b.(p) then begin
                     s.tally_reused <- s.tally_reused + 1;
                     entry.parts.(p)
                   end
                   else begin
                     s.tally_rebuilt <- s.tally_rebuilt + 1;
                     fresh_part s.counters Rebuilt
                   end);
                off := !off + surv.(p);
                incr idx
              end
            done;
            boundaries.(!surviving) <- kept;
            entry.perm <- perm;
            entry.boundaries <- boundaries;
            entry.parts <- parts;
            entry.prov <- Printf.sprintf "maintained(-%d rows)" (n_old - kept))
          s.entries)
  end

let evict_where s pred =
  let n = Table.nrows s.table in
  apply_evict s (Array.init n (fun i -> not (pred i)))

let evict_prefix s k =
  let n = Table.nrows s.table in
  let k = max 0 (min k n) in
  apply_evict s (Array.init n (fun i -> i >= k))

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type key_stats = {
  partition_by : string;
  order_by : string;
  parts : int;
  key_bytes : int;
  cur_reused : int;
  cur_extended : int;
  cur_rebuilt : int;
}

type stats = {
  s_epoch : int;
  s_rows : int;
  s_bytes : int;
  reused : int;
  extended : int;
  rebuilt : int;
  keys : key_stats list;
}

let stats s =
  let keys =
    Hashtbl.fold
      (fun (pb, order) (e : entry) acc ->
        let r = ref 0 and x = ref 0 and b = ref 0 in
        Array.iter
          (fun p ->
            match p.status with
            | Reused -> incr r
            | Extended _ -> incr x
            | Rebuilt -> incr b)
          e.parts;
        {
          partition_by = String.concat ", " (List.map Expr.to_string pb);
          order_by = Sort_spec.to_string order;
          parts = Array.length e.parts;
          key_bytes = entry_bytes e;
          cur_reused = !r;
          cur_extended = !x;
          cur_rebuilt = !b;
        }
        :: acc)
      s.entries []
  in
  let keys =
    List.sort
      (fun a b ->
        match String.compare a.partition_by b.partition_by with
        | 0 -> String.compare a.order_by b.order_by
        | c -> c)
      keys
  in
  {
    s_epoch = s.epoch;
    s_rows = Table.nrows s.table;
    s_bytes = footprint_bytes s;
    reused = s.tally_reused;
    extended = s.tally_extended;
    rebuilt = s.tally_rebuilt;
    keys;
  }

let render_stats st =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "session epoch=%d rows=%d keys=%d footprint=%s\n" st.s_epoch st.s_rows
       (List.length st.keys) (Obs.human_bytes st.s_bytes));
  Buffer.add_string b
    (Printf.sprintf "partitions since creation: reused=%d extended=%d rebuilt=%d\n" st.reused
       st.extended st.rebuilt);
  List.iter
    (fun k ->
      let key =
        (if k.partition_by = "" then "" else "PARTITION BY " ^ k.partition_by ^ " ")
        ^ "ORDER BY " ^ k.order_by
      in
      let line = "  " ^ key in
      let pad = max 1 (48 - String.length line) in
      Buffer.add_string b
        (Printf.sprintf "%s%s parts=%-5d %10s  [reused=%d extended=%d rebuilt=%d]\n" line
           (String.make pad ' ') k.parts
           (Obs.human_bytes k.key_bytes)
           k.cur_reused k.cur_extended k.cur_rebuilt))
    st.keys;
  Buffer.contents b
