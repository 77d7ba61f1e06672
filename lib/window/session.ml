open Holistic_storage
module Bitset = Holistic_util.Bitset
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Multiway = Holistic_sort.Multiway
module Parallel_sort = Holistic_sort.Parallel_sort
module Rank_encode = Holistic_core.Rank_encode

(* ------------------------------------------------------------------ *)
(* Partition keys and full sorts (shared with Window_plan)             *)
(* ------------------------------------------------------------------ *)

(* These live here — below the plan — because the session's mutation
   paths must reproduce the plan's sorts and partition keys bit for bit:
   a maintained permutation is only valid if it equals what [full_sort]
   would have produced from scratch. *)

(* Integer partition keys from the PARTITION BY expressions: a strictly
   monotone image of the key tuple under one fixed total order, so two
   rows get equal keys iff every expression agrees, and the keys of any
   subset or superset of the rows keep their relative order. Per-column
   keys are {!Column.distinct_ids} (raw values for int-like columns);
   an expression key is ranked over its distinct values under
   [Stdlib.compare], which groups as SQL partitioning does (NULLs
   together, every NaN together, [-0. = +0.]) and keeps [Int 1] apart
   from [Float 1.]. Multi-column keys pack dense ranks of each side, so
   the combine is pure integer arithmetic; the expression phase
   parallelises over the pool. *)
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
            Column.ranks Stdlib.compare vals
      in
      let ids =
        match List.map key_of_expr exprs with
        | [] -> assert false
        | [ k ] -> k
        | k :: rest ->
            (* pack pairwise, lexicographically: dense ranks are < n, so
               [a * n + b] is collision-free and stays well inside 63-bit
               range *)
            List.fold_left
              (fun acc k ->
                let a = Column.ranks Int.compare acc and b = Column.ranks Int.compare k in
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

type sort_path = Codes | Encoded | Comparator

let sort_path_name = function Codes -> "codes" | Encoded -> "encoded" | Comparator -> "comparator"

type sorted = {
  perm : int array;
  boundaries : int array;
  path : sort_path;
  spill : (int * int) option;
}

(* A sort through key words: partition ids are the leading component of
   word 0 ([pid_divisor]), ORDER BY keys the remaining words, and the
   parallel run-sort/OVC-merge machinery does the rest. With [span], the
   one word is a coded column's slots (Key_codec.code_slots) and the
   in-memory sort is a stable counting sort over them: no merge, and its
   permutation and bucket starts fit the in-memory model's transients. A
   sort counts as comparator-path only when the codec produced no words at
   all (nothing but closure comparisons) — the regression the stats guard
   against. A spilled sort reports its [(runs, bytes)] in [spill]. *)
let sort_words ?gov ?span ?pid_divisor pool ~n ~words ?tie () =
  let nwords = Array.length words in
  let path = if nwords = 0 && tie <> None then Comparator else Encoded in
  let in_memory () =
    match span with
    | Some span ->
        { perm = Multiway.sort_slots words.(0) ~span; boundaries = [| 0; n |]; path = Codes; spill = None }
    | None ->
        let perm, key0 = Parallel_sort.sort_encoded pool ~n ~words ?tie () in
        let boundaries =
          match pid_divisor with
          | None -> [| 0; n |]
          | Some divisor -> boundaries_of_key0 ~key0 ~divisor n
        in
        { perm; boundaries; path; spill = None }
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
      let multi_run = span = None && Task_pool.size pool > 1 && n > Task_pool.default_task_size in
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
            match pid_divisor with
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
              match pid_divisor with
              | None -> [| 0; n |]
              | Some _ -> Array.of_list (0 :: List.rev (n :: !interior))
          in
          { perm; boundaries; path; spill = Some (runs, bytes) })

(* A one-key order over an unpartitioned table whose column holds order
   codes sorts their slots, by counting in memory. Every other order is
   compiled into key words, and when that sorted all of an unpartitioned
   table by one uncoded column, the column keeps the ranks as its order
   codes: one O(n) pass, no sort. *)
let sort ?gov pool table ~pids ~order =
  let n = Table.nrows table in
  match if pids = None then Key_codec.code_slots table order else None with
  | Some (slots, span) -> sort_words ?gov ~span pool ~n ~words:[| slots |] ()
  | None ->
      let kc = Key_codec.compile ?pids table order in
      let words = kc.Key_codec.words and tie = kc.Key_codec.residual in
      let sorted = sort_words ?gov ?pid_divisor:kc.Key_codec.pid_divisor pool ~n ~words ?tie () in
      if pids = None then
        Key_codec.offer_codes table order (fun () ->
            (Rank_encode.of_sorted ~pool ~words ?tie sorted.perm).rank_codes);
      sorted

let full_sort ?gov pool table ~pids ~order =
  let s = sort ?gov pool table ~pids ~order in
  (s.perm, s.boundaries, s.path)

(* ------------------------------------------------------------------ *)
(* The persistent structure store                                      *)
(* ------------------------------------------------------------------ *)

type status = Reused | Extended | Rebuilt

type okey = Window_spec.t * Window_func.func * Expr.t option

type part = {
  cache : Build_cache.t;
  outputs : (okey * Window_func.backend option, Value.t array) Hashtbl.t;
  mutable status : status;
}

type stored = {
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
  entries : (Expr.t list * Sort_spec.t, stored) Hashtbl.t;
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

(* Gauges are process-wide and last-registration-wins, so only the owner
   of the process's one session (the CLI) calls this; [create] never
   does. *)
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

let create ~pool table =
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
      Some { e with prov }

let stages s = Hashtbl.fold (fun (pb, order) e acc -> (pb, order, e.perm, e.boundaries) :: acc) s.entries []

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

(* One partition of the appended table: an old partition [old] with the
   delta rows of its label (none when the append left it alone), or the
   delta rows of a label the delta brings in. Delta rows are listed in
   ascending row id. *)
type slice = { old : int; (* -1: a new label *) delta : int array }

(* The slices of the appended table. Partition labels are a monotone
   image of the key ({!partition_ids}), so the old partitions' refreshed
   labels still ascend, and within a partition the old order always
   holds, since it never reads a label. O(partitions + delta). *)
let plan_slices ~pids ~old_perm ~old_b ~n_old ~n =
  let label row = match pids with None -> 0 | Some ids -> ids.(row) in
  (* an empty table stores one empty slice: nothing to keep *)
  let olds =
    Array.of_list
      (List.filter (fun p -> old_b.(p + 1) > old_b.(p)) (List.init (Array.length old_b - 1) Fun.id))
  in
  let labels = Array.map (fun p -> label old_perm.(old_b.(p))) olds in
  let nold = Array.length olds in
  for i = 1 to nold - 1 do
    assert (labels.(i - 1) < labels.(i))
  done;
  let groups = Hashtbl.create 16 in
  for row = n - 1 downto n_old do
    let l = label row in
    Hashtbl.replace groups l (row :: Option.value ~default:[] (Hashtbl.find_opt groups l))
  done;
  let delta l = match Hashtbl.find_opt groups l with Some rows -> Array.of_list rows | None -> [||] in
  let is_old l =
    let i = Holistic_util.Binary_search.lower_bound labels ~lo:0 ~hi:nold l in
    i < nold && labels.(i) = l
  in
  let fresh =
    List.sort Int.compare (Hashtbl.fold (fun l _ acc -> if is_old l then acc else l :: acc) groups [])
  in
  let slices = ref [] in
  let rec go i fresh =
    match fresh with
    | l :: rest when i = nold || l < labels.(i) ->
        slices := { old = -1; delta = delta l } :: !slices;
        go i rest
    | _ when i < nold ->
        slices := { old = olds.(i); delta = delta labels.(i) } :: !slices;
        go (i + 1) fresh
    | _ -> ()
  in
  go 0 fresh;
  Array.of_list (List.rev !slices)

(* A touched slice's rows keyed for the splice: [mw] views compile
   positions [0, m) of [rows] (table row ids), of which [\[0, split)] are
   already in order and [\[split, m)] are the delta rows still to sort.
   Positions order like their table rows: the old rows come first in
   their sorted order, the delta rows after them in ascending row id, so
   a tie on every key falls to the smaller row id either way. *)
type keyed = { rows : int array; mw : Multiway.multiword; split : int }

type fill =
  | Copy of int  (** an untouched old partition, blitted *)
  | After of int * keyed
      (** every delta row sorts after the old partition's last row,
          which is [rows.(0)] *)
  | Merge of keyed  (** old rows, if any, interleaved with the delta *)

let keyed table order rows ~split =
  let kc = Key_codec.compile ~rows table order in
  let mw =
    Multiway.of_words ~words:kc.Key_codec.words ?tie:kc.Key_codec.residual
      (Array.init (Array.length rows) Fun.id)
  in
  { rows; mw; split }

(* Key only the touched slices: the last old row and the delta, and only
   when a delta row sorts before that row, the whole old partition. *)
let key_slices table order ~old_perm ~old_b slices =
  let keyed_rows = ref 0 in
  let key rows ~split =
    keyed_rows := !keyed_rows + Array.length rows;
    keyed table order rows ~split
  in
  let fills =
    Array.map
      (fun { old; delta } ->
        if old < 0 then Merge (key delta ~split:0)
        else if Array.length delta = 0 then Copy old
        else begin
          let lo = old_b.(old) and hi = old_b.(old + 1) in
          let k = key (Array.append [| old_perm.(hi - 1) |] delta) ~split:1 in
          let cmp = Multiway.compare_positions k.mw in
          let after = ref true in
          for j = 1 to Array.length k.rows - 1 do
            if cmp 0 j > 0 then after := false
          done;
          if !after then After (old, k)
          else Merge (key (Array.append (Array.sub old_perm lo (hi - lo)) delta) ~split:(hi - lo))
        end)
      slices
  in
  (fills, !keyed_rows)

(* Sort each keyed delta with the one segment sort, merge it with the old
   rows through the one loser tree where they interleave, and copy every
   untouched partition at its shifted offset. *)
let splice ~old_perm ~old_b ~boundaries ~n fills =
  let perm = Array.make n 0 in
  (* a typed loop: [Array.blit] into a major-heap array goes through the
     write barrier per element, ints or not *)
  let copy_old op ~at =
    let lo = old_b.(op) in
    for i = 0 to old_b.(op + 1) - lo - 1 do
      Array.unsafe_set perm (at + i) (Array.unsafe_get old_perm (lo + i))
    done
  in
  (* sorted compile positions [from ..] of a keyed slice, as table rows *)
  let emit rows payload ~from ~at =
    for i = from to Array.length rows - 1 do
      perm.(at + i - from) <- rows.(payload.(i))
    done
  in
  Array.iteri
    (fun p fill ->
      let at = boundaries.(p) in
      match fill with
      | Copy op -> copy_old op ~at
      | After (op, k) ->
          copy_old op ~at;
          let len = old_b.(op + 1) - old_b.(op) in
          Multiway.sort_range k.mw ~lo:1 ~hi:(Array.length k.rows);
          emit k.rows k.mw.Multiway.payload ~from:1 ~at:(at + len)
      | Merge { rows; mw; split = 0 } ->
          Multiway.sort_range mw ~lo:0 ~hi:(Array.length rows);
          emit rows mw.Multiway.payload ~from:0 ~at
      | Merge { rows; mw; split } ->
          let payload, _ = Parallel_sort.merge_appended mw ~n_old:split in
          emit rows payload ~from:0 ~at)
    fills;
  perm

(* Maintain one stage order under an append, at the cost of what the delta
   touches: group the delta by partition label, key only the touched
   partitions' rows ({!key_slices}), splice the sorted delta in and blit
   every other partition. Every step follows the full sort's strict total
   order — partition label, key words, residual, ascending row id — so
   the permutation and boundaries are bit-identical to sorting the
   appended table from scratch. The classification falls out of the
   splice: a copied partition is reused, one extended in order keeps its
   caches (marked stale for incremental maintenance) and its cached
   outputs, which answer the slice's first rows the extension did not
   move; an interleaved or new partition is rebuilt. *)
let maintain_append s entry ~pids ~order ~n_old ~n =
  let table = s.table and old_perm = entry.perm and old_b = entry.boundaries in
  let span name ?(args = fun () -> []) f = Obs.span ("session." ^ name) ~args f in
  let slices, boundaries =
    span "boundaries" (fun () ->
        let slices = plan_slices ~pids ~old_perm ~old_b ~n_old ~n in
        let boundaries = Array.make (Array.length slices + 1) 0 in
        Array.iteri
          (fun p { old; delta } ->
            let len = if old < 0 then 0 else old_b.(old + 1) - old_b.(old) in
            boundaries.(p + 1) <- boundaries.(p) + len + Array.length delta)
          slices;
        (slices, boundaries))
  in
  let keyed_rows = ref 0 in
  let fills =
    span "compile"
      ~args:(fun () -> [ ("keyed_rows", string_of_int !keyed_rows) ])
      (fun () ->
        let fills, k = key_slices table order ~old_perm ~old_b slices in
        keyed_rows := k;
        fills)
  in
  entry.perm <- span "splice" (fun () -> splice ~old_perm ~old_b ~boundaries ~n fills);
  entry.boundaries <- boundaries;
  entry.parts <-
    span "classify" (fun () ->
        Array.map
          (function
            | Copy op ->
                s.tally_reused <- s.tally_reused + 1;
                entry.parts.(op)
            | After (op, _) ->
                let part = entry.parts.(op) in
                Build_cache.advance part.cache;
                part.status <- Extended;
                s.tally_extended <- s.tally_extended + 1;
                part
            | Merge _ ->
                s.tally_rebuilt <- s.tally_rebuilt + 1;
                fresh_part s.counters Rebuilt)
          fills);
  entry.prov <- Printf.sprintf "maintained(+%d rows)" (n - n_old)

(* Recompute every cached partition-id array on the mutated table
   (entries share them). *)
let refresh_pids s =
  let pbs = Hashtbl.fold (fun pb _ acc -> pb :: acc) s.pids [] in
  List.iter (fun pb -> Hashtbl.replace s.pids pb (partition_ids s.pool s.table pb)) pbs

let append_rows s delta =
  let n_old = Table.nrows s.table in
  let dn = Table.nrows delta in
  if dn > 0 then begin
    let n = n_old + dn in
    (* only the delta's rows are written while the session's table owns
       its columns' room ({!Table.append}) *)
    s.table <- Table.append s.table delta;
    s.epoch <- s.epoch + 1;
    Obs.span "session.append"
      ~args:(fun () -> [ ("rows", string_of_int dn); ("total", string_of_int n) ])
      (fun () ->
        Obs.span "session.pids" (fun () -> refresh_pids s);
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
   relative id order), and the refreshed partition labels keep the
   survivors' relative order, so the filtered permutation is exactly what
   a full sort of the evicted table would produce.  Partitions keep their
   relative order, so the new boundaries are survivor-count prefix sums;
   a partition that lost no rows keeps its caches and outputs (structures
   index slice positions and row values, both unchanged), one that lost
   any row is rebuilt.  Each stored order is walked once, partition by
   partition: the loop that writes a partition's renumbered survivors
   also counts them. *)
let evict s gone =
  let n_old = Table.nrows s.table in
  if Bitset.length gone <> n_old then invalid_arg "Session.evict: mask length mismatch";
  let kept = n_old - Bitset.count gone in
  if kept < n_old then begin
    (* [rn.(row)] is a survivor's new row id, -1 for an evicted row *)
    let rn = Array.make n_old (-1) in
    let kept_rows = Array.make kept 0 in
    let j = ref 0 in
    for i = 0 to n_old - 1 do
      if not (Bitset.unsafe_get gone i) then begin
        rn.(i) <- !j;
        kept_rows.(!j) <- i;
        incr j
      end
    done;
    (* with room, so the next append writes only its delta *)
    s.table <- Table.gather ~room:true s.table kept_rows;
    s.epoch <- s.epoch + 1;
    Obs.span "session.evict"
      ~args:(fun () ->
        [ ("rows", string_of_int (n_old - kept)); ("total", string_of_int kept) ])
      (fun () ->
        refresh_pids s;
        Hashtbl.iter
          (fun _ entry ->
            let old_perm = entry.perm and old_b = entry.boundaries in
            let old_nparts = Array.length old_b - 1 in
            let perm = Array.make kept 0 in
            let boundaries = Array.make (max 1 old_nparts + 1) 0 in
            let parts = Array.make (max 1 old_nparts) (fresh_part s.counters Rebuilt) in
            let k = ref 0 and idx = ref 0 in
            for p = 0 to old_nparts - 1 do
              let off = !k in
              for q = old_b.(p) to old_b.(p + 1) - 1 do
                let r = rn.(old_perm.(q)) in
                if r >= 0 then begin
                  perm.(!k) <- r;
                  incr k
                end
              done;
              if !k > off then begin
                boundaries.(!idx) <- off;
                parts.(!idx) <-
                  (if !k - off = old_b.(p + 1) - old_b.(p) then begin
                     s.tally_reused <- s.tally_reused + 1;
                     entry.parts.(p)
                   end
                   else begin
                     s.tally_rebuilt <- s.tally_rebuilt + 1;
                     fresh_part s.counters Rebuilt
                   end);
                incr idx
              end
            done;
            (* an emptied table keeps one empty slice, as a full sort does *)
            let nparts = max 1 !idx in
            boundaries.(nparts) <- kept;
            entry.perm <- perm;
            entry.boundaries <- Array.sub boundaries 0 (nparts + 1);
            entry.parts <- Array.sub parts 0 nparts;
            entry.prov <- Printf.sprintf "maintained(-%d rows)" (n_old - kept))
          s.entries)
  end

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
      (fun (pb, order) (e : stored) acc ->
        let r = ref 0 and x = ref 0 and b = ref 0 in
        Array.iter
          (fun p ->
            match p.status with
            | Reused -> incr r
            | Extended -> incr x
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
