(* The repository benchmark.  One closed-loop caller issues statements back
   to back through [Holistic_sql.Sql] on a pool of min(nproc, 4) domains
   (the caller is one of them), checks every result against a fingerprint
   computed outside the timed region, and prints every metric by name and
   unit; the last stdout line is one JSON object.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--scale full|tiny] [--spill-dir D] [--trace-dir D]
                   [--corrupt-oracle]

   [--trace 0] runs untraced and reports the end-to-end metrics, wall
   times scaled to a reference host speed (see calib.ml; the raw figures
   are printed too).  On the read-only workloads the expected
   fingerprints (and spill_capped's budgets) come from a child process,
   this executable with [--oracle-out FILE], so that work stays out of the
   measured process's heap and peak RSS.
   [--trace 1] runs one pass of the same statements with per-layer timing:
   the engine's counters are read through [Obs.with_capture] around each
   statement and every layer's public function is replayed and timed from
   here (see replay.ml); a Chrome trace of the replay spans is written to
   [--trace-dir].  [--scale tiny] shrinks every input for the self-test;
   [--corrupt-oracle] perturbs one expected fingerprint so the self-test
   can see failures counted. *)

open Holistic_storage
module Sql = Holistic_sql.Sql
module Parser = Holistic_sql.Parser
module Planner = Holistic_sql.Planner
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Rng = Holistic_util.Rng
module Mg = Holistic_window.Mem_governor
module Session = Holistic_window.Session
module Build_cache = Holistic_window.Build_cache
module Window_plan = Holistic_window.Window_plan
module Ec = Holistic_window.Evaluator_choice

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type sizes = {
  paper_rows : int;
  mix_rows : int;
  mix_parts : int;
  churn_rows : int;
  churn_parts : int;
  min_passes : int;
      (** passes over a read-only pool (rounds of 50 churn steps): at least
          100 statements, so p90 has ten samples beyond it *)
  slice_rows : int;  (** rows of the naive oracle's slice *)
  budget_share : float;  (** spill_capped's budget, as a share of the in-memory peak *)
}

(* paper_frames keeps more than 65535 rows in its one partition, so its
   trees take the 32-bit width; partitioned_mix keeps ~600-row partitions
   (the 16-bit regime).  Both are sized so that 100 statements fit a run. *)
let full =
  {
    paper_rows = 66_000;
    mix_rows = 36_000;
    mix_parts = 60;
    churn_rows = 50_000;
    churn_parts = 85;
    min_passes = 5;
    slice_rows = 2_000;
    budget_share = 0.25;
  }

let tiny =
  {
    paper_rows = 3_000;
    mix_rows = 2_400;
    mix_parts = 4;
    churn_rows = 2_000;
    churn_parts = 4;
    min_passes = 1;
    slice_rows = 400;
    (* below one task's rows the sort keeps no merge scratch, so a quarter
       of the peak cannot hold the key words themselves *)
    budget_share = 0.75;
  }

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  sizes : sizes;
  spill_dir : string;
  trace_dir : string option;
  corrupt : bool;
  oracle_out : string option;  (** run as the oracle process, writing here *)
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload paper_frames|partitioned_mix|session_churn|spill_capped --seed N \
     --seconds S --trace 0|1 [--scale full|tiny] [--spill-dir D] [--trace-dir D] [--corrupt-oracle]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let sizes = ref full and spill_dir = ref Filename.current_dir_name and trace_dir = ref None in
  let corrupt = ref false and oracle_out = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; go r
    | "--seconds" :: v :: r -> seconds := float_of_string_opt v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := Some (v = "1"); go r
    | "--scale" :: "full" :: r -> sizes := full; go r
    | "--scale" :: "tiny" :: r -> sizes := tiny; go r
    | "--spill-dir" :: v :: r -> spill_dir := v; go r
    | "--trace-dir" :: v :: r -> trace_dir := Some v; go r
    | "--corrupt-oracle" :: r -> corrupt := true; go r
    | "--oracle-out" :: v :: r -> oracle_out := Some v; go r
    | a :: _ -> prerr_endline ("perfbench: unexpected argument " ^ a); usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload [ "paper_frames"; "partitioned_mix"; "session_churn"; "spill_capped" ] ->
      {
        workload = !workload;
        seed;
        seconds;
        trace;
        sizes = !sizes;
        spill_dir = !spill_dir;
        trace_dir = !trace_dir;
        corrupt = !corrupt;
        oracle_out = !oracle_out;
      }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let time_ns f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (r, Obs.now_ns () - t0)

let ms ns = float_of_int ns /. 1e6
let ratio a b = a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* A per-row or per-byte figure of a layer that may do no work at all on a
   workload (spilling outside spill_capped, a function class a workload
   does not use): 0 by definition there.  Every other ratio with a zero
   denominator is a broken metric and stays NaN, printed as null. *)
let iratio0 a b = if b = 0 then 0.0 else iratio a b

(* Nearest-rank quantile; NaN without samples. *)
let quantile q samples =
  match List.sort compare samples with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let k = int_of_float (Float.ceil (q *. float_of_int (Array.length a))) - 1 in
      a.(max 0 (min (Array.length a - 1) k))

let median l = quantile 0.5 l

let vm_hwm_bytes () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> kb * 1024)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks_ok : bool;  (** naive-oracle slices and replay parity *)
  mutable factor : float;  (** calibration of the current statement (see calib.ml) *)
  mutable factors : float list;
  mutable query_ms : (float * float) list;  (** (raw, calibrated) *)
  mutable append_ms : (float * float) list;
  mutable evict_ms : (float * float) list;
  mutable read_s : float * float;
  mutable read_rows : int;
}

let new_run () =
  {
    attempted = 0;
    failed = 0;
    checks_ok = true;
    factor = Float.nan;
    factors = [];
    query_ms = [];
    append_ms = [];
    evict_ms = [];
    read_s = (0.0, 0.0);
    read_rows = 0;
  }

(* Samples a calibration factor for the statement (or churn step) that
   follows; its samples are scaled by it. *)
let calibrate r =
  r.factor <- Calib.factor ();
  r.factors <- r.factor :: r.factors

let sample r ns = (ms ns, ms ns *. r.factor)

(* One attempted statement or mutation: an exception or a failed check
   counts it as failed; otherwise [ok] gets its result. *)
let attempt r what f ok =
  r.attempted <- r.attempted + 1;
  match f () with
  | exception e ->
      r.failed <- r.failed + 1;
      Printf.eprintf "perfbench: %s raised %s\n%!" what (Printexc.to_string e);
      None
  | v ->
      if ok v then Some v
      else begin
        r.failed <- r.failed + 1;
        Printf.eprintf "perfbench: %s produced a wrong result\n%!" what;
        None
      end

(* ------------------------------------------------------------------ *)
(* Per-layer collection (trace runs)                                   *)
(* ------------------------------------------------------------------ *)

type layers = {
  acc : Replay.acc;
  mutable parse_ns : int;
  mutable parse_n : int;
  mutable planner_ns : int;
  mutable planner_n : int;
  mutable untraced_ns : int;  (** parse + Planner.run, untraced *)
  mutable traced_ns : int;  (** the same statements through Sql.query, traced *)
  mutable traced_n : int;
  mutable replayed_ns : int;  (** layer time of the replayed statements *)
  mutable replayed_stmt_ns : int;  (** their untraced statement time *)
  mutable gc_minor : float;
  mutable gc_promoted : float;
  mutable gc_majors : int;
  mutable gc_rows : int;
  counters : (string, int) Hashtbl.t;  (** engine counters, summed over captures *)
  mutable stats : Window_plan.stats list;
  mutable peak_share : float;
  mutable append_ns : int;
  mutable append_rows : int;
  mutable evict_ns : int;
  mutable evict_n : int;
  mutable maintained : int;
  mutable rebuilt : int;
  mutable reused_share : float;
  mutable bytes_per_row : float;
  mutable spans : Obs.span list;
  mutable dropped : int;
}

let new_layers () =
  {
    acc = Replay.create ();
    parse_ns = 0;
    parse_n = 0;
    planner_ns = 0;
    planner_n = 0;
    untraced_ns = 0;
    traced_ns = 0;
    traced_n = 0;
    replayed_ns = 0;
    replayed_stmt_ns = 0;
    gc_minor = 0.0;
    gc_promoted = 0.0;
    gc_majors = 0;
    gc_rows = 0;
    counters = Hashtbl.create 64;
    stats = [];
    peak_share = 0.0;
    append_ns = 0;
    append_rows = 0;
    evict_ns = 0;
    evict_n = 0;
    maintained = 0;
    rebuilt = 0;
    reused_share = 0.0;
    bytes_per_row = 0.0;
    spans = [];
    dropped = 0;
  }

let counter l name = Option.value ~default:0 (Hashtbl.find_opt l.counters name)

(* Parse time per statement, averaged over enough repetitions to resolve
   a few microseconds. *)
let time_parse l sql =
  let reps = 20 in
  let (), ns =
    time_ns (fun () ->
        for _ = 1 to reps do
          ignore (Parser.parse sql)
        done)
  in
  l.parse_ns <- l.parse_ns + (ns / reps);
  l.parse_n <- l.parse_n + 1;
  ns / reps

(* [Planner.run_with_stats] untraced, with GC deltas around the call. *)
let planner_run l ~rows f =
  let g0 = Gc.quick_stat () in
  let ((_, stats) as r), ns = time_ns f in
  let g1 = Gc.quick_stat () in
  l.gc_minor <- l.gc_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  l.gc_promoted <- l.gc_promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  l.gc_majors <- l.gc_majors + (g1.Gc.major_collections - g0.Gc.major_collections);
  l.gc_rows <- l.gc_rows + rows;
  Option.iter (fun s -> l.stats <- s :: l.stats) stats;
  (r, ns)

(* [Planner.run] minus [Window_plan.run] on the statement's clause twin:
   lowering, WHERE, projection and the final ORDER BY.  The difference of
   two similar wall times, so each side is the best of two runs. *)
let planner_overhead l ~first ~plan ~twin =
  let _, w1 = time_ns twin in
  let _, p2 = time_ns plan in
  let _, w2 = time_ns twin in
  let d = min first p2 - min w1 w2 in
  l.planner_ns <- l.planner_ns + d;
  l.planner_n <- l.planner_n + 1;
  d

(* A traced [Sql.query]: the engine's counters, the backend each item was
   routed to (the [evaluator] arg of its item spans) and the (ns, rows) of
   its partial re-sorts (its [sort kind=partial] spans). *)
let traced_query l f =
  let (res, ns), tr = Obs.with_capture (fun () -> time_ns f) in
  l.traced_ns <- l.traced_ns + ns;
  l.traced_n <- l.traced_n + 1;
  List.iter
    (fun (k, v) -> Hashtbl.replace l.counters k (v + Option.value ~default:0 (Hashtbl.find_opt l.counters k)))
    tr.Obs.counters;
  let picks =
    List.filter_map
      (fun (s : Obs.span) ->
        if s.Obs.name = "item" then
          match (List.assoc_opt "name" s.Obs.args, List.assoc_opt "evaluator" s.Obs.args) with
          | Some n, Some e -> Some (n, e)
          | _ -> None
        else None)
      tr.Obs.spans
  in
  let partial =
    List.fold_left
      (fun (ns, rows) (s : Obs.span) ->
        if s.Obs.name = "sort" && List.assoc_opt "kind" s.Obs.args = Some "partial" then
          (ns + s.Obs.dur_ns, rows + int_of_string (List.assoc "rows" s.Obs.args))
        else (ns, rows))
      (0, 0) tr.Obs.spans
  in
  (res, ns, picks, partial)

let replay l ~pool ?spill ~picks ~partial ~label table (stmt : Gen.stmt) =
  let outputs, tr =
    Obs.with_capture (fun () ->
        Obs.span "replay" ~args:(fun () -> [ ("stmt", label) ]) (fun () ->
            Replay.run l.acc ~pool ?spill ~picks ~partial table stmt.Gen.clauses))
  in
  Replay.attribute_encodes l.acc tr.Obs.spans;
  l.spans <- l.spans @ tr.Obs.spans;
  l.dropped <- l.dropped + tr.Obs.dropped;
  let with_cols =
    List.fold_left (fun t (nm, vals) -> Table.add_column t nm (Column.of_values vals)) table outputs
  in
  Oracle.fingerprint (Oracle.finish with_cols stmt)

let session_totals l s =
  let st = Session.stats s in
  l.reused_share <- iratio0 st.Session.reused (st.Session.reused + st.Session.extended + st.Session.rebuilt);
  l.bytes_per_row <- iratio st.Session.s_bytes (max 1 st.Session.s_rows)

let layer_metrics ~domains l r =
  let a = l.acc in
  let sum_stats f = List.fold_left (fun s st -> s + f st) 0 l.stats in
  let cls_rows = List.fold_left (fun s (_, c) -> s + c.Replay.rows) 0 a.Replay.per_class in
  let cls_build = List.fold_left (fun s (_, c) -> s + c.Replay.build_ns) 0 a.Replay.per_class in
  let cls_probe = List.fold_left (fun s (_, c) -> s + c.Replay.probe_ns) 0 a.Replay.per_class in
  let c = counter l in
  let f = float_of_int in
  [
    ("parser.us_per_stmt", "us", ratio (f l.parse_ns) (f l.parse_n) /. 1e3);
    ("planner.ms_per_stmt", "ms", ratio (f l.planner_ns) (f l.planner_n) /. 1e6);
    ("partition.ns_per_row", "ns", iratio a.Replay.partition_ns a.Replay.partition_rows);
    ("key_codec.ns_per_row", "ns", iratio a.Replay.codec_ns a.Replay.codec_rows);
    ("key_codec.words", "words", iratio a.Replay.codec_words a.Replay.codec_keys);
    ("key_codec.residual_sorts", "count", f a.Replay.residual_sorts);
    ("sort.ns_per_row", "ns", iratio a.Replay.sort_ns a.Replay.sort_rows);
    ("sort.ovc_decided_ratio", "ratio", iratio0 (c "sort.ovc_decided") (c "sort.ovc_decided" + c "sort.ovc_scanned"));
    ("plan.full_sorts", "count", f (sum_stats (fun s -> s.Window_plan.full_sorts)));
    ("plan.partial_sorts", "count", f (sum_stats (fun s -> s.Window_plan.partial_sorts)));
    ("plan.reused_sorts", "count", f (sum_stats (fun s -> s.Window_plan.reused_sorts)));
    ("plan.session_sorts", "count", f (sum_stats (fun s -> s.Window_plan.session_sorts)));
    ("frame.ns_per_row", "ns", iratio a.Replay.frame_ns a.Replay.frame_rows);
    ("rank_encode.ns_per_row", "ns", iratio0 a.Replay.encode_ns a.Replay.encode_rows);
    ("plan.encode_builds", "count", f (sum_stats (fun s -> s.Window_plan.encode_builds)));
    ("build.ns_per_row", "ns", iratio cls_build cls_rows);
    ("probe.ns_per_row", "ns", iratio cls_probe cls_rows);
  ]
  @ List.concat_map
      (fun (name, k) ->
        [
          ("build.ns_per_row." ^ name, "ns", iratio0 k.Replay.build_ns k.Replay.rows);
          ("probe.ns_per_row." ^ name, "ns", iratio0 k.Replay.probe_ns k.Replay.rows);
        ])
      a.Replay.per_class
  @ [
      ("build.structure_bytes_per_row", "B", iratio (c "mem.structure_bytes") l.gc_rows);
      ("plan.tree_builds", "count", f (sum_stats (fun s -> s.Window_plan.tree_builds)));
      ("cache.hit_ratio", "ratio", iratio (c "cache.hit") (c "cache.hit" + c "cache.miss"));
    ]
  @ List.map
      (fun nm ->
        let s = Ec.to_string nm in
        ("cost_model.picks." ^ s, "count", f (c ("plan.evaluator." ^ s))))
      Ec.all
  @ [
      ("pool.busy_share", "ratio", ratio (f (c "pool.busy_ns")) (f domains *. f l.traced_ns));
      ("pool.queue_wait_ms", "ms", ratio (ms (c "pool.queue_wait_ns")) (f l.traced_n));
      ("pool.tasks", "count", f (c "pool.tasks"));
      ("session.append_ns_per_row", "ns", iratio l.append_ns l.append_rows);
      ("session.evict_ms", "ms", ratio (ms l.evict_ns) (f l.evict_n));
      ("session.maintained", "count", f l.maintained);
      ("session.rebuilt", "count", f l.rebuilt);
      ("session.reused_share", "ratio", l.reused_share);
      ("session.bytes_per_row", "B", l.bytes_per_row);
      ("spill.sort_ns_per_row", "ns", iratio0 a.Replay.spill_ns a.Replay.spill_rows);
      ("spill.bytes_per_input_byte", "ratio", iratio0 a.Replay.spill_bytes a.Replay.spill_input_bytes);
      ("spill.runs", "count", f a.Replay.spill_runs);
      ("governor.peak_share", "ratio", l.peak_share);
      ("gc.minor_words_per_row", "words", ratio l.gc_minor (f l.gc_rows));
      ("gc.promoted_words_per_row", "words", ratio l.gc_promoted (f l.gc_rows));
      ("gc.major_collections", "count", f l.gc_majors);
      ("trace.coverage", "ratio", iratio l.replayed_ns l.replayed_stmt_ns);
      ("trace.overhead", "ratio", iratio l.traced_ns l.untraced_ns);
      ("error_rate", "ratio", iratio r.failed r.attempted);
    ]

(* ------------------------------------------------------------------ *)
(* Read-only workloads: paper_frames, partitioned_mix, spill_capped    *)
(* ------------------------------------------------------------------ *)

(* Besides its statements, a read-only workload sends the session write
   path session_churn's cadence — 0.5% appends, and an eviction of the
   appended rows after every tenth — three appends per statement, on a
   session over its table that caches nothing.  That is the bare cost of a
   session mutation, against which session_churn's maintenance shows. *)
type ro = {
  stmts : Gen.stmt array;
  delta : int -> Table.t;
  evict_pred : string;
}

let with_column t name col =
  Table.create (List.map (fun (n, c) -> if n = name then (n, col) else (n, c)) (Table.columns t))

let shift_ints t name by =
  match Column.data (Table.column t name) with
  | Column.Ints a -> with_column t name (Column.ints (Array.map (fun v -> v + by) a))
  | _ -> assert false

let make_ro o =
  let sz = o.sizes in
  match o.workload with
  | "paper_frames" ->
      let gen () = Gen.lineitem ~seed:o.seed ~rows:sz.paper_rows in
      let norders = max 1 (sz.paper_rows / 4) in
      ( gen,
          {
            stmts = Array.of_list (Gen.paper_frames_stmts ~seed:o.seed ~rows:sz.paper_rows);
            delta =
              (fun i ->
                shift_ints (Gen.lineitem ~seed:(o.seed + 1 + i) ~rows:(max 1 (sz.paper_rows / 200))) "l_orderkey" norders);
            evict_pred = Printf.sprintf "l_orderkey > %d" norders;
          } )
  | _ ->
      let gen () = Gen.mix_table ~seed:o.seed ~rows:sz.mix_rows ~partitions:sz.mix_parts in
      ( gen,
          {
            stmts = Array.of_list (Gen.mix_stmts ());
            delta =
              (fun i ->
                shift_ints
                  (Gen.mix_table ~seed:(o.seed + 1 + i) ~rows:(max 1 (sz.mix_rows / 200)) ~partitions:sz.mix_parts)
                  "k" 100);
            evict_pred = "k >= 100";
          } )

(* Set-up is short and noisy, so it is repeated — at least five times and
   until 3 s have been spent, at most 100 times — and the median reported.
   Each repetition is scaled by a kernel sample on a fresh array taken
   right before it (see calib.ml), because a host phase can last just
   about as long as the whole set-up.  Only the last repetition's product is kept, and a full
   major collection before each one frees the others and the kernel's
   array, so the repetitions leave the heap (and peak_rss_bytes) as one
   set-up would.  Returns the product, the repetition count and the raw
   and calibrated medians. *)
let setup_times f =
  let last = ref None and times = ref [] and scaled = ref [] and spent = ref 0 in
  while List.length !times < 100 && (List.length !times < 5 || !spent < 3_000_000_000) do
    let k = Calib.fresh_factor () in
    last := None;
    Gc.full_major ();
    let v, ns = time_ns f in
    last := Some v;
    times := (float_of_int ns /. 1e9) :: !times;
    scaled := (float_of_int ns /. 1e9 *. k) :: !scaled;
    spent := !spent + ns
  done;
  (Option.get !last, (List.length !times, median !times, median !scaled))

(* Each statement's expected fingerprint and, on spill_capped, its budget: a
   quarter of the accounted peak a budget-less governor observes.  This is
   the benchmark's work, not the workload's, so it runs in a child process
   (this executable with [--oracle-out FILE]) and shares neither the
   workload's heap nor its peak RSS. *)
let write_oracle o ~pool ~pool1 path =
  let gen, w = make_ro o in
  let table = gen () in
  let oracle (s : Gen.stmt) =
    let fp = Oracle.fingerprint (Oracle.expected ~pool1 table s) in
    if o.workload <> "spill_capped" then (fp, 0)
    else
      let g = Mg.create ~dir:o.spill_dir () in
      Fun.protect ~finally:(fun () -> Mg.cleanup g) (fun () ->
          ignore (Sql.query ~pool ~governor:g ~tables:[ ("t", table) ] s.Gen.sql);
          (fp, int_of_float (float_of_int (Mg.peak g) *. o.sizes.budget_share)))
  in
  let lines = Array.map oracle w.stmts in
  Out_channel.with_open_text path (fun oc -> Array.iter (fun (fp, b) -> Printf.fprintf oc "%d %d\n" fp b) lines)

(* Runs the oracle process; call it before any domain is spawned. *)
let read_oracle o =
  let path = Filename.concat o.spill_dir (Printf.sprintf "oracle-%s-%d.txt" o.workload o.seed) in
  let argv = Array.append Sys.argv [| "--oracle-out"; path |] in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: the oracle process failed");
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  Array.of_list (List.map (fun l -> Scanf.sscanf l "%d %d" (fun fp b -> (fp, b))) lines)

let read_only o ~pool ~domains ~oracle r =
  let gen, w = make_ro o in
  let table, setup_s = setup_times gen in
  let capped = o.workload = "spill_capped" in
  let n = Table.nrows table in
  let expected = Array.map fst oracle and budgets = Array.map snd oracle in
  if capped then
    Printf.printf "spill budgets: median %d B per statement (%g of its accounted in-memory peak)\n"
      (int_of_float (median (Array.to_list (Array.map float_of_int budgets))))
      o.sizes.budget_share;
  if o.corrupt then expected.(0) <- expected.(0) + 1;
  (* The naive oracle costs more than the timed loop itself at full size,
     so it runs with the per-layer pass (and at every self-test size): each
     traced run checks every statement of its seed. *)
  if o.trace && not capped then
    Array.iter
      (fun (s : Gen.stmt) ->
        let ok =
          Oracle.reference_check ~seed:o.seed ~rows:o.sizes.slice_rows
            ~run:(fun slice -> Sql.query ~pool ~tables:[ ("t", slice) ] s.Gen.sql)
            table s
        in
        if not ok then begin
          r.checks_ok <- false;
          Printf.eprintf "perfbench: naive oracle disagrees on %s\n%!" s.Gen.sql
        end)
      w.stmts;
  let governor i = if capped then Some (Mg.create ~budget:budgets.(i) ~dir:o.spill_dir ()) else None in
  let within_budget i g = match g with Some g -> Mg.peak g <= budgets.(i) | None -> true in
  let side = Sql.session_create ~pool table in
  let step = ref 0 in
  let append_once l =
    let delta = w.delta !step in
    let rows = Table.nrows delta in
    (match attempt r "append" (fun () -> time_ns (fun () -> Sql.session_append side delta)) (fun _ -> true) with
    | Some ((), ns) ->
        r.append_ms <- sample r ns :: r.append_ms;
        Option.iter (fun l -> l.append_ns <- l.append_ns + ns; l.append_rows <- l.append_rows + rows) l
    | None -> ());
    if !step mod 10 = 9 then begin
      match attempt r "evict" (fun () -> time_ns (fun () -> Sql.session_evict side w.evict_pred)) (fun _ -> true) with
      | Some ((), ns) ->
          r.evict_ms <- sample r ns :: r.evict_ms;
          Option.iter (fun l -> l.evict_ns <- l.evict_ns + ns; l.evict_n <- l.evict_n + 1) l
      | None -> ()
    end;
    incr step
  in
  let write_probe l =
    for _ = 1 to 3 do
      append_once l
    done
  in
  let order_rng = Rng.create ((o.seed * 7_368_787) + 11) in
  let pass () =
    let idx = Array.init (Array.length w.stmts) (fun i -> i) in
    Gen.shuffle order_rng idx;
    idx
  in
  let tables = [ ("t", table) ] in
  if not o.trace then begin
    let t0 = Obs.now_ns () in
    let passes = ref 0 in
    while !passes < o.sizes.min_passes || ms (Obs.now_ns () - t0) < o.seconds *. 1e3 do
      incr passes;
      Array.iter
        (fun i ->
          let s = w.stmts.(i) in
          let g = governor i in
          calibrate r;
          (match
             attempt r "statement"
               (fun () -> time_ns (fun () -> Sql.query ~pool ?governor:g ~tables s.Gen.sql))
               (fun (res, _) -> Oracle.fingerprint res = expected.(i) && within_budget i g)
           with
          | Some (_, ns) ->
              r.query_ms <- sample r ns :: r.query_ms;
              r.read_s <- (fst r.read_s +. (float_of_int ns /. 1e9), snd r.read_s +. (float_of_int ns /. 1e9 *. r.factor));
              r.read_rows <- r.read_rows + n
          | None -> ());
          Option.iter Mg.cleanup g;
          write_probe None)
        (pass ())
    done;
    (setup_s, None)
  end
  else begin
    let l = new_layers () in
    Array.iteri
      (fun k i ->
        let s = w.stmts.(i) in
        let input = Oracle.filtered table s in
        let parse_ns = time_parse l s.Gen.sql in
        let ast = Parser.parse s.Gen.sql in
        let g = governor i in
        (match
           attempt r "statement"
             (fun () ->
               planner_run l ~rows:n (fun () -> Planner.run_with_stats ~pool ?governor:g ~tables ast))
             (fun ((res, _), _) -> Oracle.fingerprint res = expected.(i) && within_budget i g)
         with
        | Some (_, ns) ->
            let stmt_ns = parse_ns + ns in
            l.untraced_ns <- l.untraced_ns + stmt_ns;
            let governed f () =
              let g = governor i in
              Fun.protect ~finally:(fun () -> Option.iter Mg.cleanup g) (fun () -> ignore (f g))
            in
            let overhead =
              planner_overhead l ~first:ns
                ~plan:(governed (fun governor -> Planner.run ~pool ?governor ~tables ast))
                ~twin:(governed (fun governor -> Window_plan.run ~pool ?governor input s.Gen.clauses))
            in
            let gt = governor i in
            let res, _, picks, partial = traced_query l (fun () -> Sql.query ~pool ?governor:gt ~tables s.Gen.sql) in
            Option.iter
              (fun g ->
                l.peak_share <- Float.max l.peak_share (iratio (Mg.peak g) budgets.(i));
                Mg.cleanup g)
              gt;
            if Oracle.fingerprint res <> expected.(i) then r.checks_ok <- false;
            let before = Replay.covered_ns l.acc in
            let spill = if capped then Some (budgets.(i), o.spill_dir) else None in
            let fp = replay l ~pool ?spill ~picks ~partial ~label:(string_of_int k) input s in
            if fp <> expected.(i) then l.acc.Replay.parity_failures <- l.acc.Replay.parity_failures + 1;
            l.replayed_ns <- l.replayed_ns + (Replay.covered_ns l.acc - before) + parse_ns + max 0 overhead;
            l.replayed_stmt_ns <- l.replayed_stmt_ns + stmt_ns
        | None -> ());
        Option.iter Mg.cleanup g;
        write_probe (Some l))
      (pass ());
    session_totals l side;
    (setup_s, Some (layer_metrics ~domains l r, l))
  end

(* ------------------------------------------------------------------ *)
(* session_churn                                                       *)
(* ------------------------------------------------------------------ *)

type churn = {
  s : Session.t;
  mutable next_ts : int;
  mutable low_ts : int;
  mutable fresh : int;  (** next unused group id *)
  mutable hot : int array;
}

let live_groups table =
  match Column.data (Table.column table "grp") with
  | Column.Ints a -> List.sort_uniq compare (Array.to_list a)
  | _ -> assert false

let ints table name =
  match Column.data (Table.column table name) with Column.Ints a -> a | _ -> assert false

let churn_setup o ~pool =
  let sz = o.sizes in
  let table = Gen.series_table ~seed:o.seed ~rows:sz.churn_rows ~partitions:sz.churn_parts in
  let s = Sql.session_create ~pool table in
  Array.iter
    (fun (st : Gen.stmt) -> ignore (Sql.query ~pool ~session:s ~tables:[ ("t", Sql.session_table s) ] st.Gen.sql))
    Gen.session_stmts;
  { s; next_ts = 10 * sz.churn_rows; low_ts = 0; fresh = sz.churn_parts; hot = [||] }

(* The mutations of step [i]: deterministic in (seed, i) and the state the
   previous steps left.  Each round of 50 steps appends 50 deltas of 0.5%
   of the initial rows into two live and two fresh hot groups, evicts five
   whole groups and twice trims the oldest rows back to 95% of the initial
   size, so successive rounds see the same load. *)
type mutation = Append of Table.t | Evict of string

let churn_mutations o c i =
  let sz = o.sizes in
  let rng = Rng.create ((o.seed * 1_000_003) + i) in
  let table = Session.table c.s in
  if i mod 50 = 0 then begin
    let live = Array.of_list (live_groups table) in
    c.hot <- [| live.(Rng.int rng (Array.length live)); live.(Rng.int rng (Array.length live)); c.fresh; c.fresh + 1 |];
    c.fresh <- c.fresh + 2
  end;
  let rows = max 1 (sz.churn_rows / 200) in
  let live = Array.of_list (live_groups table) in
  let cold = live.(Rng.int rng (Array.length live)) in
  let delta = Gen.churn_delta rng ~rows ~next_ts:c.next_ts ~hot:c.hot ~cold ~min_ts:c.low_ts in
  c.next_ts <- c.next_ts + (10 * rows);
  let evicts =
    (if i mod 10 = 9 then
       match List.filter (fun g -> not (Array.mem g c.hot)) (Array.to_list live) with
       | [] -> []
       | cands -> [ Evict (Printf.sprintf "grp = %d" (List.nth cands (Rng.int rng (List.length cands)))) ]
     else [])
    @
    if i mod 25 = 24 then begin
      let ts = Array.copy (ints table "ts") in
      Array.sort compare ts;
      let len = Array.length ts + rows in
      let k = max (len / 100) (len - (sz.churn_rows * 95 / 100)) in
      let cutoff = ts.(min (Array.length ts - 1) k) in
      c.low_ts <- cutoff;
      [ Evict (Printf.sprintf "ts < %d" cutoff) ]
    end
    else []
  in
  Append delta :: evicts

(* Every block of consecutive steps queries each statement once, in a
   seeded order, so every seed sees the same mix. *)
let churn_stmt o i =
  let k = Array.length Gen.session_stmts in
  let order = Array.init k (fun j -> j) in
  Gen.shuffle (Rng.create ((o.seed * 2_750_159) + (i / k))) order;
  order.(i mod k)

let apply_mutation r l c m =
  match m with
  | Append delta -> (
      match attempt r "append" (fun () -> time_ns (fun () -> Sql.session_append c.s delta)) (fun _ -> true) with
      | Some ((), ns) ->
          r.append_ms <- sample r ns :: r.append_ms;
          Option.iter
            (fun l ->
              l.append_ns <- l.append_ns + ns;
              l.append_rows <- l.append_rows + Table.nrows delta)
            l
      | None -> ())
  | Evict pred -> (
      match attempt r "evict" (fun () -> time_ns (fun () -> Sql.session_evict c.s pred)) (fun _ -> true) with
      | Some ((), ns) ->
          r.evict_ms <- sample r ns :: r.evict_ms;
          Option.iter (fun l -> l.evict_ns <- l.evict_ns + ns; l.evict_n <- l.evict_n + 1) l
      | None -> ())

let session_churn o ~pool ~domains r =
  (* set-up: table generation, session creation, one warm-up run of each
     statement *)
  let c, setup_s = setup_times (fun () -> churn_setup o ~pool) in
  let stateless table sql = Sql.query ~pool ~tables:[ ("t", table) ] sql in
  let check_rng = Rng.create ((o.seed * 4_256_249) + 13) in
  let offset = Rng.int check_rng 8 in
  Gc.compact ();
  if not o.trace then begin
    let t0 = Obs.now_ns () in
    let i = ref 0 in
    let last = ref None in
    while !i < 50 * o.sizes.min_passes || ms (Obs.now_ns () - t0) < o.seconds *. 1e3 || !i mod 50 <> 0 do
      calibrate r;
      List.iter (apply_mutation r None c) (churn_mutations o c !i);
      let st = Gen.session_stmts.(churn_stmt o !i) in
      let table = Session.table c.s in
      (* a seeded eighth of the steps (and the last one, below) are
         checked against a stateless query on the session's table *)
      let sampled = !i mod 8 = offset in
      (match
         attempt r "statement"
           (fun () -> time_ns (fun () -> Sql.query ~pool ~session:c.s ~tables:[ ("t", table) ] st.Gen.sql))
           (fun (res, _) ->
             (not sampled)
             || Oracle.fingerprint res = Oracle.fingerprint (stateless table st.Gen.sql) + if o.corrupt then 1 else 0)
       with
      | Some (res, ns) ->
          r.query_ms <- sample r ns :: r.query_ms;
          r.read_s <- (fst r.read_s +. (float_of_int ns /. 1e9), snd r.read_s +. (float_of_int ns /. 1e9 *. r.factor));
          r.read_rows <- r.read_rows + Table.nrows table;
          last := if sampled then None else Some (Oracle.fingerprint res, table, st)
      | None -> last := None);
      incr i
    done;
    (match !last with
    | Some (fp, table, st) when fp <> Oracle.fingerprint (stateless table st.Gen.sql) ->
        r.failed <- r.failed + 1
    | _ -> ());
    (setup_s, None)
  end
  else begin
    (* Two sessions replay the same steps: [c] untraced (timings, GC and
       the session's own numbers) and [b] traced (the engine's counters),
       so each traced statement meets exactly the state its untraced twin
       did. *)
    let b = churn_setup o ~pool in
    let l = new_layers () in
    let counters = Session.counters c.s in
    let m0 = Build_cache.maintained_count counters and rb0 = Build_cache.rebuilt_count counters in
    for i = 0 to 49 do
      let muts = churn_mutations o c i in
      List.iter (apply_mutation r (Some l) c) muts;
      List.iter
        (function
          | Append d -> Sql.session_append b.s d
          | Evict p -> Sql.session_evict b.s p)
        muts;
      let st = Gen.session_stmts.(churn_stmt o i) in
      let table = Session.table c.s in
      let n = Table.nrows table in
      let tables = [ ("t", table) ] in
      let parse_ns = time_parse l st.Gen.sql in
      let ast = Parser.parse st.Gen.sql in
      match
        attempt r "statement"
          (fun () -> planner_run l ~rows:n (fun () -> Planner.run_with_stats ~pool ~session:c.s ~tables ast))
          (fun _ -> true)
      with
      | None -> ()
      | Some ((res, _), ns) ->
          l.untraced_ns <- l.untraced_ns + parse_ns + ns;
          let btable = Session.table b.s in
          let _, _, _, _ =
            traced_query l (fun () -> Sql.query ~pool ~session:b.s ~tables:[ ("t", btable) ] st.Gen.sql)
          in
          (* planner overhead on the now-warm session *)
          let plan () = ignore (Planner.run ~pool ~session:b.s ~tables:[ ("t", btable) ] ast) in
          let _, first = time_ns plan in
          ignore
            (planner_overhead l ~first ~plan
               ~twin:(fun () -> ignore (Window_plan.run ~pool ~session:b.s btable st.Gen.clauses)));
          if i mod 5 = 0 then begin
            (* every fifth step: check against the stateless path and
               replay it layer by layer *)
            let sres, _, picks, partial = traced_query (new_layers ()) (fun () -> stateless table st.Gen.sql) in
            let expect = Oracle.fingerprint sres + if o.corrupt then 1 else 0 in
            if Oracle.fingerprint res <> expect then r.failed <- r.failed + 1;
            let (), plain_ns = time_ns (fun () -> ignore (stateless table st.Gen.sql)) in
            let before = Replay.covered_ns l.acc in
            let fp = replay l ~pool ~picks ~partial ~label:(string_of_int i) table st in
            if fp <> Oracle.fingerprint sres then l.acc.Replay.parity_failures <- l.acc.Replay.parity_failures + 1;
            l.replayed_ns <- l.replayed_ns + (Replay.covered_ns l.acc - before) + parse_ns;
            l.replayed_stmt_ns <- l.replayed_stmt_ns + parse_ns + plain_ns
          end
    done;
    l.maintained <- Build_cache.maintained_count counters - m0;
    l.rebuilt <- Build_cache.rebuilt_count counters - rb0;
    session_totals l c.s;
    (setup_s, Some (layer_metrics ~domains l r, l))
  end

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let check_env () =
  let pinned =
    List.filter
      (fun kv -> String.starts_with ~prefix:"HOLIWIN_" kv)
      (Array.to_list (Unix.environment ()))
  in
  if pinned <> [] then begin
    Printf.eprintf
      "perfbench: refusing to run with %s set: the engine reads these variables and they change what is measured\n"
      (String.concat ", " (List.map (fun kv -> List.hd (String.split_on_char '=' kv)) pinned));
    exit 2
  end

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           let v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name v unit_)
         metrics)
  ^ "}"

let with_pool domains f =
  let pool = Task_pool.create domains in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) (fun () -> f pool)

let () =
  check_env ();
  let o = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  let domains = min nproc 4 in
  Option.iter
    (fun path ->
      with_pool domains (fun pool -> with_pool 1 (fun pool1 -> write_oracle o ~pool ~pool1 path));
      exit 0)
    o.oracle_out;
  let oracle = if o.workload = "session_churn" then [||] else read_oracle o in
  let r = new_run () in
  let setup_s, layers =
    with_pool domains (fun pool ->
        match o.workload with
        | "session_churn" -> session_churn o ~pool ~domains r
        | _ -> read_only o ~pool ~domains ~oracle r)
  in
  Printf.printf "perfbench workload=%s seed=%d trace=%d seconds=%g nproc=%d domains=%d ocaml=%s\n" o.workload
    o.seed (Bool.to_int o.trace) o.seconds nproc domains Sys.ocaml_version;
  let correct =
    match layers with
    | Some (_, l) ->
        (match o.trace_dir with
        | Some dir ->
            let path = Filename.concat dir (o.workload ^ ".json") in
            Obs.write_chrome_trace path { Obs.spans = l.spans; counters = []; hists = []; dropped = l.dropped };
            Printf.printf "chrome trace: %s (%d spans)\n" path (List.length l.spans)
        | None -> ());
        (* each layer's share of the replayed statements' time: the
           contrasts the workloads are built to show *)
        let a = l.acc in
        let cls f = List.fold_left (fun s (_, c) -> s + f c) 0 a.Replay.per_class in
        Printf.printf "layer shares:%s\n"
          (String.concat ""
             (List.map
                (fun (nm, ns) -> Printf.sprintf " %s=%.3f" nm (iratio ns l.replayed_stmt_ns))
                [
                  ("partition", a.Replay.partition_ns);
                  ("key_codec", a.Replay.codec_ns);
                  ("sort", if a.Replay.spill_rows > 0 then a.Replay.spill_ns else a.Replay.sort_ns);
                  ("frame", a.Replay.frame_ns);
                  ("rank_encode", a.Replay.encode_ns);
                  ("build", cls (fun c -> c.Replay.build_ns));
                  ("probe", cls (fun c -> c.Replay.probe_ns));
                ]));
        if l.acc.Replay.parity_failures > 0 then
          Printf.printf "replay parity failures: %d\n" l.acc.Replay.parity_failures;
        r.failed = 0 && r.checks_ok && l.acc.Replay.parity_failures = 0
    | None -> r.failed = 0 && r.checks_ok
  in
  let metrics =
    match layers with
    | Some (m, _) -> m
    | None ->
        let setup_reps, raw_setup, setup = setup_s in
        (* each time metric, from the raw ([fst]) or calibrated ([snd]) samples *)
        let times pick setup =
          [
            ("setup_s", "s", setup);
            ("rows_per_s", "1/s", float_of_int r.read_rows /. pick r.read_s);
            ("query_ms.p50", "ms", quantile 0.5 (List.map pick r.query_ms));
            ("query_ms.p90", "ms", quantile 0.9 (List.map pick r.query_ms));
            ("append_ms.p50", "ms", quantile 0.5 (List.map pick r.append_ms));
            ("append_ms.p90", "ms", quantile 0.9 (List.map pick r.append_ms));
            ("evict_ms.p50", "ms", quantile 0.5 (List.map pick r.evict_ms));
          ]
        in
        Printf.printf
          "calibration: memory kernel %.3f ms (median of %d), set-up repeated %d times; raw figures:\n"
          (Calib.reference_ns /. median r.factors /. 1e6) (List.length r.factors) setup_reps;
        List.iter (fun (name, unit_, v) -> Printf.printf "  raw %-30s %16.6g %s\n" name v unit_) (times fst raw_setup);
        times snd setup @ [ ("peak_rss_bytes", "B", float_of_int (vm_hwm_bytes ())) ]
  in
  Printf.printf "samples: query_ms=%d append_ms=%d evict_ms=%d attempted=%d failed=%d error_rate=%g\n"
    (List.length r.query_ms) (List.length r.append_ms) (List.length r.evict_ms) r.attempted r.failed
    (iratio r.failed r.attempted);
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-34s %16.6g %s\n" name v unit_) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    (max 1 r.attempted) r.failed (json_metrics metrics)
