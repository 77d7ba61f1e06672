(* The [sort-keys] experiment: the compiled normalized-key sort (key codec +
   offset-value coded merge) against the boxed-comparator baseline it
   replaced, on the partitioned multi-column sort every window query pays
   first.

   Parity is a hard failure before anything is timed: both paths must
   produce the identical permutation (the codec's contract is exactness,
   not approximation). The speedup floor is asserted even at smoke sizes,
   so CI exercises the whole codec/OVC path deterministically. *)

open Holistic_storage
module Rng = Holistic_util.Rng
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Parallel_sort = Holistic_sort.Parallel_sort
module Obs = Holistic_obs.Obs
module H = Harness
module Json = Holistic_util.Json

(* Returns a table maker rather than a table: every call wraps the same
   arrays in fresh columns, so the string column has no order codes yet
   and a compile on it densifies from scratch. *)
let make_table rng ~rows ~partitions =
  (* an id-like int key, a measure, and a categorical string: the typical
     composite ORDER BY of a window query *)
  let k = Array.init rows (fun _ -> Rng.int rng 1_000_000) in
  let x = Array.init rows (fun _ -> Rng.float rng 1_000.) in
  let s = Array.init rows (fun _ -> Printf.sprintf "cat-%03d" (Rng.int rng 1_000)) in
  let pids = Array.init rows (fun _ -> Rng.int rng partitions) in
  ( (fun () ->
      Table.create [ ("k", Column.ints k); ("x", Column.floats x); ("s", Column.strings s) ]),
    pids )

let spec =
  [ Sort_spec.asc (Expr.Col "k"); Sort_spec.desc (Expr.Col "x"); Sort_spec.asc (Expr.Col "s") ]

let run ~rows () =
  H.section "sort-keys: normalized-key + OVC sort vs boxed comparator sort";
  (* a previous experiment in the same process may have left samples in
     the histograms this one reports *)
  let hists = [ "bench.comparator_ns"; "bench.encoded_ns" ] in
  List.iter (fun n -> Obs.Histogram.(reset (make n))) hists;
  let partitions = max 8 (rows / 10_000) in
  let rng = Rng.create 2022 in
  let fresh_table, pids = make_table rng ~rows ~partitions in
  let table = fresh_table () in
  H.note "%d rows, %d partitions, ORDER BY k ASC, x DESC, s ASC (int, float, string)" rows
    partitions;
  let pool = Task_pool.create 1 (* the acceptance claim is per-core, not parallel *) in
  let comparator_sort () =
    let cmp = Sort_spec.comparator table spec in
    Introsort.sort_indices_by rows ~cmp:(fun i j ->
        let c = Int.compare pids.(i) pids.(j) in
        if c <> 0 then c else cmp i j)
  in
  let encoded_sort ?task_size table =
    let kc = Key_codec.compile ~pids table spec in
    Parallel_sort.sort_encoded pool ?task_size ~n:rows ~words:kc.Key_codec.words
      ?tie:kc.Key_codec.residual ()
  in
  (* parity before timing: the encoded permutation must be *identical* to
     the stable comparator sort's *)
  let kc = Key_codec.compile ~pids table spec in
  if kc.Key_codec.residual <> None then failwith "sort-keys: spec should compile fully into words";
  H.note "codec: %d word(s), %d/%d keys covered, residual: none" (Array.length kc.Key_codec.words)
    kc.Key_codec.covered kc.Key_codec.total;
  let expect = comparator_sort () in
  let perm, _ = encoded_sort table in
  if expect <> perm then failwith "sort-keys parity: encoded sort diverged from comparator sort";
  H.note "parity: identical permutation on both paths";
  H.gc_settle ();
  let comparator_t = H.time_best ~hist:"bench.comparator_ns" ~reps:3 (fun () -> ignore (comparator_sort ())) in
  (* the encoded timings are cold compiles: each repetition sorts its own
     fresh table, built before the clock starts, so the string key is
     densified every time, as in a query's first sort of the column *)
  let time_cold ?hist ?task_size () =
    let reps = 3 in
    let tables = Array.init reps (fun _ -> fresh_table ()) in
    let next = ref 0 in
    H.gc_settle ();
    H.time_best ?hist ~reps (fun () ->
        let t = tables.(!next) in
        incr next;
        ignore (encoded_sort ?task_size t))
  in
  let encoded_t = time_cold ~hist:"bench.encoded_ns" () in
  (* report-only: the same sort on [table], whose string column kept its
     order codes from the parity check *)
  H.gc_settle ();
  let warm_t = H.time_best ~reps:3 (fun () -> ignore (encoded_sort table)) in
  (* same sort again, but forced through run formation and the OVC
     loser-tree merge (a single-domain pool otherwise sorts in one run):
     measures the merge's overhead and, from one untimed captured run, its
     code-decided comparison share *)
  let merge_task = max 1_000 (rows / 64) in
  let (), ovc = Obs.with_capture (fun () -> ignore (encoded_sort ~task_size:merge_task table)) in
  let ovc_count name = Option.value ~default:0 (List.assoc_opt name ovc.Obs.counters) in
  let ovc_decided = ovc_count "sort.ovc_decided" and ovc_scanned = ovc_count "sort.ovc_scanned" in
  let merged_t = time_cold ~task_size:merge_task () in
  let comparator_s = comparator_t.H.best
  and encoded_s = encoded_t.H.best
  and warm_s = warm_t.H.best
  and merged_s = merged_t.H.best in
  let speedup = comparator_s /. encoded_s in
  let merged_speedup = comparator_s /. merged_s in
  H.print_table ~header:[ "path"; "seconds"; "mean±sd"; "speedup" ]
    ~rows:
      [
        [
          "comparator (boxed, closure cmp)";
          Printf.sprintf "%.3f" comparator_s;
          Printf.sprintf "%.3f±%.3f" comparator_t.H.mean comparator_t.H.stddev;
          "1.00x";
        ];
        [
          "key codec, single run";
          Printf.sprintf "%.3f" encoded_s;
          Printf.sprintf "%.3f±%.3f" encoded_t.H.mean encoded_t.H.stddev;
          Printf.sprintf "%.2fx" speedup;
        ];
        [
          "key codec, single run, warm codes";
          Printf.sprintf "%.3f" warm_s;
          Printf.sprintf "%.3f±%.3f" warm_t.H.mean warm_t.H.stddev;
          Printf.sprintf "%.2fx" (comparator_s /. warm_s);
        ];
        [
          "key codec, 64-run OVC merge";
          Printf.sprintf "%.3f" merged_s;
          Printf.sprintf "%.3f±%.3f" merged_t.H.mean merged_t.H.stddev;
          Printf.sprintf "%.2fx" merged_speedup;
        ];
      ];
  H.note "ovc merge: %d comparisons code-decided, %d deep scans (one run)" ovc_decided
    ovc_scanned;
  if ovc_decided = 0 then failwith "sort-keys: forced merge never exercised offset-value codes";
  if speedup < 1.5 then
    failwith (Printf.sprintf "sort-keys: speedup %.2fx below the 1.5x floor" speedup);
  Report.write "BENCH_sort_ovc.json" ~experiment:"sort-keys"
    ~params:
      [
        ("rows", Json.J_int rows);
        ("partitions", Json.J_int partitions);
        ("total_keys", Json.J_int kc.Key_codec.total);
      ]
    ~metrics:
      [
        (* gated: ratios and the codec's structural outcome *)
        ("speedup", Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.4 speedup);
        ( "merged_speedup",
          Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.4 merged_speedup );
        ("words", Report.metric ~tolerance:0.01 (float_of_int (Array.length kc.Key_codec.words)));
        ("covered_keys", Report.metric ~tolerance:0.01 ~direction:Report.Higher_better
             (float_of_int kc.Key_codec.covered));
        (* report-only absolute times *)
        ("comparator_s", Report.metric ~unit_:"s" comparator_s);
        ("encoded_s", Report.metric ~unit_:"s" encoded_s);
        ("encoded_warm_s", Report.metric ~unit_:"s" warm_s);
        ("encoded_merge_s", Report.metric ~unit_:"s" merged_s);
      ]
    ~counters:[ ("ovc.decided", ovc_decided); ("ovc.scanned", ovc_scanned) ]
    ~histograms:
      (List.filter (fun (n, _) -> List.mem n hists) (Obs.Histogram.snapshot ()))
    ~series:
      (Json.J_obj
         [
           ("comparator", H.json_of_timing comparator_t);
           ("encoded", H.json_of_timing encoded_t);
           ("encoded_warm", H.json_of_timing warm_t);
           ("merged", H.json_of_timing merged_t);
         ]);
  H.note "wrote BENCH_sort_ovc.json";
  Task_pool.shutdown pool
