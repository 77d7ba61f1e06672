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
module Multiway = Holistic_sort.Multiway
module H = Harness
module Json = Holistic_util.Json

let make_table rng ~rows ~partitions =
  (* an id-like int key, a measure, and a categorical string: the typical
     composite ORDER BY of a window query *)
  let k = Array.init rows (fun _ -> Rng.int rng 1_000_000) in
  let x = Array.init rows (fun _ -> Rng.float rng 1_000.) in
  let s = Array.init rows (fun _ -> Printf.sprintf "cat-%03d" (Rng.int rng 1_000)) in
  let pids = Array.init rows (fun _ -> Rng.int rng partitions) in
  (Table.create [ ("k", Column.ints k); ("x", Column.floats x); ("s", Column.strings s) ], pids)

let spec =
  [ Sort_spec.asc (Expr.Col "k"); Sort_spec.desc (Expr.Col "x"); Sort_spec.asc (Expr.Col "s") ]

let run ~rows () =
  H.section "sort-keys: normalized-key + OVC sort vs boxed comparator sort";
  (* a previous experiment in the same process may have left histograms *)
  Holistic_obs.Obs.Histogram.reset_all ();
  let partitions = max 8 (rows / 10_000) in
  let rng = Rng.create 2022 in
  let table, pids = make_table rng ~rows ~partitions in
  H.note "%d rows, %d partitions, ORDER BY k ASC, x DESC, s ASC (int, float, string)" rows
    partitions;
  let pool = Task_pool.create 1 (* the acceptance claim is per-core, not parallel *) in
  let comparator_sort () =
    let cmp = Sort_spec.comparator table spec in
    Introsort.sort_indices_by rows ~cmp:(fun i j ->
        let c = Int.compare pids.(i) pids.(j) in
        if c <> 0 then c else cmp i j)
  in
  let encoded_sort ?task_size () =
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
  let perm, _ = encoded_sort () in
  if expect <> perm then failwith "sort-keys parity: encoded sort diverged from comparator sort";
  H.note "parity: identical permutation on both paths";
  H.gc_settle ();
  let comparator_t = H.time_best ~hist:"bench.comparator_ns" ~reps:3 (fun () -> ignore (comparator_sort ())) in
  H.gc_settle ();
  let encoded_t = H.time_best ~hist:"bench.encoded_ns" ~reps:3 (fun () -> ignore (encoded_sort ())) in
  (* same sort again, but forced through run formation and the OVC
     loser-tree merge (a single-domain pool otherwise sorts in one run):
     measures the merge's overhead and its code-decided comparison share *)
  H.gc_settle ();
  Multiway.reset_ovc_stats ();
  let merge_task = max 1_000 (rows / 64) in
  let merged_t = H.time_best ~reps:3 (fun () -> ignore (encoded_sort ~task_size:merge_task ())) in
  let ovc_decided, ovc_scanned = Multiway.ovc_stats () in
  let comparator_s = comparator_t.H.best
  and encoded_s = encoded_t.H.best
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
          "key codec, 64-run OVC merge";
          Printf.sprintf "%.3f" merged_s;
          Printf.sprintf "%.3f±%.3f" merged_t.H.mean merged_t.H.stddev;
          Printf.sprintf "%.2fx" merged_speedup;
        ];
      ];
  H.note "ovc merge: %d comparisons code-decided, %d deep scans (over 3 reps)" ovc_decided
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
        ("encoded_merge_s", Report.metric ~unit_:"s" merged_s);
      ]
    ~counters:[ ("ovc.decided", ovc_decided); ("ovc.scanned", ovc_scanned) ]
    ~histograms:(Holistic_obs.Obs.Histogram.snapshot ())
    ~series:
      (Json.J_obj
         [
           ("comparator", H.json_of_timing comparator_t);
           ("encoded", H.json_of_timing encoded_t);
           ("merged", H.json_of_timing merged_t);
         ]);
  H.note "wrote BENCH_sort_ovc.json";
  Task_pool.shutdown pool
