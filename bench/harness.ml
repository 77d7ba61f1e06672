(* Shared benchmark machinery: monotonic timing with stop-loss sweeps and
   aligned table output. All experiments print absolute numbers plus the
   derived series the paper plots, so EXPERIMENTS.md can quote them
   directly. *)

module Obs = Holistic_obs.Obs

(* Monotonic clock: [Unix.gettimeofday] is wall time and jumps under NTP
   adjustment mid-sweep; the obs clock never goes backwards. *)
let now () = float_of_int (Obs.now_ns ()) *. 1e-9

type outcome = Time of float | Skipped

(* Budget (seconds) after which a sweep stops running an algorithm: the
   competitor is declared off-scale, as in the paper's plots where the
   quadratic algorithms hug zero. *)
let default_budget = ref 30.0

let time f =
  let t0 = Obs.now_ns () in
  let _ = f () in
  float_of_int (Obs.now_ns () - t0) *. 1e-9

type timing = { best : float; mean : float; stddev : float; runs : int }

(* [?hist] names an [Obs.Histogram] that each rep's duration (ns) is
   recorded into ungated, so bench reports can carry the distribution. *)
let time_best ?hist ~reps f =
  let h = Option.map (Obs.Histogram.make ~help:"Benchmark repetition wall times (ns)") hist in
  let reps = max 1 reps in
  let ts = Array.init reps (fun _ -> time f) in
  Array.iter
    (fun t -> Option.iter (fun h -> Obs.Histogram.add_always h (int_of_float (t *. 1e9))) h)
    ts;
  let best = Array.fold_left min ts.(0) ts in
  let mean = Array.fold_left ( +. ) 0.0 ts /. float_of_int reps in
  let var =
    Array.fold_left (fun acc t -> acc +. ((t -. mean) *. (t -. mean))) 0.0 ts
    /. float_of_int reps
  in
  { best; mean; stddev = sqrt var; runs = reps }

let gc_settle () =
  Gc.full_major ();
  Gc.compact ()

(* Private scratch directory for experiments that spill to disk, created
   lazily and removed (with anything left inside) when the process exits.
   Experiments should still clean up after themselves; the at_exit sweep
   only catches what a failure path left behind. *)
let scratch =
  lazy
    (let dir = Filename.temp_dir "holiwin_bench" "" in
     at_exit (fun () ->
         (try
            Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
              (Sys.readdir dir)
          with Sys_error _ -> ());
         try Sys.rmdir dir with Sys_error _ -> ());
     dir)

let scratch_dir () = Lazy.force scratch

(* Sweep one algorithm across parameter points, stopping once a point
   exceeds the budget. The heap is settled before each point so one point's
   garbage is not billed to the next. *)
let sweep ~points ~run =
  let stopped = ref false in
  List.map
    (fun p ->
      if !stopped then (p, Skipped)
      else begin
        gc_settle ();
        let t = run p in
        if t > !default_budget then stopped := true;
        (p, Time t)
      end)
    points

let throughput_cell ~n = function
  | Skipped -> "-"
  | Time t -> Printf.sprintf "%.3g" (float_of_int n /. t /. 1e6)

let seconds_cell = function Skipped -> "-" | Time t -> Printf.sprintf "%.3f" t

let print_table ~header ~rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  " (List.map2 (fun cell w -> Printf.sprintf "%*s" w cell) row widths)
  in
  print_endline (line header);
  print_endline (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> print_endline (line row)) rows

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

(* Machine-readable artifacts. Experiments that feed plots or regression
   tracking emit their series through [Report] (one schema for every
   bench, see bench/report.ml) as [Holistic_util.Json] values. *)
let json_of_timing t =
  Holistic_util.Json.(
    J_obj
      [
        ("best_s", J_float t.best);
        ("mean_s", J_float t.mean);
        ("stddev_s", J_float t.stddev);
        ("runs", J_int t.runs);
      ])
