(* The benchmark regression gate.

   Compares fresh [BENCH_*.json] reports (written by [main.exe]'s
   experiments through {!Report.write}) against the committed baselines in
   [bench/baselines/].  Every baseline metric that embeds a tolerance is
   gated: the fresh value must stay within that relative tolerance of the
   baseline in the metric's bad direction (improvements never fail, see
   {!Report.check_metric}).  Metrics without a tolerance — absolute wall
   times, anything machine-dependent — live in the reports but are never
   gated, so the gate holds on CI machines unlike the baseline host.

   Exit status: 0 when every gated metric of every baseline passes (or with
   [--update], always), 1 on any violation or missing fresh report, 2 on
   usage/IO errors.

     check.exe [--baselines DIR] [--fresh DIR] [--update]

   [--update] replaces each baseline with the corresponding fresh report
   (used to refresh baselines after an intentional performance change). *)

module Json = Holistic_util.Json

let baselines_dir = ref "bench/baselines"
let fresh_dir = ref "."
let update = ref false
let usage = "check.exe [--baselines DIR] [--fresh DIR] [--update]"

let spec =
  [
    ( "--baselines",
      Arg.Set_string baselines_dir,
      "DIR committed baseline reports (default bench/baselines)" );
    ("--fresh", Arg.Set_string fresh_dir, "DIR freshly produced reports (default .)");
    ("--update", Arg.Set update, " replace baselines with the fresh reports");
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let is_report name =
  String.length name > 6
  && String.sub name 0 6 = "BENCH_"
  && Filename.check_suffix name ".json"

let reports_in what dir =
  match Sys.readdir dir with
  | entries ->
      let files = Array.to_list entries |> List.filter is_report |> List.sort compare in
      if files = [] then die "no BENCH_*.json %s under %s" what dir;
      files
  | exception Sys_error e -> die "cannot read %s directory: %s" what e

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* [--update] enumerates the *fresh* reports, so a first run seeds an
   empty baselines directory and new experiments join the gate. *)
let do_update () =
  if not (Sys.file_exists !baselines_dir) then Sys.mkdir !baselines_dir 0o755;
  List.iter
    (fun name ->
      copy_file (Filename.concat !fresh_dir name) (Filename.concat !baselines_dir name);
      Printf.printf "updated %s\n" name)
    (reports_in "fresh reports" !fresh_dir)

let fmt_value v =
  if Float.abs v >= 1e6 then Printf.sprintf "%.4g" v
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4f" v

(* Relative move of the fresh value against the baseline, signed so that
   positive means "toward the metric's bad direction". *)
let bad_delta (c : Report.check) =
  match c.Report.fresh with
  | None -> None
  | Some f ->
      let denom = if c.Report.baseline = 0. then 1. else Float.abs c.Report.baseline in
      let d = (f -. c.Report.baseline) /. denom in
      Some
        (match c.Report.m_direction with
        | Report.Lower_better -> d
        | Report.Higher_better -> -.d)

(* How far past the tolerance bound a failing gated metric landed, as a
   percentage of the baseline (None when passing or ungated). *)
let over_pct (c : Report.check) =
  match (bad_delta c, c.Report.m_tolerance) with
  | Some d, Some t when d > t -> Some (100. *. (d -. t))
  | _ -> None

let gate_of (c : Report.check) =
  match c.Report.m_tolerance with
  | None -> "-"
  | Some t ->
      Printf.sprintf "%.0f%% %s" (100. *. t)
        (match c.Report.m_direction with
        | Report.Lower_better -> "lower"
        | Report.Higher_better -> "higher")

let print_check (c : Report.check) =
  let delta =
    match bad_delta c with
    | None -> "-"
    | Some d ->
        (* sign restored to the metric's own axis for readability *)
        let raw = match c.Report.m_direction with Report.Lower_better -> d | _ -> -.d in
        Printf.sprintf "%+.1f%%" (100. *. raw)
  in
  let status =
    if c.Report.ok then "ok"
    else
      match over_pct c with
      | Some p -> Printf.sprintf "FAIL (%.1f%% over)" p
      | None -> "FAIL"
  in
  Printf.printf "  %-24s %14s %14s %9s %12s  %s\n" c.Report.metric_name
    (fmt_value c.Report.baseline)
    (match c.Report.fresh with Some f -> fmt_value f | None -> "MISSING")
    delta (gate_of c) status

(* Counters that must stay strictly positive: when a committed baseline
   carries one of these, the matching fresh counter must be > 0, or the
   code path it proves exercised (disk spilling) has silently stopped
   running. Tolerance-style gates cannot express "nonzero", hence the
   explicit rule. *)
let positive_counters = [ "sort.spill_bytes"; "sort.spill_runs" ]

let counter_of report name =
  match Json.member "counters" report with
  | Some (Json.J_obj kvs) -> (
      match List.assoc_opt name kvs with Some (Json.J_int v) -> Some v | _ -> None)
  | _ -> None

let check_positive_counters ~report_name ~baseline ~fresh violations =
  List.fold_left
    (fun failures name ->
      match counter_of baseline name with
      | None -> failures
      | Some _ -> (
          let fresh_v = counter_of fresh name in
          let ok = match fresh_v with Some v -> v > 0 | None -> false in
          Printf.printf "  %-24s %14s %14s %9s %12s  %s\n" name "(counter)"
            (match fresh_v with Some v -> string_of_int v | None -> "MISSING")
            "-" "> 0"
            (if ok then "ok" else "FAIL");
          if ok then failures
          else begin
            violations :=
              Printf.sprintf "%-28s %-24s fresh=%s violates > 0" report_name name
                (match fresh_v with Some v -> string_of_int v | None -> "MISSING")
              :: !violations;
            failures + 1
          end))
    0 positive_counters

(* The full diff table prints for every report, pass or fail; failures are
   additionally recapped in one block at the end so a red CI log leads
   with exactly which metrics moved, by how much, and past which bound. *)
let gate files =
  let failures = ref 0 in
  let violations = ref [] in
  List.iter
    (fun name ->
      let base_path = Filename.concat !baselines_dir name in
      let fresh_path = Filename.concat !fresh_dir name in
      let baseline =
        try Report.load base_path
        with e -> die "cannot parse baseline %s: %s" base_path (Printexc.to_string e)
      in
      Printf.printf "%s (%s)\n" name (Report.experiment_of baseline);
      Printf.printf "  %-24s %14s %14s %9s %12s\n" "metric" "baseline" "fresh" "delta"
        "tolerance";
      (if not (Sys.file_exists fresh_path) then (
         Printf.printf "  MISSING fresh report %s\n" fresh_path;
         violations := Printf.sprintf "%-28s missing fresh report" name :: !violations;
         incr failures)
       else
         let fresh =
           try Report.load fresh_path
           with e -> die "cannot parse fresh report %s: %s" fresh_path (Printexc.to_string e)
         in
         let checks = Report.compare_reports ~baseline ~fresh in
         List.iter print_check checks;
         List.iter
           (fun (c : Report.check) ->
             violations :=
               Printf.sprintf "%-28s %-24s baseline=%s fresh=%s%s (gate %s)" name
                 c.Report.metric_name (fmt_value c.Report.baseline)
                 (match c.Report.fresh with Some f -> fmt_value f | None -> "MISSING")
                 (match over_pct c with
                 | Some p -> Printf.sprintf ", %.1f%% over" p
                 | None -> "")
                 (gate_of c)
               :: !violations)
           (Report.violations checks);
         failures := !failures + List.length (Report.violations checks);
         failures := !failures + check_positive_counters ~report_name:name ~baseline ~fresh violations);
      print_newline ())
    files;
  if !failures > 0 then (
    Printf.printf "violations:\n";
    List.iter (fun line -> Printf.printf "  %s\n" line) (List.rev !violations);
    Printf.printf "%d gated metric(s) FAILED\n" !failures;
    exit 1)
  else Printf.printf "all gated metrics within tolerance\n"

let () =
  Arg.parse spec (fun a -> die "unexpected argument %s (%s)" a usage) usage;
  if !update then do_update () else gate (reports_in "baselines" !baselines_dir)
