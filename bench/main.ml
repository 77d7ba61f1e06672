(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe                  # everything, default sizes
     dune exec bench/main.exe -- fig11         # one experiment
     dune exec bench/main.exe -- fig10 --scale 2.5 --budget 60
     dune exec bench/main.exe -- --quick       # smoke sizes (CI)
*)

let default_scale = 1.0

type sizes = {
  fig9_rows : int;
  fig10_scale : float;
  fig11_rows : int;
  fig12_rows : int;
  fig13_rows : int;
  fig14_rows : int;
  table1_base : int;
  mem_rows : int;
  ablation_rows : int;
  multiwindow_rows : int;
  sort_keys_rows : int;
  scaling_rows : int;
  calibrate_rows : int;
  evaluator_rows : int;
  incremental_rows : int;
  spill_rows : int;
}

let sizes ~scale ~quick =
  let f base = max 1_000 (int_of_float (float_of_int base *. scale *. if quick then 0.1 else 1.0)) in
  {
    fig9_rows = (if quick then 4_000 else 20_000) (* the paper's fixed 20k *);
    fig10_scale = scale *. (if quick then 0.1 else 1.0);
    fig11_rows = f 200_000;
    fig12_rows = f 100_000;
    fig13_rows = f 200_000;
    fig14_rows = f 500_000;
    table1_base = f 4_000;
    mem_rows = f 1_000_000;
    ablation_rows = f 200_000;
    multiwindow_rows = f 400_000;
    sort_keys_rows = f 1_000_000;
    scaling_rows = f 400_000;
    calibrate_rows = f 262_144;
    evaluator_rows = f 400_000;
    incremental_rows = f 400_000;
    spill_rows = f 4_000_000 (* 10x multiwindow: the out-of-core regime *);
  }

let experiments s =
  [
    ("preflight", Figures.preflight);
    ("table1", fun () -> Figures.table1 ~base:s.table1_base ());
    ("fig9", fun () -> Figures.fig9 ~rows:s.fig9_rows ());
    ("fig10", fun () -> Figures.fig10 ~scale:s.fig10_scale ());
    ("fig11", fun () -> Figures.fig11 ~rows:s.fig11_rows ());
    ("fig11-all", fun () -> Figures.fig11_all ~rows:(s.fig11_rows / 2) ());
    ("fig12", fun () -> Figures.fig12 ~rows:s.fig12_rows ());
    ("fig13", fun () -> Figures.fig13 ~rows:s.fig13_rows ());
    ("fig14", fun () -> Figures.fig14 ~rows:s.fig14_rows ());
    ("mem", fun () -> Figures.mem ~rows:s.mem_rows ());
    ("ablation-cascade", fun () -> Figures.ablation_cascade ~rows:s.ablation_rows ());
    ("ablation-cascade-raw", fun () -> Figures.ablation_cascade_raw ~rows:s.ablation_rows ());
    ("ablation-task", fun () -> Figures.ablation_task ~rows:s.ablation_rows ());
    ("ablation-store", fun () -> Figures.ablation_store ~rows:s.ablation_rows ());
    ("mst-width", fun () -> Figures.mst_width ~rows:s.mem_rows ());
    ("ext-dense-rank", fun () -> Figures.ext_dense_rank ~scale:s.fig10_scale ());
    ("sql-multiwindow", fun () -> Multiwindow.run ~rows:s.multiwindow_rows ());
    ("sort-keys", fun () -> Sort_keys.run ~rows:s.sort_keys_rows ());
    ("scaling", fun () -> Scaling.run ~rows:s.scaling_rows ());
    ("calibrate", fun () -> Calibrate.run ~rows:s.calibrate_rows ());
    ("evaluator-choice", fun () -> Evaluator_choice.run ~rows:s.evaluator_rows ());
    ("incremental", fun () -> Incremental.run ~rows:s.incremental_rows ());
    ("spill", fun () -> Spill.run ~rows:s.spill_rows ());
    ("micro", Micro.run);
  ]

open Cmdliner

let scale_arg =
  Arg.(value & opt float default_scale & info [ "scale" ] ~doc:"Size multiplier for all experiments.")

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test sizes (~10x smaller).")

let budget_arg =
  Arg.(value & opt float 30.0 & info [ "budget" ] ~doc:"Per-point time budget (s) before a competitor is dropped from a sweep.")

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all).")

let run names scale quick budget =
  Harness.default_budget := budget;
  let s = sizes ~scale ~quick in
  let available = experiments s in
  let chosen =
    match names with
    | [] -> List.filter (fun (n, _) -> n <> "micro") available
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n available with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" n
                  (String.concat ", " (List.map fst available));
                exit 2)
          names
  in
  let t0 = Unix.gettimeofday () in
  (* one failing experiment does not stop the rest from writing their
     reports; the run still exits nonzero when any failed *)
  let failed =
    List.filter_map
      (fun (name, f) ->
        match f () with
        | () -> None
        | exception e ->
            Printf.eprintf "experiment %s failed: %s\n%!" name (Printexc.to_string e);
            Some name)
      chosen
  in
  Printf.printf "\nTotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if failed <> [] then begin
    Printf.eprintf "failed experiments: %s\n" (String.concat ", " failed);
    exit 1
  end

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "holistic-bench" ~doc) Term.(const run $ names_arg $ scale_arg $ quick_arg $ budget_arg)

let () = exit (Cmd.eval cmd)
