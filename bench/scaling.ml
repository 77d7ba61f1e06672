(* The [scaling] experiment: multicore scale-up of the two parallel layers
   of the pipeline — merge-sort-tree construction alone, and the
   morsel-driven window plan end to end — as a 1 -> N domain speedup curve.

   Correctness comes first and is exact: at every domain count the built
   tree must answer a probe battery identically and the plan's output
   columns must match the single-domain run bit for bit (NaNs and signed
   zeros included) — any divergence is a hard failure before a single
   timing runs.  The wall-clock speedups themselves depend on the host's
   core count (a single-core runner shows ~1.0x everywhere and the
   committed baseline records the honest curve for its host), so they are
   gated only loosely; the parity checks carry the portable guarantee. *)

open Holistic_storage
module H = Harness
module Json = Holistic_util.Json
module Rng = Holistic_util.Rng
module Task_pool = Holistic_parallel.Task_pool
module Mstw = Holistic_core.Mst_width
module Window_plan = Holistic_window.Window_plan

let domain_counts = [ 1; 2; 4 ]

(* Deterministic fingerprint of a built tree: a spread of counting probes
   across positions and values — divergence in any level's contents or
   cursor samples shows up as a different total. *)
let mst_fingerprint tree =
  let n = Mstw.length tree in
  let acc = ref 0 in
  let probes = 64 in
  for i = 0 to probes - 1 do
    let lo = i * n / (2 * probes) in
    let hi = n - (i * n / (4 * probes)) in
    let less_than = ((i * 131) + 7) mod n in
    acc := (!acc * 31) + Mstw.count tree ~lo ~hi ~less_than
  done;
  !acc

let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> compare a b = 0

let check_columns_identical ~domains out0 out n =
  List.iter
    (fun (name, c0) ->
      let c = Table.column out name in
      for r = 0 to n - 1 do
        let a = Column.get c0 r and b = Column.get c r in
        if not (value_identical a b) then
          failwith
            (Printf.sprintf "scaling parity: column %s row %d: 1 domain gave %s, %d domains %s"
               name r (Value.to_string a) domains (Value.to_string b))
      done)
    (Table.columns out0)

let run ~rows () =
  H.section "scaling: domain scale-up of MST build and the window plan";
  let rng = Rng.create 7 in
  (* MST operand: dense codes bounded by the row count, like a rank
     encoding over a partition of [rows] rows (32-bit storage, so the
     narrowing blits are on the parallel path too). *)
  let codes = Array.init rows (fun _ -> Rng.int rng rows) in
  let partitions = max 8 (rows / 4_000) in
  let table = Multiwindow.make_table rng ~rows ~partitions in
  let cs = Multiwindow.clauses () in
  H.note "%d rows, %d partitions, domain counts %s (host has %d core(s))" rows partitions
    (String.concat "/" (List.map string_of_int domain_counts))
    (Domain.recommended_domain_count ());
  let per_domain =
    List.map
      (fun d ->
        let pool = Task_pool.create d in
        Fun.protect
          ~finally:(fun () -> Task_pool.shutdown pool)
          (fun () ->
            let fp = mst_fingerprint (Mstw.create ~pool codes) in
            let out = Window_plan.run ~pool table cs in
            H.gc_settle ();
            let mst_t =
              H.time_best ~reps:3 (fun () -> ignore (Sys.opaque_identity (Mstw.create ~pool codes)))
            in
            H.gc_settle ();
            let e2e_t =
              H.time_best ~reps:3 (fun () ->
                  ignore (Sys.opaque_identity (Window_plan.run ~pool table cs)))
            in
            (d, fp, out, mst_t, e2e_t)))
      domain_counts
  in
  let d0, fp0, out0, mst0, e2e0 =
    match per_domain with x :: _ -> x | [] -> assert false
  in
  assert (d0 = 1);
  List.iter
    (fun (d, fp, out, _, _) ->
      if fp <> fp0 then
        failwith (Printf.sprintf "scaling parity: MST probe battery differs at %d domains" d);
      check_columns_identical ~domains:d out0 out rows)
    (List.tl per_domain);
  H.note "parity: trees and plan output bit-identical at every domain count";
  let speedup base t = base.H.best /. t.H.best in
  H.print_table
    ~header:[ "domains"; "mst build (s)"; "mst speedup"; "end-to-end (s)"; "e2e speedup" ]
    ~rows:
      (List.map
         (fun (d, _, _, mst_t, e2e_t) ->
           [
             string_of_int d;
             Printf.sprintf "%.4f" mst_t.H.best;
             Printf.sprintf "%.2fx" (speedup mst0 mst_t);
             Printf.sprintf "%.4f" e2e_t.H.best;
             Printf.sprintf "%.2fx" (speedup e2e0 e2e_t);
           ])
         per_domain);
  let find d =
    let _, _, _, mst_t, e2e_t =
      List.find (fun (d', _, _, _, _) -> d' = d) per_domain
    in
    (speedup mst0 mst_t, speedup e2e0 e2e_t)
  in
  let mst2, e2e2 = find 2 and mst4, e2e4 = find 4 in
  Report.write "BENCH_scaling.json" ~experiment:"scaling"
    ~params:
      [
        ("rows", Json.J_int rows);
        ("partitions", Json.J_int partitions);
        ("domain_counts", Json.J_list (List.map (fun d -> Json.J_int d) domain_counts));
        ("host_cores", Json.J_int (Domain.recommended_domain_count ()));
      ]
    ~metrics:
      [
        (* gated loosely: the ratios track the host's core count, so the
           gate only catches a collapse against the committed baseline's
           host (improvements never fail) *)
        ("mst_speedup_2", Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 mst2);
        ("mst_speedup_4", Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 mst4);
        ("e2e_speedup_2", Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 e2e2);
        ("e2e_speedup_4", Report.metric ~unit_:"x" ~direction:Report.Higher_better ~tolerance:0.5 e2e4);
        (* report-only: absolute wall times are machine-dependent *)
        ("mst_build_1_s", Report.metric ~unit_:"s" mst0.H.best);
        ("e2e_1_s", Report.metric ~unit_:"s" e2e0.H.best);
      ]
    ~counters:[ ("parity.domain_counts_checked", List.length domain_counts) ]
    ~histograms:(Holistic_obs.Obs.Histogram.snapshot ())
    ~series:
      (Json.J_obj
         (List.map
            (fun (d, _, _, mst_t, e2e_t) ->
              ( Printf.sprintf "domains_%d" d,
                Json.J_obj [ ("mst", H.json_of_timing mst_t); ("e2e", H.json_of_timing e2e_t) ] ))
            per_domain));
  H.note "wrote BENCH_scaling.json"
