(* Bechamel micro-benchmarks: one Test.make per experiment's core kernel,
   measuring the primitive each table/figure exercises. *)

open Bechamel
open Toolkit
module Mst = Holistic_core.Mst
module Prev = Holistic_core.Prev_occurrence
module Ost = Holistic_baselines.Order_statistic_tree
module Inc = Holistic_baselines.Incremental
module Seg = Holistic_baselines.Segment_tree
module Scenarios = Holistic_data.Scenarios

let n = 100_000
let keys = lazy (Scenarios.uniform_ints ~n ~bound:n ())
let tree = lazy (Mst.create ~pool:(Harness.pool ()) (Lazy.force keys))
let prev_tree = lazy (Mst.create ~pool:(Harness.pool ()) (Prev.compute ~pool:(Harness.pool ()) (Lazy.force keys)))
let seg =
  lazy
    (let a = Lazy.force keys in
     Seg.create ~identity:0 ~combine:( + ) (Array.length a) (fun i -> a.(i)))

let counter = ref 0

let next_frame () =
  counter := (!counter + 7919) mod n;
  let i = !counter in
  (max 0 (i - (n / 20)), i + 1)

let tests =
  [
    (* Fig. 9/10/11: merge sort tree construction (build phase) *)
    Test.make ~name:"fig10/mst-build-100k" (Staged.stage (fun () -> Mst.create ~pool:(Harness.pool ()) (Lazy.force keys)));
    (* Fig. 10 rank panel / Fig. 13: one cascaded range-count probe *)
    Test.make ~name:"fig13/mst-count-probe"
      (Staged.stage (fun () ->
           let t = Lazy.force tree in
           let lo, hi = next_frame () in
           Mst.count t ~lo ~hi ~less_than:(Lazy.force keys).(hi - 1)));
    (* Fig. 10 median panel: one cascaded selection probe *)
    Test.make ~name:"fig10/mst-select-probe"
      (let scratch = Mst.create_scratch () in
       Staged.stage (fun () ->
           let t = Lazy.force tree in
           let lo, hi = next_frame () in
           Mst.select t ~scratch ~ranges:[| (lo, hi) |] ~nth:((hi - lo) / 2)));
    (* Fig. 10/14 distinct panel: one back-reference count probe *)
    Test.make ~name:"fig14/distinct-probe"
      (Staged.stage (fun () ->
           let t = Lazy.force prev_tree in
           let lo, hi = next_frame () in
           Mst.count t ~lo ~hi ~less_than:(lo + 1)));
    (* Fig. 10/11 OST competitor: one insert+remove+select step *)
    Test.make ~name:"fig11/ost-step"
      (let ost = Ost.create () in
       for i = 0 to 999 do
         Ost.insert ost ((i * 31) mod 500)
       done;
       Staged.stage (fun () ->
           Ost.insert ost 250;
           ignore (Ost.select ost (Ost.size ost / 2));
           Ost.remove ost 250));
    (* Fig. 11/12 incremental competitor: one sorted-window step *)
    Test.make ~name:"fig12/sorted-window-step"
      (let sw = Inc.Sorted_window.create () in
       for i = 0 to 999 do
         Inc.Sorted_window.add sw ((i * 31) mod 500)
       done;
       Staged.stage (fun () ->
           Inc.Sorted_window.add sw 250;
           ignore (Inc.Sorted_window.select sw (Inc.Sorted_window.size sw / 2));
           Inc.Sorted_window.remove sw 250));
    (* Table 1 substrate: segment-tree range query (distributive aggregates) *)
    Test.make ~name:"table1/segment-tree-query"
      (Staged.stage (fun () ->
           let t = Lazy.force seg in
           let lo, hi = next_frame () in
           Seg.query t ~lo ~hi));
    (* Fig. 14: Algorithm 1 preprocessing over 100k values *)
    Test.make ~name:"fig14/prev-occurrence-100k"
      (Staged.stage (fun () -> Prev.compute ~pool:(Harness.pool ()) (Lazy.force keys)));
  ]

let run () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Harness.section "Bechamel micro-benchmarks (ns per operation)";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols (Instance.monotonic_clock) raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "  %-28s %12.1f ns/run\n%!" name t
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests
