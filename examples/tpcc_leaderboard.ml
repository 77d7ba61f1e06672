(* The paper's §2.4 motivating query: judge each historical TPC-C submission
   against all *previous* submissions only.

     select dbsystem, tps,
            count(distinct dbsystem) over w,
            rank(order by tps desc) over w,
            first_value(tps order by tps desc) over w,
            first_value(dbsystem order by tps desc) over w,
            lead(tps order by tps desc) over w
     from tpcc_results
     window w as (order by submission_date
                  range between unbounded preceding and current row)

   Every one of these framed holistic functions is rejected by SQL:2011;
   with merge sort trees they all run in O(n log n).

   Run with: dune exec examples/tpcc_leaderboard.exe *)

open Holistic_storage
open Holistic_window
module Wf = Window_func

let () =
  let table = Holistic_data.Scenarios.tpcc_results ~rows:1_000 () in
  let by_tps_desc = [ Sort_spec.desc (Expr.Col "tps") ] in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "submission_date") ]
      ~frame:(Window_spec.range_between Window_spec.Unbounded_preceding Window_spec.Current_row)
      ()
  in
  let result =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              Wf.count ~distinct:true ~name:"competing_systems" (Expr.Col "dbsystem");
              Wf.rank ~name:"rank_back_then" by_tps_desc;
              Wf.first_value ~order:by_tps_desc ~name:"best_tps_back_then" (Expr.Col "tps");
              Wf.first_value ~order:by_tps_desc ~name:"leader_back_then" (Expr.Col "dbsystem");
              Wf.lead ~order:by_tps_desc ~name:"next_best_tps" (Expr.Col "tps");
            ];
        };
      ]
  in
  (* Show the submissions that were #1 at the time they were published. *)
  let rank = Table.column result "rank_back_then" in
  let n = Table.nrows result in
  let champions = ref 0 in
  print_endline "Submissions that topped the leaderboard on their submission date:";
  Printf.printf "%-12s %-10s %12s %18s %14s\n" "date" "system" "tps" "competing_systems" "next_best_tps";
  for i = 0 to n - 1 do
    if Column.get rank i = Value.Int 1 && !champions < 15 then begin
      incr champions;
      let cell c = Value.to_string (Column.get (Table.column result c) i) in
      Printf.printf "%-12s %-10s %12s %18s %14s\n" (cell "submission_date") (cell "dbsystem")
        (cell "tps") (cell "competing_systems") (cell "next_best_tps")
    end
  done;
  Printf.printf "\n(%d rows analysed; every row was ranked only against earlier submissions.)\n" n
