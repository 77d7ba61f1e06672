(* The paper's §1 delivery-time question: "What is the 99th percentile
   worst-case delivery time of a product — and how does it change over
   time?"

     select l_shipdate,
            percentile_disc(0.99, order by l_receiptdate - l_shipdate) over w
     from lineitem
     window w as (order by l_shipdate
                  range between '1 week' preceding and current row)

   SQL:2011 forbids framing percentile_disc; this engine evaluates it with a
   merge sort tree in O(n log n).

   Run with: dune exec examples/moving_percentile.exe -- [rows] *)

open Holistic_storage
open Holistic_window
module Wf = Window_func

let () =
  let rows = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 50_000 in
  let table = Holistic_data.Tpch.lineitem ~rows () in
  let delivery_delay = Expr.(Sub (Col "l_receiptdate", Col "l_shipdate")) in
  let one_week = Expr.Const (Value.Interval { months = 0; days = 7 }) in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "l_shipdate") ]
      ~frame:(Window_spec.range_between (Window_spec.Preceding one_week) Window_spec.Current_row)
      ()
  in
  let result =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              Wf.percentile_disc ~name:"p99_delay_days" 0.99 [ Sort_spec.asc delivery_delay ];
              Wf.median ~name:"median_delay_days" delivery_delay;
              Wf.count_star ~name:"shipments_in_window" ();
            ];
        };
      ]
  in
  (* Summarise the moving p99 by year. *)
  let ship = Table.column result "l_shipdate" in
  let p99 = Table.column result "p99_delay_days" in
  let med = Table.column result "median_delay_days" in
  let per_year = Hashtbl.create 8 in
  for i = 0 to Table.nrows result - 1 do
    match Column.get ship i, Column.get p99 i, Column.get med i with
    | Value.Date d, Value.Int p, Value.Int m ->
        let y, _, _ = Value.ymd_of_date d in
        let sum_p, sum_m, cnt = Option.value (Hashtbl.find_opt per_year y) ~default:(0, 0, 0) in
        Hashtbl.replace per_year y (sum_p + p, sum_m + m, cnt + 1)
    | _ -> ()
  done;
  Printf.printf "Trailing-week delivery delays over %d lineitems (averages per ship year):\n" rows;
  Printf.printf "%6s %22s %24s\n" "year" "avg moving p99 (days)" "avg moving median (days)";
  List.iter
    (fun (y, (sp, sm, c)) ->
      Printf.printf "%6d %22.2f %24.2f\n" y
        (float_of_int sp /. float_of_int c)
        (float_of_int sm /. float_of_int c))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_year []))
