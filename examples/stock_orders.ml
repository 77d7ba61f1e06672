(* The paper's §2.2 stock-market example: frame bounds that are *per-row
   expressions*, producing non-monotonic window frames.

     select price > median(price) over (
         order by placement_time
         range between current row and good_for following)
     from stock_orders

   Each limit order is compared with the median of all orders placed during
   its own validity interval. Incremental algorithms degrade to O(n²) on
   such frames (§6.5); the merge sort tree does not rely on frame overlap
   and stays O(n log n).

   Run with: dune exec examples/stock_orders.exe -- [rows] *)

open Holistic_storage
open Holistic_window
module Wf = Window_func

let () =
  let rows = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20_000 in
  let table = Holistic_data.Scenarios.stock_orders ~rows () in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "placement_time") ]
      ~frame:
        (Window_spec.range_between Window_spec.Current_row
           (Window_spec.Following (Expr.Col "good_for")))
      ()
  in
  let result =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              Wf.median ~name:"median_while_valid" (Expr.Col "price");
              Wf.count_star ~name:"concurrent_orders" ();
            ];
        };
      ]
  in
  let price = Table.column result "price" in
  let med = Table.column result "median_while_valid" in
  let cnt = Table.column result "concurrent_orders" in
  let favorable = ref 0 and total = ref 0 and windows = ref 0 in
  for i = 0 to Table.nrows result - 1 do
    match Column.get price i, Column.get med i, Column.get cnt i with
    | Value.Float p, Value.Float m, Value.Int c ->
        incr total;
        windows := !windows + c;
        if p > m then incr favorable
    | _ -> ()
  done;
  Printf.printf "Analysed %d limit orders with per-row validity windows.\n" !total;
  Printf.printf "Average orders live during a validity window: %.1f\n"
    (float_of_int !windows /. float_of_int !total);
  Printf.printf "Orders priced above the median of their validity window: %d (%.1f%%)\n" !favorable
    (100.0 *. float_of_int !favorable /. float_of_int !total);
  print_newline ();
  print_endline "First rows:";
  Table.print ~max_rows:8 result
