(* Quickstart: build a table, compute a moving median and a framed distinct
   count through the window operator.

   Run with: dune exec examples/quickstart.exe *)

open Holistic_storage
open Holistic_window
module Wf = Window_func

let () =
  (* A tiny sensor log: timestamps, readings, device ids. *)
  let table =
    Table.create
      [
        ("ts", Column.ints [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |]);
        ("reading", Column.floats [| 5.0; 9.0; 7.0; 8.0; 30.0; 7.5; 8.5; 6.0; 7.0; 9.0 |]);
        ("device", Column.ints [| 1; 2; 1; 2; 1; 2; 1; 2; 1; 2 |]);
      ]
  in
  (* OVER (ORDER BY ts ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) *)
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "ts") ]
      ~frame:(Window_spec.rows_between (Window_spec.preceding 4) Window_spec.Current_row)
      ()
  in
  let result =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              (* median(reading) OVER w — a framed holistic aggregate, the paper's
                 headline capability *)
              Wf.median ~name:"moving_median" (Expr.Col "reading");
              (* count(DISTINCT device) OVER w *)
              Wf.count ~distinct:true ~name:"devices_in_window" (Expr.Col "device");
              (* rank(ORDER BY reading DESC) OVER w — a framed rank with its own
                 ORDER BY, the paper's proposed SQL extension *)
              Wf.rank ~name:"rank_in_window" [ Sort_spec.desc (Expr.Col "reading") ];
            ];
        };
      ]
  in
  print_endline "Moving statistics over the last 5 readings:";
  Table.print result
