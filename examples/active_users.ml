(* The paper's §1 opening question: "How many monthly-active users do we
   have — and how did that change over time?"

     select o_orderdate, count(distinct o_custkey) over w
     from orders
     window w as (order by o_orderdate
                  range between '1 month' preceding and current row)

   SQL:2011 explicitly disallows DISTINCT aggregates as window functions;
   this engine evaluates them with a merge sort tree over prev-occurrence
   back-references (§4.2).

   Run with: dune exec examples/active_users.exe -- [rows] *)

open Holistic_storage
open Holistic_window
module Wf = Window_func

let () =
  let rows = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 100_000 in
  let table = Holistic_data.Tpch.orders ~rows () in
  let one_month = Expr.Const (Value.Interval { months = 1; days = 0 }) in
  let over =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "o_orderdate") ]
      ~frame:(Window_spec.range_between (Window_spec.Preceding one_month) Window_spec.Current_row)
      ()
  in
  let result =
    Window_plan.run table
      [
        {
          Window_plan.spec = over;
          items =
            [
              Wf.count ~distinct:true ~name:"monthly_active_customers" (Expr.Col "o_custkey");
              Wf.count_star ~name:"monthly_orders" ();
            ];
        };
      ]
  in
  (* Report the trailing-month active-customer count on the first order date
     of each half year. *)
  let dates = Table.column result "o_orderdate" in
  let mac = Table.column result "monthly_active_customers" in
  let ord = Table.column result "monthly_orders" in
  let best = Hashtbl.create 16 in
  for i = 0 to Table.nrows result - 1 do
    match Column.get dates i with
    | Value.Date d ->
        let y, m, _ = Value.ymd_of_date d in
        let key = (y, (m - 1) / 6) in
        let replace =
          match Hashtbl.find_opt best key with Some (d0, _) -> d > d0 | None -> true
        in
        if replace then Hashtbl.replace best key (d, i)
      | _ -> ()
  done;
  Printf.printf "Trailing-month activity over %d orders (sampled at each half-year end):\n" rows;
  Printf.printf "%-12s %26s %16s\n" "date" "monthly_active_customers" "monthly_orders";
  List.iter
    (fun (_, (d, i)) ->
      Printf.printf "%-12s %26s %16s\n" (Value.date_to_string d)
        (Value.to_string (Column.get mac i))
        (Value.to_string (Column.get ord i)))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) best []))
