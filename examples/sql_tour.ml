(* A tour of the SQL front end: the paper's proposed syntax extensions
   (§2.4) running end-to-end as actual SQL text.

   Run with: dune exec examples/sql_tour.exe *)

open Holistic_storage
module Sql = Holistic_sql.Sql
module Task_pool = Holistic_parallel.Task_pool

let run pool tables title q =
  Printf.printf "\n-- %s\n%s\n\n" title (String.trim q);
  Table.print ~max_rows:8 (Sql.query ~pool ~tables q)

let () =
  let lineitem = Holistic_data.Tpch.lineitem ~rows:20_000 () in
  let tpcc = Holistic_data.Scenarios.tpcc_results ~rows:400 () in
  let tables = [ ("lineitem", lineitem); ("tpcc_results", tpcc) ] in
  (* Every statement runs on one task pool the caller creates and owns. *)
  let pool = Task_pool.create (Domain.recommended_domain_count ()) in

  run pool tables "framed DISTINCT aggregate — rejected by SQL:2011, O(n log n) here"
    {|select l_shipdate,
       count(distinct l_partkey) over w as parts_this_week,
       sum(distinct l_quantity) over w as distinct_quantities
     from lineitem
     window w as (order by l_shipdate
                  range between interval '1 week' preceding and current row)
     order by l_shipdate limit 8|};

  run pool tables "framed percentile with its own ORDER BY (1)"
    {|select l_shipdate,
       percentile_disc(0.99 order by l_receiptdate - l_shipdate) over w as p99_delay,
       percentile_cont(0.5 order by l_extendedprice) over w as median_price
     from lineitem
     window w as (order by l_shipdate rows between 999 preceding and current row)
     order by l_shipdate limit 8|};

  run pool tables "the flagship leaderboard query (2.4): two independent orders"
    {|select submission_date, dbsystem, tps,
       rank(order by tps desc) over w as rank_back_then,
       first_value(dbsystem order by tps desc) over w as leader,
       lead(tps order by tps desc) over w as next_best,
       count(distinct dbsystem) over w as competitors
     from tpcc_results
     window w as (order by submission_date
                  range between unbounded preceding and current row)
     order by submission_date desc limit 8|};

  run pool tables "FILTER + frame exclusion + CASE"
    {|select l_shipdate, l_quantity,
       avg(l_extendedprice) filter (where l_quantity > 25) over
         (order by l_shipdate rows between 100 preceding and 100 following
          exclude current row) as peers_avg_price,
       case when l_quantity > 25 then 'bulk' else 'small' end as class
     from lineitem
     order by l_shipdate limit 8|};

  print_endline "\n-- explain output for a framed rank:";
  print_string
    (Sql.explain
       "select rank(order by tps desc) over (order by submission_date \
        groups between 3 preceding and current row exclude ties) from tpcc_results");
  Task_pool.shutdown pool
