module Introsort = Holistic_sort.Introsort
module Multiway = Holistic_sort.Multiway
module Parallel_sort = Holistic_sort.Parallel_sort
module Task_pool = Holistic_parallel.Task_pool
module Rng = Holistic_util.Rng
open Holistic_storage

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let test_sort_basic () =
  let a = [| 5; 1; 4; 1; 5; 9; 2; 6 |] in
  let expect = sorted_copy a in
  Introsort.sort a;
  Alcotest.(check (array int)) "sorted" expect a

let test_sort_edges () =
  let empty = [||] in
  Introsort.sort empty;
  Alcotest.(check (array int)) "empty" [||] empty;
  let one = [| 42 |] in
  Introsort.sort one;
  Alcotest.(check (array int)) "singleton" [| 42 |] one;
  let eq = Array.make 1000 7 in
  Introsort.sort eq;
  Alcotest.(check bool) "all equal" true (Array.for_all (( = ) 7) eq)

let test_sort_adversarial_duplicates () =
  (* §5.3: heavy duplication (mostly zeros) must not blow the stack or go
     quadratic — 3-way partitioning handles it. *)
  let rng = Rng.create 3 in
  let n = 200_000 in
  let a = Array.init n (fun _ -> if Rng.int rng 100 = 0 then Rng.int rng 5 else 0) in
  let expect = sorted_copy a in
  let t0 = Unix.gettimeofday () in
  Introsort.sort a;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check (array int)) "sorted" expect a;
  Alcotest.(check bool) "not quadratic" true (dt < 5.0)

let test_sort_range () =
  let a = [| 9; 8; 7; 6; 5; 4 |] in
  Introsort.sort_range a ~lo:1 ~hi:4;
  Alcotest.(check (array int)) "segment only" [| 9; 6; 7; 8; 5; 4 |] a

let sort_oracle =
  QCheck.Test.make ~name:"introsort matches List.sort" ~count:300
    QCheck.(list int)
    (fun l ->
      let a = Array.of_list l in
      Introsort.sort a;
      Array.to_list a = List.sort compare l)

let pair_sort_stability =
  QCheck.Test.make ~name:"pair sort = stable sort by key" ~count:300
    QCheck.(list (int_bound 20))
    (fun l ->
      let key = Array.of_list l in
      let payload = Array.init (Array.length key) (fun i -> i) in
      Introsort.sort_pairs ~key ~payload;
      (* expected: stable sort of (value, original index) *)
      let expect =
        List.sort compare (List.mapi (fun i v -> (v, i)) l)
      in
      List.combine (Array.to_list key) (Array.to_list payload)
      = List.map (fun (v, i) -> (v, i)) expect)

let test_sort_indices_stable () =
  let keys = [| 3; 1; 3; 1; 3 |] in
  let idx = Introsort.sort_indices_by 5 ~cmp:(fun i j -> compare keys.(i) keys.(j)) in
  Alcotest.(check (array int)) "stable ties" [| 1; 3; 0; 2; 4 |] idx

let test_sort_indices_comparator () =
  let a = [| 1; 2; 3; 4; 5 |] in
  let idx = Introsort.sort_indices_by 5 ~cmp:(fun i j -> compare a.(j) a.(i)) in
  Alcotest.(check (array int)) "descending" [| 4; 3; 2; 1; 0 |] idx

(* ------------------------------------------------------------------ *)
(* The one key-word sort against the stable comparator sort            *)
(* ------------------------------------------------------------------ *)

(* A key-word sort case: [nwords] duplicate-heavy int words (ascending
   ints are their own order-preserving words) and, with a residual, a
   descending int column that only the residual comparator decides. The
   same columns make a table, so the oracle is the stable
   [Sort_spec.comparator] sort of the equivalent ORDER BY. *)
type case = {
  n : int;
  words : int array array;
  tie : (int -> int -> int) option;
  expect : int array;
}

let make_case rng ~n ~nwords ~residual ~dup =
  let words = Array.init nwords (fun _ -> Array.init n (fun _ -> Rng.int rng dup)) in
  let side = Array.init n (fun _ -> Rng.int rng dup) in
  let col w = Printf.sprintf "w%d" w in
  let table =
    Table.create
      (("r", Column.ints side) :: List.init nwords (fun w -> (col w, Column.ints words.(w))))
  in
  let rkey = Sort_spec.desc (Expr.Col "r") in
  let spec =
    List.init nwords (fun w -> Sort_spec.asc (Expr.Col (col w))) @ if residual then [ rkey ] else []
  in
  let tie = if residual then Some (Sort_spec.key_comparator table rkey) else None in
  { n; words; tie; expect = Introsort.sort_indices_by n ~cmp:(Sort_spec.comparator table spec) }

(* a case drawn from [seed]: 0-3 words, residual or not, 1-4 distinct
   values per word *)
let random_case ~seed ~n =
  let rng = Rng.create seed in
  let nwords = Rng.int rng 4 and residual = Rng.bool rng and dup = 1 + Rng.int rng 4 in
  (rng, make_case rng ~n ~nwords ~residual ~dup)

let identity_view c = Multiway.of_words ~words:c.words ?tie:c.tie (Array.init c.n Fun.id)

(* rank of every row in the oracle order *)
let oracle_rank c =
  let rank = Array.make c.n 0 in
  Array.iteri (fun r row -> rank.(row) <- r) c.expect;
  rank

let key0_of c row = if Array.length c.words = 0 then 0 else c.words.(0).(row)

let key0_travels c ~key0 ~payload =
  Array.for_all2 (fun k row -> k = key0_of c row) key0 payload

(* [k] sorted runs tiling the identity view at random cut points (empty
   runs included) *)
let sorted_runs rng c ~k =
  let cuts = Array.init (k - 1) (fun _ -> Rng.int rng (c.n + 1)) in
  Array.sort compare cuts;
  let bounds = Array.concat [ [| 0 |]; cuts; [| c.n |] ] in
  let runs = Array.init k (fun r -> { Multiway.lo = bounds.(r); hi = bounds.(r + 1) }) in
  let mw = identity_view c in
  Array.iter (fun { Multiway.lo; hi } -> Multiway.sort_range mw ~lo ~hi) runs;
  (mw, runs)

let segment_sort_oracle =
  QCheck.Test.make ~name:"segment sort = stable comparator sort of the segment" ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 0 60))
    (fun (seed, n) ->
      let rng, c = random_case ~seed ~n in
      let lo = Rng.int rng (n + 1) in
      let hi = lo + Rng.int rng (n - lo + 1) in
      let mw = identity_view c in
      Multiway.sort_range mw ~lo ~hi;
      let rank = oracle_rank c in
      let seg = Array.init (hi - lo) (fun i -> lo + i) in
      Array.sort (fun a b -> compare rank.(a) rank.(b)) seg;
      Array.sub mw.Multiway.payload lo (hi - lo) = seg
      && Array.for_all (fun i -> mw.Multiway.payload.(i) = i) (Array.init lo Fun.id)
      && Array.for_all (fun i -> mw.Multiway.payload.(i) = i) (Array.init (n - hi) (( + ) hi))
      && key0_travels c ~key0:mw.Multiway.key0 ~payload:mw.Multiway.payload)

let test_multiway_merge () =
  let key = [| 1; 4; 9; 2; 2; 7; 0; 5 |] in
  let c = { n = 8; words = [| key |]; tie = None; expect = [| 6; 0; 3; 4; 1; 7; 5; 2 |] } in
  let mw = identity_view c in
  let runs = [| { Multiway.lo = 0; hi = 3 }; { Multiway.lo = 3; hi = 6 }; { Multiway.lo = 6; hi = 8 } |] in
  let dst_key0 = Array.make 8 (-1) and dst_payload = Array.make 8 (-1) in
  Multiway.merge_multiword ~mw ~runs ~dst_key0 ~dst_payload ~dst_pos:0;
  Alcotest.(check (array int)) "merged keys" [| 0; 1; 2; 2; 4; 5; 7; 9 |] dst_key0;
  Alcotest.(check (array int)) "equal keys in row order" c.expect dst_payload

let merge_oracle =
  QCheck.Test.make ~name:"k-way merge = stable comparator sort" ~count:300
    QCheck.(triple (int_bound 100_000) (int_range 0 60) (int_range 1 6))
    (fun (seed, n, k) ->
      let rng, c = random_case ~seed ~n in
      let mw, runs = sorted_runs rng c ~k in
      let dst_key0 = Array.make n (-1) and dst_payload = Array.make n (-1) in
      Multiway.merge_multiword ~mw ~runs ~dst_key0 ~dst_payload ~dst_pos:0;
      dst_payload = c.expect && key0_travels c ~key0:dst_key0 ~payload:dst_payload)

let split_at_rank_oracle =
  QCheck.Test.make ~name:"split_at_rank_by prefixes hold the rank smallest rows" ~count:300
    QCheck.(triple (int_bound 100_000) (int_range 0 60) (int_range 1 4))
    (fun (seed, n, k) ->
      let rng, c = random_case ~seed ~n in
      let mw, runs = sorted_runs rng c ~k in
      let cmp = Multiway.compare_positions mw in
      let rank = oracle_rank c in
      List.for_all
        (fun r ->
          let cuts = Multiway.split_at_rank_by ~less:(fun i j -> cmp i j < 0) ~runs ~rank:r in
          let ok = ref true and taken = ref 0 in
          Array.iteri
            (fun i cut ->
              let { Multiway.lo; hi } = runs.(i) in
              if cut < lo || cut > hi then ok := false
              else
                for p = lo to hi - 1 do
                  let below = rank.(mw.Multiway.payload.(p)) < r in
                  if below <> (p < cut) then ok := false;
                  if p < cut then incr taken
                done)
            cuts;
          !ok && !taken = r)
        [ 0; n / 3; n / 2; n ])

let pool1 = Task_pool.create 1
let pool2 = Task_pool.create 2
let () = at_exit (fun () -> Task_pool.shutdown pool2)

let sort_encoded_oracle =
  QCheck.Test.make ~name:"sort_encoded = stable comparator sort (task sizes, 1 and 2 domains)"
    ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 0 80))
    (fun (seed, n) ->
      let rng, c = random_case ~seed ~n in
      let task_size = 1 + Rng.int rng (max 1 n) in
      let pool = if Rng.bool rng then pool1 else pool2 in
      let perm, key0 = Parallel_sort.sort_encoded pool ~task_size ~n ~words:c.words ?tie:c.tie () in
      perm = c.expect
      && if Array.length c.words = 0 then key0 = [||] else key0_travels c ~key0 ~payload:perm)

let test_parallel_sort_large () =
  let rng = Rng.create 4 in
  let n = 100_000 in
  let c = make_case rng ~n ~nwords:1 ~residual:false ~dup:1000 in
  let perm, key0 = Parallel_sort.sort_encoded pool2 ~n ~words:c.words () in
  Alcotest.(check bool) "stable order" true (perm = c.expect);
  Alcotest.(check bool) "keys travel" true (key0_travels c ~key0 ~payload:perm)

let () =
  Alcotest.run "sort"
    [
      ( "introsort",
        [
          Alcotest.test_case "basic" `Quick test_sort_basic;
          Alcotest.test_case "edges" `Quick test_sort_edges;
          Alcotest.test_case "adversarial duplicates" `Slow test_sort_adversarial_duplicates;
          Alcotest.test_case "range" `Quick test_sort_range;
          Alcotest.test_case "stable index sort" `Quick test_sort_indices_stable;
          Alcotest.test_case "comparator sort" `Quick test_sort_indices_comparator;
          QCheck_alcotest.to_alcotest sort_oracle;
          QCheck_alcotest.to_alcotest pair_sort_stability;
        ] );
      ( "multiway",
        [
          Alcotest.test_case "merge" `Quick test_multiway_merge;
          QCheck_alcotest.to_alcotest merge_oracle;
          QCheck_alcotest.to_alcotest split_at_rank_oracle;
          QCheck_alcotest.to_alcotest segment_sort_oracle;
        ] );
      ( "parallel_sort",
        [
          QCheck_alcotest.to_alcotest sort_encoded_oracle;
          Alcotest.test_case "large" `Quick test_parallel_sort_large;
        ] );
    ]
