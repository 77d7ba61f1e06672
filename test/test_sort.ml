module Introsort = Holistic_sort.Introsort
module Multiway = Holistic_sort.Multiway
module Parallel_sort = Holistic_sort.Parallel_sort
module Task_pool = Holistic_parallel.Task_pool
module Rng = Holistic_util.Rng

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

let test_sort_by_comparator () =
  let a = [| 1; 2; 3; 4; 5 |] in
  Introsort.sort_by a ~cmp:(fun x y -> compare y x);
  Alcotest.(check (array int)) "descending" [| 5; 4; 3; 2; 1 |] a

(* [Multiway.merge_pairs] over keys alone: an identity payload, checked
   to travel with its key. *)
let merge_keys ~src ~runs =
  let n = Array.length src in
  let dst = Array.make n (-1) and dst_payload = Array.make n (-1) in
  Multiway.merge_pairs ~key:src ~payload:(Array.init n Fun.id) ~runs ~dst_key:dst ~dst_payload
    ~dst_pos:0;
  Array.iteri (fun i p -> if src.(p) <> dst.(i) then Alcotest.fail "payload left its key") dst_payload;
  dst

let test_multiway_merge () =
  let src = [| 1; 4; 9; 2; 2; 7; 0; 5 |] in
  let runs = [| { Multiway.lo = 0; hi = 3 }; { Multiway.lo = 3; hi = 6 }; { Multiway.lo = 6; hi = 8 } |] in
  Alcotest.(check (array int)) "merged" [| 0; 1; 2; 2; 4; 5; 7; 9 |] (merge_keys ~src ~runs)

let merge_oracle =
  QCheck.Test.make ~name:"k-way merge matches sort" ~count:300
    QCheck.(pair (list (int_bound 50)) (int_range 1 6))
    (fun (l, k) ->
      let parts = List.init k (fun _ -> ref []) in
      List.iteri (fun i v -> let r = List.nth parts (i mod k) in r := v :: !r) l;
      let sorted_parts = List.map (fun r -> List.sort compare !r) parts in
      let src = Array.of_list (List.concat sorted_parts) in
      let runs = Array.make k { Multiway.lo = 0; hi = 0 } in
      let pos = ref 0 in
      List.iteri
        (fun i p ->
          runs.(i) <- { Multiway.lo = !pos; hi = !pos + List.length p };
          pos := !pos + List.length p)
        sorted_parts;
      Array.to_list (merge_keys ~src ~runs) = List.sort compare l)

let split_at_rank_oracle =
  QCheck.Test.make ~name:"split_at_rank prefixes are a stable-merge prefix" ~count:300
    QCheck.(pair (list (int_bound 10)) (int_range 1 4))
    (fun (l, k) ->
      let n = List.length l in
      let parts = List.init k (fun _ -> ref []) in
      List.iteri (fun i v -> let r = List.nth parts (i mod k) in r := v :: !r) l;
      let sorted_parts = List.map (fun r -> List.sort compare !r) parts in
      let src = Array.of_list (List.concat sorted_parts) in
      let runs = Array.make k { Multiway.lo = 0; hi = 0 } in
      let pos = ref 0 in
      List.iteri
        (fun i p ->
          runs.(i) <- { Multiway.lo = !pos; hi = !pos + List.length p };
          pos := !pos + List.length p)
        sorted_parts;
      QCheck.assume (n >= 0);
      List.for_all
        (fun rank ->
          let cuts = Multiway.split_at_rank ~src ~runs ~rank in
          let taken = ref 0 in
          let ok_bounds = ref true in
          Array.iteri
            (fun i cut ->
              taken := !taken + (cut - runs.(i).Multiway.lo);
              if cut < runs.(i).Multiway.lo || cut > runs.(i).Multiway.hi then ok_bounds := false)
            cuts;
          (* every prefix element must be <= every suffix element *)
          let prefix_max = ref min_int and suffix_min = ref max_int in
          Array.iteri
            (fun i cut ->
              for p = runs.(i).Multiway.lo to cut - 1 do
                if src.(p) > !prefix_max then prefix_max := src.(p)
              done;
              for p = cut to runs.(i).Multiway.hi - 1 do
                if src.(p) < !suffix_min then suffix_min := src.(p)
              done)
            cuts;
          !ok_bounds && !taken = rank && (!prefix_max = min_int || !suffix_min = max_int || !prefix_max <= !suffix_min))
        [ 0; n / 3; n / 2; n ])

let parallel_sort_oracle =
  QCheck.Test.make ~name:"parallel pair sort matches stable sort" ~count:100
    QCheck.(list (int_bound 30))
    (fun l ->
      let pool = Task_pool.create 1 in
      let key = Array.of_list l in
      let payload = Array.init (Array.length key) (fun i -> i) in
      (* tiny task size exercises the multi-run merge path *)
      let runs = Parallel_sort.sort_runs pool ~task_size:3 ~key ~payload () in
      Parallel_sort.merge_runs pool ~key ~payload ~runs;
      Task_pool.shutdown pool;
      let expect = List.sort compare (List.mapi (fun i v -> (v, i)) l) in
      List.combine (Array.to_list key) (Array.to_list payload) = expect)

let test_parallel_sort_large () =
  let pool = Task_pool.create 2 in
  let rng = Rng.create 4 in
  let n = 100_000 in
  let key = Array.init n (fun _ -> Rng.int rng 1000) in
  let expect = sorted_copy key in
  let payload = Array.init n (fun i -> i) in
  Parallel_sort.sort_pairs pool ~key ~payload;
  Alcotest.(check bool) "keys sorted" true (key = expect);
  (* payload permutation must be consistent: payload.(i) indexes an original
     element with the sorted key *)
  let orig = Array.make n 0 in
  Array.iteri (fun i p -> orig.(i) <- p) payload;
  Alcotest.(check bool) "payload is a permutation" true
    (Array.to_list (sorted_copy orig) = List.init n (fun i -> i));
  Task_pool.shutdown pool

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
          Alcotest.test_case "comparator sort" `Quick test_sort_by_comparator;
          QCheck_alcotest.to_alcotest sort_oracle;
          QCheck_alcotest.to_alcotest pair_sort_stability;
        ] );
      ( "multiway",
        [
          Alcotest.test_case "merge" `Quick test_multiway_merge;
          QCheck_alcotest.to_alcotest merge_oracle;
          QCheck_alcotest.to_alcotest split_at_rank_oracle;
        ] );
      ( "parallel_sort",
        [
          QCheck_alcotest.to_alcotest parallel_sort_oracle;
          Alcotest.test_case "large" `Quick test_parallel_sort_large;
        ] );
    ]
