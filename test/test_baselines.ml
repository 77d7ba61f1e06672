module Ost = Holistic_baselines.Order_statistic_tree
module Inc = Holistic_baselines.Incremental
module Seg = Holistic_baselines.Segment_tree
module Naive = Holistic_baselines.Naive
module Rng = Holistic_util.Rng

(* ------------------------------------------------------------------ *)
(* Counted B-tree vs a sorted-list model                               *)
(* ------------------------------------------------------------------ *)

(* operation sequence: Some v = insert v, None = remove a random present
   element *)
let ost_model_test =
  QCheck.Test.make ~name:"counted B-tree matches sorted-list model" ~count:150
    QCheck.(pair (int_range 2 8) (list (option (int_bound 25))))
    (fun (deg, ops) ->
      let t = Ost.create ~min_degree:deg () in
      let model = ref [] in
      let rng = Rng.create (List.length ops) in
      List.iter
        (fun op ->
          match op with
          | Some v ->
              Ost.insert t v;
              model := v :: !model
          | None -> (
              match !model with
              | [] -> ()
              | l ->
                  let arr = Array.of_list l in
                  let v = arr.(Rng.int rng (Array.length arr)) in
                  Ost.remove t v;
                  let rec drop = function
                    | [] -> []
                    | x :: r -> if x = v then r else x :: drop r
                  in
                  model := drop l))
        ops;
      Ost.check_invariants t;
      let sorted = List.sort compare !model in
      let arr = Array.of_list sorted in
      Ost.size t = Array.length arr
      && Array.for_all (fun i -> Ost.select t i = arr.(i)) (Array.init (Array.length arr) Fun.id)
      && List.for_all
           (fun k -> Ost.rank t k = List.length (List.filter (fun x -> x < k) sorted))
           (List.init 27 (fun k -> k - 1)))

let test_ost_remove_absent () =
  let t = Ost.create () in
  Ost.insert t 5;
  Alcotest.check_raises "remove absent" Not_found (fun () -> Ost.remove t 7);
  Alcotest.(check int) "unchanged" 1 (Ost.size t)

(* An absent key is found absent only at the leaf, after the one descent
   has decremented the counts on its path and refilled thin children on
   the way: the counts must come back and the borrows and merges must
   leave a valid tree.  Small degrees make every descent restructure. *)
let test_ost_remove_absent_deep () =
  let rng = Rng.create 29 in
  List.iter
    (fun deg ->
      let t = Ost.create ~min_degree:deg () in
      let model = ref [] in
      let check ctx =
        Ost.check_invariants t;
        let arr = Array.of_list (List.sort compare !model) in
        Alcotest.(check int) (ctx ^ ": size") (Array.length arr) (Ost.size t);
        Array.iteri (fun i v -> if Ost.select t i <> v then Alcotest.failf "%s: select %d" ctx i) arr;
        for k = -2 to 202 do
          let want = Array.fold_left (fun acc x -> if x < k then acc + 1 else acc) 0 arr in
          if Ost.rank t k <> want then Alcotest.failf "%s: rank %d" ctx k
        done
      in
      for _ = 1 to 300 do
        let v = 2 * Rng.int rng 101 in
        Ost.insert t v;
        model := v :: !model
      done;
      for step = 1 to 400 do
        match Rng.int rng 3 with
        | 0 ->
            let v = 2 * Rng.int rng 101 in
            Ost.insert t v;
            model := v :: !model
        | 1 -> (
            match !model with
            | [] -> ()
            | v :: rest ->
                Ost.remove t v;
                model := rest)
        | _ ->
            (* odd keys and keys outside the stored range are never present *)
            let v = match Rng.int rng 3 with 0 -> -1 | 1 -> 201 | _ -> (2 * Rng.int rng 100) + 1 in
            Alcotest.check_raises "absent key" Not_found (fun () -> Ost.remove t v);
            check (Printf.sprintf "deg %d step %d remove %d" deg step v)
      done)
    [ 2; 3; 16 ]

let test_ost_duplicates_heavy () =
  let t = Ost.create ~min_degree:2 () in
  for _ = 1 to 500 do
    Ost.insert t 42
  done;
  Ost.insert t 41;
  Ost.insert t 43;
  Ost.check_invariants t;
  Alcotest.(check int) "size" 502 (Ost.size t);
  Alcotest.(check int) "rank of duplicate" 1 (Ost.rank t 42);
  Alcotest.(check int) "rank above" 501 (Ost.rank t 43);
  Alcotest.(check int) "select middle" 42 (Ost.select t 250);
  for _ = 1 to 500 do
    Ost.remove t 42
  done;
  Ost.check_invariants t;
  Alcotest.(check int) "only sentinels left" 2 (Ost.size t);
  Alcotest.(check bool) "42 gone" false (Ost.mem t 42)

let test_ost_select_bounds () =
  let t = Ost.create () in
  Alcotest.check_raises "empty select"
    (Invalid_argument "Order_statistic_tree.select: out of bounds") (fun () ->
      ignore (Ost.select t 0))

let test_ost_clear () =
  let t = Ost.create () in
  for i = 1 to 100 do
    Ost.insert t i
  done;
  Ost.clear t;
  Alcotest.(check int) "cleared" 0 (Ost.size t);
  Ost.insert t 1;
  Alcotest.(check int) "usable after clear" 1 (Ost.size t)

(* ------------------------------------------------------------------ *)
(* Segment trees                                                       *)
(* ------------------------------------------------------------------ *)

let segment_tree_oracle =
  QCheck.Test.make ~name:"segment tree queries match folds" ~count:300
    QCheck.(list (float_range (-100.) 100.))
    (fun l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let leaf i = a.(i) in
      let sum = Seg.create ~identity:0.0 ~combine:( +. ) n leaf in
      let mn = Seg.create ~identity:infinity ~combine:(fun a b -> if a <= b then a else b) n leaf in
      let mx = Seg.create ~identity:neg_infinity ~combine:(fun a b -> if a >= b then a else b) n leaf in
      let ok = ref true in
      for lo = -1 to n do
        let hi = min n (lo + 7) in
        let bsum = ref 0.0 and bmin = ref infinity and bmax = ref neg_infinity in
        for i = max lo 0 to hi - 1 do
          bsum := !bsum +. a.(i);
          if a.(i) < !bmin then bmin := a.(i);
          if a.(i) > !bmax then bmax := a.(i)
        done;
        if abs_float (Seg.query sum ~lo ~hi -. !bsum) > 1e-6 then ok := false;
        if Seg.query mn ~lo ~hi <> !bmin then ok := false;
        if Seg.query mx ~lo ~hi <> !bmax then ok := false
      done;
      !ok)

(* a non-commutative monoid: string concatenation preserves leaf order *)
let test_segment_tree_order () =
  let words = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  let t = Seg.create ~identity:"" ~combine:( ^ ) 7 (fun i -> words.(i)) in
  Alcotest.(check string) "left-to-right" "bcdef" (Seg.query t ~lo:1 ~hi:6);
  Alcotest.(check string) "full" "abcdefg" (Seg.query t ~lo:0 ~hi:7);
  Alcotest.(check string) "empty" "" (Seg.query t ~lo:3 ~hi:3)

let test_segment_tree_int_sum () =
  let t = Seg.create ~identity:0 ~combine:( + ) 100 (fun i -> i) in
  Alcotest.(check int) "sum" (100 * 99 / 2) (Seg.query t ~lo:0 ~hi:100);
  Alcotest.(check int) "clamped" (100 * 99 / 2) (Seg.query t ~lo:(-5) ~hi:200)

(* ------------------------------------------------------------------ *)
(* Incremental state (Wesley & Xu)                                     *)
(* ------------------------------------------------------------------ *)

let test_distinct_count_state () =
  let dc = Inc.Distinct_count.create () in
  Inc.Distinct_count.add dc 1;
  Inc.Distinct_count.add dc 1;
  Inc.Distinct_count.add dc 2;
  Alcotest.(check int) "two distinct" 2 (Inc.Distinct_count.count dc);
  Inc.Distinct_count.remove dc 1;
  Alcotest.(check int) "still two" 2 (Inc.Distinct_count.count dc);
  Inc.Distinct_count.remove dc 1;
  Alcotest.(check int) "one left" 1 (Inc.Distinct_count.count dc);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Incremental.Distinct_count.remove: absent value") (fun () ->
      Inc.Distinct_count.remove dc 1)

let sorted_window_model =
  QCheck.Test.make ~name:"sorted window matches sorted-list model" ~count:200
    QCheck.(list (option (int_bound 15)))
    (fun ops ->
      let sw = Inc.Sorted_window.create () in
      let model = ref [] in
      let rng = Rng.create 5 in
      List.iter
        (fun op ->
          match op with
          | Some v ->
              Inc.Sorted_window.add sw v;
              model := v :: !model
          | None -> (
              match !model with
              | [] -> ()
              | l ->
                  let arr = Array.of_list l in
                  let v = arr.(Rng.int rng (Array.length arr)) in
                  Inc.Sorted_window.remove sw v;
                  let rec drop = function
                    | [] -> []
                    | x :: r -> if x = v then r else x :: drop r
                  in
                  model := drop l))
        ops;
      let sorted = List.sort compare !model in
      Inc.Sorted_window.size sw = List.length sorted
      && List.for_all
           (fun (i, v) -> Inc.Sorted_window.select sw i = v)
           (List.mapi (fun i v -> (i, v)) sorted)
      && List.for_all
           (fun k -> Inc.Sorted_window.rank sw k = List.length (List.filter (fun x -> x < k) sorted))
           (List.init 17 (fun k -> k - 1)))

let mode_state_model =
  QCheck.Test.make ~name:"mode buckets match counting model" ~count:200
    QCheck.(list (option (int_bound 8)))
    (fun ops ->
      let st = Inc.Mode.create () in
      let model = Hashtbl.create 8 in
      let rng = Rng.create 11 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Some v ->
              Inc.Mode.add st v;
              Hashtbl.replace model v (1 + Option.value (Hashtbl.find_opt model v) ~default:0)
          | None -> (
              let present = Hashtbl.fold (fun k c acc -> if c > 0 then k :: acc else acc) model [] in
              match present with
              | [] -> ()
              | l ->
                  let v = List.nth l (Rng.int rng (List.length l)) in
                  Inc.Mode.remove st v;
                  Hashtbl.replace model v (Hashtbl.find model v - 1)));
          let max_c = Hashtbl.fold (fun _ c acc -> max c acc) model 0 in
          let size = Hashtbl.fold (fun _ c acc -> acc + c) model 0 in
          if Inc.Mode.max_count st <> max_c || Inc.Mode.size st <> size then ok := false;
          let best = Inc.Mode.mode st ~better:(fun a b -> a < b) in
          let expect =
            Hashtbl.fold
              (fun k c acc -> if c = max_c && c > 0 then (match acc with None -> Some k | Some b -> Some (min b k)) else acc)
              model None
          in
          if best <> expect then ok := false)
        ops;
      !ok)

let test_frame_driver_non_monotonic () =
  (* frames jumping around: drivers must re-add/remove correctly *)
  let vals = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let frames = [| (0, 3); (5, 8); (2, 6); (2, 6); (0, 1); (7, 8); (0, 8); (4, 4) |] in
  let dc = Inc.Distinct_count.create () in
  let out = Array.make 8 (-1) in
  Inc.Frame_driver.run ~n:8
    ~frame:(fun i -> frames.(i))
    ~add:(fun j -> Inc.Distinct_count.add dc vals.(j))
    ~remove:(fun j -> Inc.Distinct_count.remove dc vals.(j))
    ~result:(fun i -> out.(i) <- Inc.Distinct_count.count dc)
    ~reset:(fun () -> Inc.Distinct_count.clear dc)
    ~lo:0 ~hi:8;
  let expect =
    Array.map
      (fun (lo, hi) ->
        let module IS = Set.Make (Int) in
        let s = ref IS.empty in
        for i = lo to hi - 1 do
          s := IS.add vals.(i) !s
        done;
        IS.cardinal !s)
      frames
  in
  Alcotest.(check (array int)) "per-row distinct counts" expect out

let test_frame_driver_clamps () =
  let out = ref [] in
  let cur = ref 0 in
  Inc.Frame_driver.run ~n:3
    ~frame:(fun i -> (i - 10, i + 10))
    ~add:(fun _ -> incr cur)
    ~remove:(fun _ -> decr cur)
    ~result:(fun _ -> out := !cur :: !out)
    ~reset:(fun () -> cur := 0)
    ~lo:0 ~hi:3;
  Alcotest.(check (list int)) "clamped to n" [ 3; 3; 3 ] (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Naive helpers                                                       *)
(* ------------------------------------------------------------------ *)

let quickselect_oracle =
  QCheck.Test.make ~name:"quickselect matches sort" ~count:300
    QCheck.(list_of_size QCheck.Gen.(int_range 1 60) (int_bound 20))
    (fun l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let scratch = Array.make n 0 in
      let sorted = List.sort compare l in
      List.for_all
        (fun (k, v) -> Naive.select_kth a ~scratch ~ranges:[| (0, n) |] ~k = v)
        (List.mapi (fun k v -> (k, v)) sorted))

let test_naive_multi_range () =
  let a = [| 9; 1; 8; 2; 7; 3; 6; 4 |] in
  let scratch = Array.make 8 0 in
  let ranges = [| (0, 2); (4, 6) |] in
  (* covered values: 9 1 7 3 *)
  Alcotest.(check int) "kth across ranges" 3 (Naive.select_kth a ~scratch ~ranges ~k:1);
  Alcotest.(check int) "count_less" 2 (Naive.count_less a ~ranges ~less_than:7);
  Alcotest.(check int) "distinct" 4 (Naive.distinct_count a ~ranges);
  Alcotest.(check int) "distinct below" 2 (Naive.distinct_below a ~ranges ~key:7)

let () =
  Alcotest.run "baselines"
    [
      ( "order_statistic_tree",
        [
          QCheck_alcotest.to_alcotest ost_model_test;
          Alcotest.test_case "remove absent" `Quick test_ost_remove_absent;
          Alcotest.test_case "remove absent in a deep tree" `Quick test_ost_remove_absent_deep;
          Alcotest.test_case "duplicate heavy" `Quick test_ost_duplicates_heavy;
          Alcotest.test_case "select bounds" `Quick test_ost_select_bounds;
          Alcotest.test_case "clear" `Quick test_ost_clear;
        ] );
      ( "segment_tree",
        [
          QCheck_alcotest.to_alcotest segment_tree_oracle;
          Alcotest.test_case "non-commutative order" `Quick test_segment_tree_order;
          Alcotest.test_case "int sum" `Quick test_segment_tree_int_sum;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "distinct count state" `Quick test_distinct_count_state;
          QCheck_alcotest.to_alcotest sorted_window_model;
          QCheck_alcotest.to_alcotest mode_state_model;
          Alcotest.test_case "non-monotonic driver" `Quick test_frame_driver_non_monotonic;
          Alcotest.test_case "driver clamps frames" `Quick test_frame_driver_clamps;
        ] );
      ( "naive",
        [
          QCheck_alcotest.to_alcotest quickselect_oracle;
          Alcotest.test_case "multi-range helpers" `Quick test_naive_multi_range;
        ] );
    ]
