module Bs = Holistic_util.Binary_search
module Bitset = Holistic_util.Bitset
module Int_vec = Holistic_util.Int_vec
module Rng = Holistic_util.Rng

let test_lower_bound () =
  let a = [| 1; 3; 3; 3; 7; 9 |] in
  Alcotest.(check int) "before all" 0 (Bs.lower_bound a ~lo:0 ~hi:6 0);
  Alcotest.(check int) "first equal" 1 (Bs.lower_bound a ~lo:0 ~hi:6 3);
  Alcotest.(check int) "past equal" 4 (Bs.upper_bound a ~lo:0 ~hi:6 3);
  Alcotest.(check int) "after all" 6 (Bs.lower_bound a ~lo:0 ~hi:6 100);
  Alcotest.(check int) "within segment" 4 (Bs.lower_bound a ~lo:4 ~hi:6 2);
  Alcotest.(check int) "empty segment" 3 (Bs.lower_bound a ~lo:3 ~hi:3 0)

let lower_bound_oracle =
  QCheck.Test.make ~name:"lower_bound matches linear scan" ~count:500
    QCheck.(pair (list small_int) small_int)
    (fun (l, x) ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      let expect =
        let rec go i = if i < n && a.(i) < x then go (i + 1) else i in
        go 0
      in
      Bs.lower_bound a ~lo:0 ~hi:n x = expect)

let test_bitset_basic () =
  let b = Bitset.create 70 in
  Alcotest.(check int) "empty count" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 69;
  Bitset.set b 33;
  Alcotest.(check bool) "get set" true (Bitset.get b 33);
  Alcotest.(check bool) "get unset" false (Bitset.get b 34);
  Alcotest.(check int) "count" 3 (Bitset.count b);
  Bitset.clear b 33;
  Alcotest.(check int) "count after clear" 2 (Bitset.count b);
  Bitset.set_all b;
  Alcotest.(check int) "set_all respects capacity" 70 (Bitset.count b);
  Bitset.clear_all b;
  Alcotest.(check int) "clear_all" 0 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "past end" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      ignore (Bitset.get b 8))

let test_bitset_union_iter () =
  let a = Bitset.create 20 and b = Bitset.create 20 in
  Bitset.set a 1;
  Bitset.set a 5;
  Bitset.set b 5;
  Bitset.set b 13;
  let u = Bitset.union a b in
  let collected = ref [] in
  Bitset.iter_set u (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "union members" [ 1; 5; 13 ] (List.rev !collected)

(* Two bitsets over one buffer: [a], 13 bits with room, and [b], [a]
   extended in place by 20 bits, three of them in [a]'s last byte. Every
   reader of [a] stops at its own 13 bits, and so does every writer. *)
let test_bitset_shared_buffer () =
  let members t =
    let l = ref [] in
    Bitset.iter_set t (fun i -> l := i :: !l);
    List.rev !l
  in
  let a = Bitset.create ~capacity:64 13 in
  Bitset.set a 2;
  Bitset.set a 12;
  let delta = Bitset.create 20 in
  List.iter (Bitset.set delta) [ 0; 1; 2; 10; 19 ];
  let b = Bitset.extend a delta in
  Alcotest.(check int) "longer length" 33 (Bitset.length b);
  Alcotest.(check (list int)) "longer members" [ 2; 12; 13; 14; 15; 23; 32 ] (members b);
  Alcotest.(check int) "longer count" 7 (Bitset.count b);
  Alcotest.(check int) "shorter length" 13 (Bitset.length a);
  Alcotest.(check (list int)) "shorter members" [ 2; 12 ] (members a);
  Alcotest.(check int) "count stops at the length" 2 (Bitset.count a);
  let c = Bitset.copy a in
  Alcotest.(check int) "copy stops at the length" 2 (Bitset.count c);
  Alcotest.(check bool) "copy has no room" true (Bitset.capacity c < 13 + 8);
  Alcotest.(check (list int)) "append stops at the length" [ 2; 12 ]
    (members (Bitset.append a (Bitset.create 5)));
  Alcotest.(check (list int)) "union stops at the length" [ 2; 12 ]
    (members (Bitset.union a (Bitset.create 13)));
  Alcotest.(check (list int)) "inter stops at the length" [ 12 ]
    (members (Bitset.inter a (Bitset.init 13 (fun i -> i > 2))));
  Alcotest.(check (list int)) "complement stops at the length" [ 0; 1; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
    (members (Bitset.complement a));
  Alcotest.(check (list int)) "init" [ 0; 3; 6; 9 ] (members (Bitset.init 10 (fun i -> i mod 3 = 0)));
  Alcotest.(check (list int)) "gather" [ 0; 1 ] (members (Bitset.gather a [| 12; 2; 0 |]));
  Alcotest.check_raises "gather past the length" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.gather a [| 13 |]));
  Alcotest.check_raises "get past the length" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.get a 13));
  Alcotest.check_raises "extend past the capacity" (Invalid_argument "Bitset.extend: no room")
    (fun () -> ignore (Bitset.extend b (Bitset.create 32)));
  Bitset.set_all a;
  Alcotest.(check int) "set_all writes its own bits" 13 (Bitset.count a);
  Alcotest.(check int) "set_all leaves the longer bits" 18 (Bitset.count b);
  Bitset.clear_all a;
  Alcotest.(check (list int)) "clear_all leaves the longer bits" [ 13; 14; 15; 23; 32 ] (members b)

let test_int_vec () =
  let v = Int_vec.create () in
  for i = 0 to 99 do
    Int_vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Int_vec.length v);
  Alcotest.(check int) "get" 81 (Int_vec.get v 9);
  Int_vec.set v 9 (-1);
  Alcotest.(check int) "set" (-1) (Int_vec.get v 9);
  Alcotest.(check int) "pop" 9801 (Int_vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Int_vec.length v);
  Alcotest.(check int) "to_array" 99 (Array.length (Int_vec.to_array v));
  Int_vec.clear v;
  Alcotest.(check int) "clear" 0 (Int_vec.length v)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed, different stream" true (Rng.next a <> Rng.next c)

let rng_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_split () =
  let r = Rng.create 9 in
  let s = Rng.split r in
  (* split stream must differ from parent's continuation *)
  Alcotest.(check bool) "split independent" true (Rng.next s <> Rng.next (Rng.create 9))

let () =
  Alcotest.run "util"
    [
      ( "binary_search",
        [
          Alcotest.test_case "bounds" `Quick test_lower_bound;
          QCheck_alcotest.to_alcotest lower_bound_oracle;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "union/iter" `Quick test_bitset_union_iter;
          Alcotest.test_case "two lengths over one buffer" `Quick test_bitset_shared_buffer;
        ] );
      ("int_vec", [ Alcotest.test_case "basic" `Quick test_int_vec ]);
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split;
          QCheck_alcotest.to_alcotest rng_bounds;
        ] );
    ]
