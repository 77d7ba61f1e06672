(* Cross-width parity for the merge sort tree template (paper §5.1): the
   64-bit, 32-bit and 16-bit instantiations must be bit-identical oracles
   of each other on every query, across ragged tails, disabled cascading,
   holed frames and values parked on the storage-width boundaries. Also
   covers the width-selection rule ([Mst_width]) and the footprint claim
   that a directly-built narrow tree holds no 64-bit level/cursor arrays. *)

module Mst = Holistic_core.Mst
module W = Holistic_core.Mst_width
module C = W.M32
module M16 = W.M16
module Rng = Holistic_util.Rng

(* ------------------------------------------------------------------ *)
(* Brute-force oracles                                                 *)
(* ------------------------------------------------------------------ *)

let brute_count a lo hi t =
  let acc = ref 0 in
  for i = max lo 0 to min hi (Array.length a) - 1 do
    if a.(i) < t then incr acc
  done;
  !acc

let brute_count_ranges a ranges t =
  Array.fold_left (fun acc (lo, hi) -> acc + brute_count a lo hi t) 0 ranges

let in_ranges ranges v = Array.exists (fun (l, h) -> v >= l && v < h) ranges

let brute_cvr a ranges =
  Array.fold_left (fun acc v -> if in_ranges ranges v then acc + 1 else acc) 0 a

let brute_select a ranges nth =
  let m = ref nth and res = ref None in
  Array.iter
    (fun v -> if !res = None && in_ranges ranges v then if !m = 0 then res := Some v else decr m)
    a;
  !res

(* ------------------------------------------------------------------ *)
(* Randomized parity across all three instantiations                   *)
(* ------------------------------------------------------------------ *)

(* Value regimes park operands on the storage boundaries: around 2^15 and
   the 16-bit ceiling 2^16 - 1 (still 16-bit-capable), just past it
   (32/64-bit only), and against the int32 ceiling near 2^31 (64-bit
   confirms the 32-bit edge). *)
type regime = Small | Near_2_15 | Near_2_16 | Over_16 | Near_2_31

let regime_base = function
  | Small -> 0
  | Near_2_15 -> 32760 (* spans 2^15 = 32768 *)
  | Near_2_16 -> 65519 (* touches the 16-bit max 65535 *)
  | Over_16 -> 65530 (* spans past 65535: disqualifies the 16-bit tree *)
  | Near_2_31 -> Int32.to_int Int32.max_int - 16 (* touches the 32-bit max *)

let regime_span = 17 (* values in [base, base + span) *)

let width_case =
  QCheck.make
    ~print:(fun (a, f, k) ->
      Printf.sprintf "n=%d f=%d k=%d [%s]" (Array.length a) f k
        (String.concat ";" (Array.to_list (Array.map string_of_int a))))
    QCheck.Gen.(
      let* regime = oneofl [ Small; Small; Near_2_15; Near_2_16; Over_16; Near_2_31 ] in
      let base = regime_base regime in
      let* n = int_bound 230 in
      let* a = array_size (return n) (map (fun d -> base + d) (int_bound (regime_span - 1))) in
      let* f = oneofl [ 2; 3; 4; 8; 16; 32; 64 ] in
      let* k = oneofl [ 0; 1; 2; 4; 8; 32; 100 ] in
      return (a, f, k))

(* Holed positional frames (frame-exclusion, §4.7): up to three disjoint
   [lo, hi) position ranges, possibly degenerate or out of bounds. *)
let random_pos_ranges rng n =
  let l1 = Rng.int rng (n + 2) - 1 in
  let h1 = l1 + Rng.int rng (1 + (n / 2)) in
  let l2 = h1 + Rng.int rng 4 in
  let h2 = l2 + Rng.int rng (1 + (n / 3)) in
  let l3 = h2 + Rng.int rng 4 in
  let h3 = l3 + Rng.int rng (1 + (n / 4)) in
  match Rng.int rng 3 with
  | 0 -> [| (l1, h1) |]
  | 1 -> [| (l1, h1); (l2, h2) |]
  | _ -> [| (l1, h1); (l2, h2); (l3, h3) |]

(* Disjoint ascending value ranges over [base, base + span), with gaps so
   select descends through holes in the value domain too. *)
let random_value_ranges rng base =
  let l1 = base + Rng.int rng regime_span in
  let h1 = l1 + Rng.int rng 8 in
  let l2 = h1 + Rng.int rng 3 in
  let h2 = l2 + Rng.int rng 8 in
  match Rng.int rng 2 with 0 -> [| (l1, h1) |] | _ -> [| (l1, h1); (l2, h2) |]

let widths_agree =
  QCheck.Test.make ~name:"64/32/16-bit trees are bit-identical to the oracle" ~count:400
    width_case (fun (a, f, k) ->
      let n = Array.length a in
      let minv = Array.fold_left min 0 a and maxv = Array.fold_left max 0 a in
      let t64 = Mst.create ~pool:Shared_pool.pool ~fanout:f ~sample:k a in
      let t32 =
        if minv >= Int32.to_int Int32.min_int && maxv <= Int32.to_int Int32.max_int then
          Some (C.create ~pool:Shared_pool.pool ~fanout:f ~sample:k a)
        else None
      in
      let t16 =
        if minv >= 0 && maxv <= 0xFFFF && n <= 0xFFFF then Some (M16.create ~pool:Shared_pool.pool ~fanout:f ~sample:k a)
        else None
      in
      let base = if n = 0 then 0 else minv in
      let rng = Rng.create ((n * 131) + (f * 7) + k) in
      let scratch = W.create_scratch () in
      let ok = ref true in
      let check name got expect =
        if got <> expect then begin
          Printf.eprintf "width parity: %s got %d expect %d\n" name got expect;
          ok := false
        end
      in
      for _ = 1 to 25 do
        (* count over a single window *)
        let lo = Rng.int rng (n + 2) - 1 and hi = Rng.int rng (n + 2) - 1 in
        let th = base + Rng.int rng (regime_span + 4) - 2 in
        let expect = brute_count a lo hi th in
        check "count64" (Mst.count t64 ~lo ~hi ~less_than:th) expect;
        Option.iter (fun t -> check "count32" (C.count t ~lo ~hi ~less_than:th) expect) t32;
        Option.iter (fun t -> check "count16" (M16.count t ~lo ~hi ~less_than:th) expect) t16;
        (* count over a holed frame *)
        let pr = random_pos_ranges rng n in
        let expect = brute_count_ranges a pr th in
        check "count_ranges64" (Mst.count_ranges t64 ~ranges:pr ~less_than:th) expect;
        Option.iter (fun t -> check "count_ranges32" (C.count_ranges t ~ranges:pr ~less_than:th) expect) t32;
        Option.iter (fun t -> check "count_ranges16" (M16.count_ranges t ~ranges:pr ~less_than:th) expect) t16;
        (* qualifying population and select over value ranges *)
        let vr = random_value_ranges rng base in
        let expect = brute_cvr a vr in
        check "cvr64" (Mst.count_value_ranges t64 ~ranges:vr) expect;
        Option.iter (fun t -> check "cvr32" (C.count_value_ranges t ~ranges:vr) expect) t32;
        Option.iter (fun t -> check "cvr16" (M16.count_value_ranges t ~ranges:vr) expect) t16;
        if expect > 0 then begin
          let nth = Rng.int rng expect in
          match brute_select a vr nth with
          | None -> ok := false
          | Some v ->
              check "select64" (Mst.select t64 ~scratch ~ranges:vr ~nth) v;
              Option.iter (fun t -> check "select32" (C.select t ~scratch ~ranges:vr ~nth) v) t32;
              Option.iter (fun t -> check "select16" (M16.select t ~scratch ~ranges:vr ~nth) v) t16
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Leaf scans: probes settle overlaps of at most [fanout] elements by   *)
(* scanning level 0                                                     *)
(* ------------------------------------------------------------------ *)

let forced_widths = [ (W.W16, "16"); (W.W32, "32"); (W.W64, "64") ]

(* Operands of [n] elements that are a permutation of [0, n): shuffled,
   ascending and descending, so select's value ranges pick scattered,
   contiguous and reversed positions. *)
let operands n =
  let rng = Rng.create (n + 5) in
  let shuffled = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  [ shuffled; Array.init n (fun i -> i); Array.init n (fun i -> n - 1 - i) ]

(* Ranges of fanout - 1, fanout and fanout + 1 elements placed on, just
   before, just after and across run boundaries of levels 1 and 2 (the
   first two, and the start of the ragged last run), plus the empty and
   full-cover ranges. *)
let boundary_ranges ~n ~f =
  let acc = ref [ (0, n); (-3, n + 3); (0, 0); (n / 2, n / 2); (n, n) ] in
  List.iter
    (fun stride ->
      List.iter
        (fun b ->
          List.iter
            (fun len ->
              List.iter
                (fun d -> acc := (b - d, b - d + len) :: !acc)
                [ 0; 1; len / 2; len - 1; len ])
            [ f - 1; f; f + 1 ])
        [ stride; 2 * stride; n - (n mod stride); n ])
    [ f; f * f ];
  !acc

let test_leaf_scan_parity () =
  List.iter
    (fun f ->
      (* a ragged last run at every level: n is no multiple of f *)
      let n = (3 * f * f) + 7 in
      let ranges = Array.of_list (boundary_ranges ~n ~f) in
      let nr = Array.length ranges in
      List.iteri
        (fun op a ->
          List.iter
            (fun sample ->
              List.iter
                (fun (w, wname) ->
                  let t = W.create ~pool:Shared_pool.pool ~fanout:f ~sample ~choice:(W.Force w) a in
                  let scratch = W.create_scratch () in
                  let label what i =
                    Printf.sprintf "%s w=%s f=%d k=%d operand %d case %d" what wname f sample op i
                  in
                  Array.iteri
                    (fun i (lo, hi) ->
                      let th = [| 0; n; (i * 7919) mod n; (if lo >= 0 && lo < n then a.(lo) else 1) |] in
                      Array.iter
                        (fun th ->
                          Alcotest.(check int) (label "count" i) (brute_count a lo hi th)
                            (W.count t ~lo ~hi ~less_than:th))
                        th;
                      (* holed frames: this range, then one or two more
                         with the lengths of its successors *)
                      let l2, h2 = ranges.((i + 1) mod nr) and l3, h3 = ranges.((i + 2) mod nr) in
                      let w2 = h2 - l2 and w3 = h3 - l3 in
                      let holed =
                        if i land 1 = 0 then [| (lo, hi); (hi + 1, hi + 1 + w2) |]
                        else [| (lo, hi); (hi + 2, hi + 2 + w2); (hi + 4 + w2, hi + 4 + w2 + w3) |]
                      in
                      let th = a.((i * 31) mod n) in
                      Alcotest.(check int) (label "count_ranges" i) (brute_count_ranges a holed th)
                        (W.count_ranges t ~ranges:holed ~less_than:th);
                      (* the same ranges as value ranges: select's first,
                         middle and last qualifying element *)
                      List.iter
                        (fun vr ->
                          let total = brute_cvr a vr in
                          Alcotest.(check int) (label "count_value_ranges" i) total
                            (W.count_value_ranges t ~ranges:vr);
                          List.iter
                            (fun nth ->
                              Alcotest.(check (option int)) (label "select" i)
                                (brute_select a vr nth)
                                (Some (W.select t ~scratch ~ranges:vr ~nth)))
                            (if total = 0 then [] else [ 0; total / 2; total - 1 ]))
                        [ [| (lo, hi) |]; holed ])
                    ranges)
                forced_widths)
            [ 32; 7; 0 ])
        (operands n))
    [ 2; 4; 5; 32 ]

(* ------------------------------------------------------------------ *)
(* Neighbour search                                                    *)
(* ------------------------------------------------------------------ *)

(* The (k+1)-th element in [ranges], scanning from base position [from]
   upwards, or from [from - 1] downwards; -1 when there is none. *)
let brute_neighbour a ranges ~from ~k ~forward =
  let step i = if forward then i + 1 else i - 1 in
  let rec go i k =
    if i < 0 || i >= Array.length a then -1
    else if in_ranges ranges a.(i) then if k = 0 then a.(i) else go (step i) (k - 1)
    else go (step i) k
  in
  go (if forward then from else from - 1) k

(* Zero to three disjoint ascending value ranges over [0, vmax], some of
   them empty. *)
let disjoint_value_ranges rng vmax =
  let at = ref 0 in
  Array.init (Rng.int rng 4) (fun _ ->
      let lo = !at + Rng.int rng (1 + (vmax / 4)) in
      let hi = lo + if Rng.int rng 4 = 0 then 0 else Rng.int rng (1 + (vmax / 3)) in
      at := hi;
      (lo, hi))

let neighbour_case =
  QCheck.make
    ~print:(fun (seed, n, f, k, perm) ->
      Printf.sprintf "seed=%d n=%d f=%d k=%d permutation=%b" seed n f k perm)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = oneof [ int_bound 70; int_bound 1_200 ] in
      let* f = oneofl [ 2; 3; 32 ] in
      let* k = oneofl [ 0; 1; 32 ] in
      let* perm = bool in
      return (seed, n, f, k, perm))

(* Every width, built directly and run-stacked onto a tree of a prefix,
   against the brute-force scan; one scratch serves every probe. *)
let neighbour_agrees =
  QCheck.Test.make ~name:"neighbour equals a brute-force scan" ~count:300 neighbour_case
    (fun (seed, n, f, sample, perm) ->
      let rng = Rng.create seed in
      let a =
        if perm then List.hd (operands n) else Array.init n (fun _ -> Rng.int rng (max 1 (n / 3)))
      in
      let scratch = W.create_scratch () in
      let ok = ref true in
      List.iter
        (fun (w, wname) ->
          let choice = W.Force w in
          let full = W.create ~pool:Shared_pool.pool ~fanout:f ~sample ~choice a in
          let n0 = Rng.int rng (n + 1) in
          let stacked =
            W.try_extend ~fanout:f ~sample ~choice
              (W.create ~pool:Shared_pool.pool ~fanout:f ~sample ~choice (Array.sub a 0 n0))
              a
          in
          if stacked = None then begin
            Printf.eprintf "neighbour: %s-bit append from %d rows declined\n" wname n0;
            ok := false
          end;
          List.iter
            (fun (tree, t) ->
              for _ = 1 to 30 do
                let ranges = disjoint_value_ranges rng n in
                let from = Rng.int rng (n + 1) and forward = Rng.bool rng in
                let k = Rng.int rng (3 + (brute_cvr a ranges / 2)) in
                let expect = brute_neighbour a ranges ~from ~k ~forward in
                let got = W.neighbour t ~scratch ~ranges ~from ~k ~forward in
                if got <> expect then begin
                  Printf.eprintf "neighbour %s-bit %s: from=%d k=%d forward=%b got %d expect %d\n"
                    wname tree from k forward got expect;
                  ok := false
                end
              done)
            (("created", full) :: Option.to_list (Option.map (fun t -> ("appended", t)) stacked)))
        forced_widths;
      !ok)

(* ------------------------------------------------------------------ *)
(* Allocation: probes allocate no words                                 *)
(* ------------------------------------------------------------------ *)

let sink = ref 0

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* 1 000 calls each of count, count_ranges, select and neighbour, after a
   warm-up that grows the probe scratch, allocate exactly the words of the
   same loop without the probe: nothing. *)
let test_probes_allocate_nothing () =
  let n = 5_000 and calls = 1_000 in
  let a = List.hd (operands n) in
  let rng = Rng.create 77 in
  let span () =
    let lo = Rng.int rng n in
    (lo, min n (lo + 1 + Rng.int rng 600))
  in
  let singles = Array.init calls (fun _ -> span ()) in
  let holed =
    Array.init calls (fun i ->
        let lo, hi = singles.(i) in
        if i land 1 = 0 then [| (lo, hi); (hi + 1, hi + 40) |]
        else [| (lo, hi); (hi + 1, hi + 3); (hi + 5, hi + 700) |])
  in
  let th = Array.init calls (fun _ -> Rng.int rng n) in
  let nth =
    Array.init calls (fun i -> Rng.int rng (max 1 (brute_cvr a holed.(i))))
  in
  let from = Array.init calls (fun _ -> Rng.int rng (n + 1)) in
  List.iter
    (fun sample ->
      List.iter
        (fun (w, wname) ->
          let t = W.create ~pool:Shared_pool.pool ~sample ~choice:(W.Force w) a in
          let scratch = W.create_scratch () in
          let count () =
            for i = 0 to calls - 1 do
              let lo, hi = singles.(i) in
              sink := !sink + W.count t ~lo ~hi ~less_than:th.(i)
            done
          in
          let count_ranges () =
            for i = 0 to calls - 1 do
              sink := !sink + W.count_ranges t ~ranges:holed.(i) ~less_than:th.(i)
            done
          in
          let select () =
            for i = 0 to calls - 1 do
              sink := !sink + W.select t ~scratch ~ranges:holed.(i) ~nth:nth.(i)
            done
          in
          let neighbour () =
            for i = 0 to calls - 1 do
              sink :=
                !sink
                + W.neighbour t ~scratch ~ranges:holed.(i) ~from:from.(i) ~k:(nth.(i) land 7)
                    ~forward:(i land 1 = 0)
            done
          in
          let empty () =
            for i = 0 to calls - 1 do
              sink := !sink + th.(i)
            done
          in
          List.iter (fun f -> f ()) [ count; count_ranges; select; neighbour; empty ];
          let base = minor_words empty in
          List.iter
            (fun (name, f) ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s words, %s-bit, sample %d" name wname sample)
                base (minor_words f))
            [
              ("count", count);
              ("count_ranges", count_ranges);
              ("select", select);
              ("neighbour", neighbour);
            ])
        forced_widths)
    [ 32; 0 ]

(* ------------------------------------------------------------------ *)
(* Width boundaries: rejection                                         *)
(* ------------------------------------------------------------------ *)

let test_rejection () =
  Alcotest.check_raises "16-bit rejects negatives"
    (Invalid_argument "Mst_width.M16.create: value exceeds 16-bit storage range") (fun () ->
      ignore (M16.create ~pool:Shared_pool.pool [| 3; -1 |]));
  Alcotest.check_raises "16-bit rejects 65536"
    (Invalid_argument "Mst_width.M16.create: value exceeds 16-bit storage range") (fun () ->
      ignore (M16.create ~pool:Shared_pool.pool [| 65535; 65536 |]));
  Alcotest.check_raises "16-bit rejects over-long arrays"
    (Invalid_argument "Mst_width.M16.create: length 65536 exceeds 16-bit storage") (fun () ->
      ignore (M16.create ~pool:Shared_pool.pool (Array.make 65536 1)));
  Alcotest.check_raises "32-bit rejects over-range values"
    (Invalid_argument "Mst_width.M32.create: value exceeds 32-bit storage range") (fun () ->
      ignore (C.create ~pool:Shared_pool.pool [| Int32.to_int Int32.max_int + 1 |]));
  Alcotest.check_raises "32-bit rejects under-range values"
    (Invalid_argument "Mst_width.M32.create: value exceeds 32-bit storage range") (fun () ->
      ignore (C.create ~pool:Shared_pool.pool [| 0; Int32.to_int Int32.min_int - 1 |]));
  (* the widest boundary values that must be accepted *)
  let t = M16.create ~pool:Shared_pool.pool [| 0; 65535 |] in
  Alcotest.(check int) "16-bit max stored" 1
    (M16.count t ~lo:0 ~hi:2 ~less_than:65535);
  let t = C.create ~pool:Shared_pool.pool [| Int32.to_int Int32.min_int; Int32.to_int Int32.max_int |] in
  Alcotest.(check int) "32-bit extremes stored" 1
    (C.count t ~lo:0 ~hi:2 ~less_than:0)

(* ------------------------------------------------------------------ *)
(* Footprint: a direct narrow build holds no 64-bit arrays              *)
(* ------------------------------------------------------------------ *)

let test_narrow_footprint () =
  let n = 5_000 in
  let a = Array.init n (fun i -> (i * 2654435761) land 0xFFFF) in
  let s64 = Mst.stats (Mst.create ~pool:Shared_pool.pool ~fanout:4 ~sample:8 a) in
  let s32 = C.stats (C.create ~pool:Shared_pool.pool ~fanout:4 ~sample:8 a) in
  let s16 = M16.stats (M16.create ~pool:Shared_pool.pool ~fanout:4 ~sample:8 a) in
  (* identical shapes: same element population at every width *)
  Alcotest.(check int) "level elements 32" s64.Mst.level_elements s32.C.level_elements;
  Alcotest.(check int) "level elements 16" s64.Mst.level_elements s16.M16.level_elements;
  Alcotest.(check int) "cursor elements 32" s64.Mst.cursor_elements s32.C.cursor_elements;
  Alcotest.(check int) "cursor elements 16" s64.Mst.cursor_elements s16.M16.cursor_elements;
  (* the narrow representations are exactly 4 (resp. 2) bytes per element:
     were any 64-bit level or cursor array still allocated and retained,
     these equalities could not hold *)
  let elems s = s.Mst.level_elements + s.Mst.cursor_elements + s.Mst.payload_elements in
  Alcotest.(check int) "64-bit bytes" (8 * elems s64) s64.Mst.heap_bytes;
  Alcotest.(check int) "32-bit bytes are half"
    (4 * (s32.C.level_elements + s32.C.cursor_elements + s32.C.payload_elements))
    s32.C.heap_bytes;
  Alcotest.(check int) "16-bit bytes are a quarter"
    (2 * (s16.M16.level_elements + s16.M16.cursor_elements + s16.M16.payload_elements))
    s16.M16.heap_bytes;
  Alcotest.(check int) "32 = 64 / 2" (s64.Mst.heap_bytes / 2) s32.C.heap_bytes;
  Alcotest.(check int) "16 = 64 / 4" (s64.Mst.heap_bytes / 4) s16.M16.heap_bytes

(* ------------------------------------------------------------------ *)
(* Width selection                                                     *)
(* ------------------------------------------------------------------ *)

let test_width_for () =
  let check name expect ~n ~min_value ~max_value =
    Alcotest.(check bool) name true (W.width_for ~n ~min_value ~max_value = expect)
  in
  check "small dense ranks -> 16" W.W16 ~n:100 ~min_value:0 ~max_value:200;
  check "16-bit ceiling -> 16" W.W16 ~n:0xFFFF ~min_value:0 ~max_value:0xFFFF;
  check "negative min -> 32" W.W32 ~n:100 ~min_value:(-1) ~max_value:200;
  check "value past 65535 -> 32" W.W32 ~n:100 ~min_value:0 ~max_value:65536;
  check "length past 65535 -> 32" W.W32 ~n:65536 ~min_value:0 ~max_value:10;
  check "int32 ceiling -> 32" W.W32 ~n:1000 ~min_value:Int32.(to_int min_int)
    ~max_value:Int32.(to_int max_int);
  check "value past int32 -> 64" W.W64 ~n:10 ~min_value:0 ~max_value:(Int32.to_int Int32.max_int + 1);
  check "length past int32 -> 64" W.W64 ~n:(Int32.to_int Int32.max_int + 1) ~min_value:0 ~max_value:1

let test_width_dispatch () =
  let a = Array.init 777 (fun i -> (i * 37) mod 500) in
  let auto = W.create ~pool:Shared_pool.pool a in
  Alcotest.(check bool) "auto picks 16-bit for dense ranks" true (W.width auto = W.W16);
  Alcotest.(check int) "auto bits" 16 (W.bits (W.width auto));
  let forced64 = W.create ~pool:Shared_pool.pool ~choice:(W.Force W.W64) a in
  Alcotest.(check bool) "force 64 respected" true (W.width forced64 = W.W64);
  (* forcing a width the operand does not fit widens instead of failing *)
  let wide = Array.init 50 (fun i -> 65530 + i) in
  let widened = W.create ~pool:Shared_pool.pool ~choice:(W.Force W.W16) wide in
  Alcotest.(check bool) "forced 16 widens to 32" true (W.width widened = W.W32);
  (* a length past 65535 disqualifies the 16-bit tree even for small values *)
  let long = Array.init 70_000 (fun i -> (i * 7919) mod 100) in
  let long_auto = W.create ~pool:Shared_pool.pool ~fanout:16 ~sample:16 long in
  Alcotest.(check bool) "auto picks 32-bit by length" true (W.width long_auto = W.W32);
  Alcotest.(check int) "32-bit by length counts" (brute_count long 1_000 69_000 50)
    (W.count long_auto ~lo:1_000 ~hi:69_000 ~less_than:50);
  let t64 = Mst.create ~pool:Shared_pool.pool a in
  let rng = Rng.create 991 in
  let ok = ref true in
  for _ = 1 to 40 do
    let lo = Rng.int rng 780 - 1 and hi = Rng.int rng 780 - 1 in
    let th = Rng.int rng 520 - 10 in
    let expect = Mst.count t64 ~lo ~hi ~less_than:th in
    List.iter
      (fun t -> if W.count t ~lo ~hi ~less_than:th <> expect then ok := false)
      [ auto; forced64; W.create ~pool:Shared_pool.pool ~choice:(W.Force W.W32) a ]
  done;
  Alcotest.(check bool) "dispatch parity across forced widths" true !ok;
  Alcotest.(check bool) "narrow dispatch is smaller" true
    (W.footprint_bytes auto < W.footprint_bytes forced64)

(* Empty and singleton operands at every width, automatic and forced. *)
let test_tiny_trees () =
  let scratch = W.create_scratch () in
  List.iter
    (fun a ->
      List.iter
        (fun choice ->
          let t = W.create ~pool:Shared_pool.pool ~choice a in
          let n = Array.length a and ranges = [| (0, 10) |] in
          Alcotest.(check int) "tiny length" n (W.length t);
          Alcotest.(check int) "tiny count" (brute_count a 0 n 6) (W.count t ~lo:0 ~hi:n ~less_than:6);
          Alcotest.(check int) "tiny count_value_ranges" (brute_cvr a ranges)
            (W.count_value_ranges t ~ranges);
          Alcotest.(check int) "tiny neighbour"
            (brute_neighbour a ranges ~from:0 ~k:0 ~forward:true)
            (W.neighbour t ~scratch ~ranges ~from:0 ~k:0 ~forward:true);
          if n > 0 then
            Alcotest.(check int) "singleton select" a.(0) (W.select t ~scratch ~ranges ~nth:0))
        (W.Auto :: List.map (fun (w, _) -> W.Force w) forced_widths))
    [ [||]; [| 5 |] ]

(* Signed values: the 64-bit tree and the automatic choice (the 32-bit
   tree, whose storage is signed) agree with a scan on every probe. *)
let test_signed_64 () =
  let rng = Rng.create 43 in
  let n = 3000 in
  let a = Array.init n (fun _ -> Rng.int_in rng (-1_000_000) 1_000_000) in
  let t = Mst.create ~pool:Shared_pool.pool ~fanout:8 ~sample:8 a in
  let auto = W.create ~pool:Shared_pool.pool ~fanout:8 ~sample:8 a in
  Alcotest.(check bool) "auto picks 32-bit for signed values" true (W.width auto = W.W32);
  let scratch = Mst.create_scratch () in
  for _ = 1 to 300 do
    let lo = Rng.int rng (n + 1) in
    let hi = lo + Rng.int rng (n + 1 - lo) in
    let v = Rng.int_in rng (-1_100_000) 1_100_000 in
    Alcotest.(check int) "count" (brute_count a lo hi v) (Mst.count t ~lo ~hi ~less_than:v);
    Alcotest.(check int) "auto count" (brute_count a lo hi v) (W.count auto ~lo ~hi ~less_than:v);
    let vlo = Rng.int_in rng (-1_100_000) 1_100_000 in
    let ranges = [| (vlo, vlo + Rng.int rng 600_000) |] in
    let m = brute_cvr a ranges in
    Alcotest.(check int) "count_value_ranges" m (Mst.count_value_ranges t ~ranges);
    if m > 0 then begin
      let nth = Rng.int rng m in
      Alcotest.(check (option int)) "select" (brute_select a ranges nth)
        (Some (Mst.select t ~scratch ~ranges ~nth))
    end
  done

let () =
  Alcotest.run "width"
    [
      ( "parity",
        [
          QCheck_alcotest.to_alcotest widths_agree;
          Alcotest.test_case "leaf-scan boundaries" `Quick test_leaf_scan_parity;
          QCheck_alcotest.to_alcotest neighbour_agrees;
        ] );
      ("allocation", [ Alcotest.test_case "probes allocate nothing" `Quick test_probes_allocate_nothing ]);
      ( "boundaries",
        [
          Alcotest.test_case "rejection at width edges" `Quick test_rejection;
          Alcotest.test_case "narrow footprint" `Quick test_narrow_footprint;
        ] );
      ( "selection",
        [
          Alcotest.test_case "width_for rule" `Quick test_width_for;
          Alcotest.test_case "dispatch and forcing" `Quick test_width_dispatch;
          Alcotest.test_case "empty and singleton trees" `Quick test_tiny_trees;
          Alcotest.test_case "64-bit tree over signed values" `Quick test_signed_64;
        ] );
    ]
