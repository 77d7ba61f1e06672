(* In-place quickselect (Hoare) with 3-way partitioning and random-ish pivot
   via median-of-3, used on scratch copies of the frame. *)
let rec quickselect (a : int array) lo hi k =
  if hi - lo <= 1 then a.(lo)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let p =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let v = a.(!i) in
      if v < p then begin
        a.(!i) <- a.(!lt);
        a.(!lt) <- v;
        incr lt;
        incr i
      end
      else if v > p then begin
        decr gt;
        a.(!i) <- a.(!gt);
        a.(!gt) <- v
      end
      else incr i
    done;
    if k < !lt - lo then quickselect a lo !lt k
    else if k < !gt - lo then p
    else quickselect a !gt hi (k - (!gt - lo))
  end

let covered_length ranges =
  Array.fold_left (fun acc (lo, hi) -> acc + Int.max 0 (hi - lo)) 0 ranges

let select_kth values ~scratch ~ranges ~k =
  let len = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        scratch.(!len) <- values.(i);
        incr len
      done)
    ranges;
  if k < 0 || k >= !len then invalid_arg "Naive.select_kth: k out of bounds";
  quickselect scratch 0 !len k

(* [int array] pins the comparison to ints: unannotated, [<] compiles to
   the polymorphic compare, a C call per scanned element. *)
let count_less (values : int array) ~ranges ~less_than =
  let acc = ref 0 in
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = ranges.(r) in
    for i = lo to hi - 1 do
      if values.(i) < less_than then incr acc
    done
  done;
  !acc

let distinct_count values ~ranges =
  let table = Hashtbl.create (max 16 (covered_length ranges)) in
  Array.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        Hashtbl.replace table values.(i) ()
      done)
    ranges;
  Hashtbl.length table

let distinct_below values ~ranges ~key =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        if values.(i) < key then Hashtbl.replace table values.(i) ()
      done)
    ranges;
  Hashtbl.length table
