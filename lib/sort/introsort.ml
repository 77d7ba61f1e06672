let insertion_threshold = 24

let depth_limit len =
  let d = ref 0 and n = ref len in
  while !n > 1 do
    incr d;
    n := !n lsr 1
  done;
  2 * !d

(* ------------------------------------------------------------------ *)
(* Plain int-array sort                                               *)
(* ------------------------------------------------------------------ *)

let swap (a : int array) i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

let sift_down (a : int array) lo len root =
  let root = ref root in
  let continue_ = ref true in
  while !continue_ do
    let child = (2 * !root) + 1 in
    if child >= len then continue_ := false
    else begin
      let child =
        if child + 1 < len
           && Array.unsafe_get a (lo + child) < Array.unsafe_get a (lo + child + 1)
        then child + 1
        else child
      in
      if Array.unsafe_get a (lo + !root) < Array.unsafe_get a (lo + child) then begin
        swap a (lo + !root) (lo + child);
        root := child
      end
      else continue_ := false
    end
  done

let heapsort (a : int array) lo hi =
  let len = hi - lo in
  for root = (len / 2) - 1 downto 0 do
    sift_down a lo len root
  done;
  for last = len - 1 downto 1 do
    swap a lo (lo + last);
    sift_down a lo last 0
  done

let median3 (a : int array) i j k =
  let x = a.(i) and y = a.(j) and z = a.(k) in
  if x < y then if y < z then y else if x < z then z else x
  else if x < z then x
  else if y < z then z
  else y

let rec intro (a : int array) lo hi depth =
  let len = hi - lo in
  if len <= insertion_threshold then insertion_sort a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    let p = median3 a lo (lo + (len / 2)) (hi - 1) in
    (* Dutch-national-flag 3-way partition around the fat pivot [p]. *)
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let x = Array.unsafe_get a !i in
      if x < p then begin
        swap a !i !lt;
        incr lt;
        incr i
      end
      else if x > p then begin
        decr gt;
        swap a !i !gt
      end
      else incr i
    done;
    intro a lo !lt (depth - 1);
    intro a !gt hi (depth - 1)
  end

let sort_range a ~lo ~hi =
  if lo < 0 || hi > Array.length a || lo > hi then invalid_arg "Introsort.sort_range";
  intro a lo hi (depth_limit (hi - lo))

let sort a = sort_range a ~lo:0 ~hi:(Array.length a)

(* ------------------------------------------------------------------ *)
(* Lexicographic (key, payload) pair sort                             *)
(* ------------------------------------------------------------------ *)

let swap2 (k : int array) (p : int array) i j =
  let t = Array.unsafe_get k i in
  Array.unsafe_set k i (Array.unsafe_get k j);
  Array.unsafe_set k j t;
  let t = Array.unsafe_get p i in
  Array.unsafe_set p i (Array.unsafe_get p j);
  Array.unsafe_set p j t

(* (k1, p1) < (k2, p2) lexicographically *)
(* Annotated so the comparisons compile to integer instructions instead
   of calls to the polymorphic compare. *)
let pair_less (k1 : int) (p1 : int) k2 p2 = k1 < k2 || (k1 = k2 && p1 < p2)

let insertion_sort2 (k : int array) (p : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let xk = Array.unsafe_get k i and xp = Array.unsafe_get p i in
    let j = ref (i - 1) in
    while
      !j >= lo && pair_less xk xp (Array.unsafe_get k !j) (Array.unsafe_get p !j)
    do
      Array.unsafe_set k (!j + 1) (Array.unsafe_get k !j);
      Array.unsafe_set p (!j + 1) (Array.unsafe_get p !j);
      decr j
    done;
    Array.unsafe_set k (!j + 1) xk;
    Array.unsafe_set p (!j + 1) xp
  done

let sift_down2 (k : int array) (p : int array) lo len root =
  let root = ref root in
  let continue_ = ref true in
  while !continue_ do
    let child = (2 * !root) + 1 in
    if child >= len then continue_ := false
    else begin
      let child =
        if child + 1 < len
           && pair_less
                (Array.unsafe_get k (lo + child))
                (Array.unsafe_get p (lo + child))
                (Array.unsafe_get k (lo + child + 1))
                (Array.unsafe_get p (lo + child + 1))
        then child + 1
        else child
      in
      if pair_less
           (Array.unsafe_get k (lo + !root))
           (Array.unsafe_get p (lo + !root))
           (Array.unsafe_get k (lo + child))
           (Array.unsafe_get p (lo + child))
      then begin
        swap2 k p (lo + !root) (lo + child);
        root := child
      end
      else continue_ := false
    end
  done

let heapsort2 k p lo hi =
  let len = hi - lo in
  for root = (len / 2) - 1 downto 0 do
    sift_down2 k p lo len root
  done;
  for last = len - 1 downto 1 do
    swap2 k p lo (lo + last);
    sift_down2 k p lo last 0
  done

let rec intro2 (k : int array) (p : int array) lo hi depth =
  let len = hi - lo in
  if len <= insertion_threshold then insertion_sort2 k p lo hi
  else if depth = 0 then heapsort2 k p lo hi
  else begin
    let m = lo + (len / 2) in
    (* median-of-3 on pairs: pick the index of the median *)
    let a = lo and b = m and c = hi - 1 in
    let le i j = not (pair_less k.(j) p.(j) k.(i) p.(i)) in
    let mi = if le a b then if le b c then b else if le a c then c else a
             else if le a c then a
             else if le b c then c
             else b
    in
    let pk = k.(mi) and pp = p.(mi) in
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let xk = Array.unsafe_get k !i and xp = Array.unsafe_get p !i in
      if pair_less xk xp pk pp then begin
        swap2 k p !i !lt;
        incr lt;
        incr i
      end
      else if pair_less pk pp xk xp then begin
        decr gt;
        swap2 k p !i !gt
      end
      else incr i
    done;
    intro2 k p lo !lt (depth - 1);
    intro2 k p !gt hi (depth - 1)
  end

let sort_pairs_range ~key ~payload ~lo ~hi =
  if Array.length key <> Array.length payload then
    invalid_arg "Introsort.sort_pairs: length mismatch";
  if lo < 0 || hi > Array.length key || lo > hi then invalid_arg "Introsort.sort_pairs_range";
  intro2 key payload lo hi (depth_limit (hi - lo))

let sort_pairs ~key ~payload =
  sort_pairs_range ~key ~payload ~lo:0 ~hi:(Array.length key)

(* ------------------------------------------------------------------ *)
(* (key, tie-on-payload) pair sort                                     *)
(* ------------------------------------------------------------------ *)

(* Like the lexicographic pair sort, but key ties are resolved by an
   arbitrary comparator on the payload values (not by payload magnitude):
   this is the multi-word normalized-key sort, where the leading key word is
   compared unboxed and contiguous, and [tie] descends into the remaining
   words / residual comparator only when the leading words collide. [tie]
   must be a strict total order (callers end the chain with a row-id
   compare), so the result is deterministic. *)

let insertion_sort2t (k : int array) (p : int array) tie lo hi =
  for i = lo + 1 to hi - 1 do
    let xk = Array.unsafe_get k i and xp = Array.unsafe_get p i in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let jk = Array.unsafe_get k !j in
      xk < jk || (xk = jk && tie xp (Array.unsafe_get p !j) < 0)
    do
      Array.unsafe_set k (!j + 1) (Array.unsafe_get k !j);
      Array.unsafe_set p (!j + 1) (Array.unsafe_get p !j);
      decr j
    done;
    Array.unsafe_set k (!j + 1) xk;
    Array.unsafe_set p (!j + 1) xp
  done

let sift_down2t (k : int array) (p : int array) tie lo len root =
  let less i j =
    let ki = Array.unsafe_get k i and kj = Array.unsafe_get k j in
    ki < kj || (ki = kj && tie (Array.unsafe_get p i) (Array.unsafe_get p j) < 0)
  in
  let root = ref root in
  let continue_ = ref true in
  while !continue_ do
    let child = (2 * !root) + 1 in
    if child >= len then continue_ := false
    else begin
      let child = if child + 1 < len && less (lo + child) (lo + child + 1) then child + 1 else child in
      if less (lo + !root) (lo + child) then begin
        swap2 k p (lo + !root) (lo + child);
        root := child
      end
      else continue_ := false
    end
  done

let heapsort2t k p tie lo hi =
  let len = hi - lo in
  for root = (len / 2) - 1 downto 0 do
    sift_down2t k p tie lo len root
  done;
  for last = len - 1 downto 1 do
    swap2 k p lo (lo + last);
    sift_down2t k p tie lo last 0
  done

let rec intro2t (k : int array) (p : int array) tie lo hi depth =
  let len = hi - lo in
  if len <= insertion_threshold then insertion_sort2t k p tie lo hi
  else if depth = 0 then heapsort2t k p tie lo hi
  else begin
    let m = lo + (len / 2) in
    let less i j = k.(i) < k.(j) || (k.(i) = k.(j) && tie p.(i) p.(j) < 0) in
    let a = lo and b = m and c = hi - 1 in
    let le i j = not (less j i) in
    let mi = if le a b then if le b c then b else if le a c then c else a
             else if le a c then a
             else if le b c then c
             else b
    in
    let pk = k.(mi) and pp = p.(mi) in
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let xk = Array.unsafe_get k !i and xp = Array.unsafe_get p !i in
      if xk < pk || (xk = pk && tie xp pp < 0) then begin
        swap2 k p !i !lt;
        incr lt;
        incr i
      end
      else if pk < xk || (pk = xk && tie pp xp < 0) then begin
        decr gt;
        swap2 k p !i !gt
      end
      else incr i
    done;
    intro2t k p tie lo !lt (depth - 1);
    intro2t k p tie !gt hi (depth - 1)
  end

let sort_pairs_tie_range ~key ~payload ~tie ~lo ~hi =
  if Array.length key <> Array.length payload then
    invalid_arg "Introsort.sort_pairs_tie_range: length mismatch";
  if lo < 0 || hi > Array.length key || lo > hi then
    invalid_arg "Introsort.sort_pairs_tie_range";
  intro2t key payload tie lo hi (depth_limit (hi - lo))

(* ------------------------------------------------------------------ *)
(* Comparator-based element sort                                      *)
(* ------------------------------------------------------------------ *)

let insertion_sort_by (a : int array) cmp lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && cmp (Array.unsafe_get a !j) x > 0 do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

let sift_down_by (a : int array) cmp lo len root =
  let root = ref root in
  let continue_ = ref true in
  while !continue_ do
    let child = (2 * !root) + 1 in
    if child >= len then continue_ := false
    else begin
      let child =
        if child + 1 < len
           && cmp (Array.unsafe_get a (lo + child)) (Array.unsafe_get a (lo + child + 1)) < 0
        then child + 1
        else child
      in
      if cmp (Array.unsafe_get a (lo + !root)) (Array.unsafe_get a (lo + child)) < 0
      then begin
        swap a (lo + !root) (lo + child);
        root := child
      end
      else continue_ := false
    end
  done

let heapsort_by a cmp lo hi =
  let len = hi - lo in
  for root = (len / 2) - 1 downto 0 do
    sift_down_by a cmp lo len root
  done;
  for last = len - 1 downto 1 do
    swap a lo (lo + last);
    sift_down_by a cmp lo last 0
  done

let rec intro_by (a : int array) cmp lo hi depth =
  let len = hi - lo in
  if len <= insertion_threshold then insertion_sort_by a cmp lo hi
  else if depth = 0 then heapsort_by a cmp lo hi
  else begin
    let b = lo + (len / 2) and c = hi - 1 in
    let le i j = cmp a.(i) a.(j) <= 0 in
    let mi = if le lo b then if le b c then b else if le lo c then c else lo
             else if le lo c then lo
             else if le b c then c
             else b
    in
    let p = a.(mi) in
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let x = Array.unsafe_get a !i in
      let s = cmp x p in
      if s < 0 then begin
        swap a !i !lt;
        incr lt;
        incr i
      end
      else if s > 0 then begin
        decr gt;
        swap a !i !gt
      end
      else incr i
    done;
    intro_by a cmp lo !lt (depth - 1);
    intro_by a cmp !gt hi (depth - 1)
  end

let sort_indices_by n ~cmp =
  let idx = Array.init n (fun i -> i) in
  let stable_cmp i j =
    let c = cmp i j in
    if c <> 0 then c else compare i j
  in
  intro_by idx stable_cmp 0 n (depth_limit n);
  idx
