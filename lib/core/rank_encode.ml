module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Parallel_sort = Holistic_sort.Parallel_sort

type t = { rank_codes : int array; row_codes : int array; permutation : int array }

let of_sorted_permutation ~pool n permutation ~ties =
  let rank_codes = Array.make n 0 in
  let row_codes = Array.make n 0 in
  let scatter_seq () =
    let code = ref 0 in
    for r = 0 to n - 1 do
      if r > 0 && not (ties permutation.(r - 1) permutation.(r)) then incr code;
      rank_codes.(permutation.(r)) <- !code;
      row_codes.(permutation.(r)) <- r
    done
  in
  if Task_pool.size pool > 1 && n > Task_pool.default_task_size then begin
      (* Two-pass parallel scatter, bit-identical to the sequential loop:
         the rank code at position [r] is the number of peer-group
         boundaries in [1, r], so each chunk counts its own boundaries
         (its first position compares against the last position of the
         previous chunk), a serial prefix sum over the per-chunk counts
         yields every chunk's absolute starting code, and a second pass
         scatters.  Writes land at [permutation.(r)] — a permutation, so
         chunks never collide. *)
      let chunk = Task_pool.auto_chunk pool ~lo:0 ~hi:n ~max:Task_pool.default_task_size in
      let nchunks = ((n - 1) / chunk) + 1 in
      let bounds = Array.make nchunks 0 in
      Task_pool.parallel_for pool ~chunk ~lo:0 ~hi:n (fun lo hi ->
          let c = ref 0 in
          for r = max 1 lo to hi - 1 do
            if not (ties permutation.(r - 1) permutation.(r)) then incr c
          done;
          bounds.(lo / chunk) <- !c);
      let starts = Array.make nchunks 0 in
      for k = 1 to nchunks - 1 do
        starts.(k) <- starts.(k - 1) + bounds.(k - 1)
      done;
      Task_pool.parallel_for pool ~chunk ~lo:0 ~hi:n (fun lo hi ->
          let code = ref starts.(lo / chunk) in
          for r = lo to hi - 1 do
            if r > 0 && not (ties permutation.(r - 1) permutation.(r)) then incr code;
            rank_codes.(permutation.(r)) <- !code;
            row_codes.(permutation.(r)) <- r
          done)
  end
  else scatter_seq ();
  { rank_codes; row_codes; permutation }

let of_cmp ~pool n ~cmp =
  let permutation = Introsort.sort_indices_by n ~cmp in
  of_sorted_permutation ~pool n permutation ~ties:(fun i j -> cmp i j = 0)

(* Rows already in order: the (key, position) sort is the identity, and a
   rank code is the ordinal of the row's peer group. *)
let of_peers peer_start =
  let n = Array.length peer_start in
  let rank_codes = Array.make n 0 in
  let code = ref (-1) in
  for r = 0 to n - 1 do
    if peer_start.(r) = r then incr code;
    rank_codes.(r) <- !code
  done;
  { rank_codes; row_codes = Array.init n Fun.id; permutation = Array.init n Fun.id }

(* The unboxed constructors sort only the keyed positions; NULL positions
   ([nulls = Some (is_null, last)]) form one peer group in position order,
   placed before or after every keyed position — the comparator's order,
   where NULLs tie with each other and never with a value. [keyed] lists
   the keyed positions ascending (the sort payload, so ties keep position
   order); [place] splices the NULL block around the sorted payload. *)
let split_nulls n nulls =
  match nulls with
  | None -> (Array.init n Fun.id, fun sorted -> sorted)
  | Some (is_null, last) ->
      let nnull = ref 0 in
      for p = 0 to n - 1 do
        if is_null p then incr nnull
      done;
      let keyed = Array.make (n - !nnull) 0 and block = Array.make !nnull 0 in
      let k = ref 0 and b = ref 0 in
      for p = 0 to n - 1 do
        if is_null p then begin
          block.(!b) <- p;
          incr b
        end
        else begin
          keyed.(!k) <- p;
          incr k
        end
      done;
      (keyed, fun sorted -> if last then Array.append sorted block else Array.append block sorted)

let null_ties nulls ties =
  match nulls with
  | None -> ties
  | Some (is_null, _) ->
      fun i j ->
        let a = is_null i and b = is_null j in
        if a || b then a && b else ties i j

let of_floats ~pool ?(desc = false) ?nulls values =
  let n = Array.length values in
  let payload, place = split_nulls n nulls in
  let m = Array.length payload in
  (* descending order = ascending order of the negated keys; negation is
     monotone for ordered floats (±0.0 stay distinguished the same way the
     comparator distinguishes them) but leaves NaN in place, and NaN is the
     MINIMUM of [Float.compare]'s total order — so after a descending sort
     the NaN block sits at the front while the comparator reference
     ([-1 * Float.compare], see Sort_spec) sends it to the back.  Rotate
     the block behind the ordered keys; its row-id tiebreak is preserved. *)
  let key =
    if desc then Array.map (fun p -> Float.neg values.(p)) payload
    else Array.map (fun p -> values.(p)) payload
  in
  Introsort.sort_float_pairs ~key ~payload;
  if desc then begin
    let k = ref 0 in
    while !k < m && Float.is_nan key.(!k) do incr k done;
    if !k > 0 && !k < m then begin
      let nans = Array.sub payload 0 !k in
      Array.blit payload !k payload 0 (m - !k);
      Array.blit nans 0 payload (m - !k) !k
    end
  end;
  of_sorted_permutation ~pool n (place payload)
    ~ties:(null_ties nulls (fun i j -> Float.compare values.(i) values.(j) = 0))

let of_ints ~pool ?nulls values =
  let n = Array.length values in
  let payload, place = split_nulls n nulls in
  let key = Array.map (fun p -> values.(p)) payload in
  Parallel_sort.sort_pairs pool ~key ~payload;
  of_sorted_permutation ~pool n (place payload)
    ~ties:(null_ties nulls (fun i j -> values.(i) = values.(j)))

(* ------------------------------------------------------------------ *)
(* Incremental extension (densified-rank deltas)                       *)
(* ------------------------------------------------------------------ *)

(* Every constructor above sorts by (key, row id) — [of_ints]/[of_floats]
   via the pair sorts' lexicographic (key, payload) order, [of_cmp] via the
   index tiebreak [sort_indices_by] adds. Appended rows have the largest
   row ids, so whenever none of them sorts strictly before the old maximum
   key, the from-scratch permutation is exactly [old permutation ++ sorted
   delta]: the old prefix is untouched and the rank codes continue from the
   last old peer group. [extend] patches the three arrays in O(old) blits
   plus O(delta log delta) sort work; any out-of-order append (a new row
   belonging before an old one) returns [None] and the caller rebuilds. *)
let extend old n ~cmp ~ties =
  let m = Array.length old.permutation in
  if m = 0 || n < m then None
  else begin
    let last = old.permutation.(m - 1) in
    let in_order = ref true in
    (try
       for j = m to n - 1 do
         if cmp last j > 0 then begin
           in_order := false;
           raise Exit
         end
       done
     with Exit -> ());
    if not !in_order then None
    else begin
      let permutation = Array.make n 0 in
      Array.blit old.permutation 0 permutation 0 m;
      (* delta sorted by (key, row id) — [sort_indices_by]'s index tiebreak
         is the row-id tiebreak because ids increase with delta position *)
      let delta = Introsort.sort_indices_by (n - m) ~cmp:(fun a b -> cmp (m + a) (m + b)) in
      for k = 0 to n - m - 1 do
        permutation.(m + k) <- m + delta.(k)
      done;
      let rank_codes = Array.make n 0 in
      let row_codes = Array.make n 0 in
      Array.blit old.rank_codes 0 rank_codes 0 m;
      Array.blit old.row_codes 0 row_codes 0 m;
      let code = ref old.rank_codes.(last) in
      for r = m to n - 1 do
        if not (ties permutation.(r - 1) permutation.(r)) then incr code;
        rank_codes.(permutation.(r)) <- !code;
        row_codes.(permutation.(r)) <- r
      done;
      Some { rank_codes; row_codes; permutation }
    end
  end

let extend_cmp old n ~cmp = extend old n ~cmp ~ties:(fun i j -> cmp i j = 0)

let extend_ints old values =
  extend old (Array.length values)
    ~cmp:(fun i j -> compare values.(i) values.(j))
    ~ties:(fun i j -> values.(i) = values.(j))

let extend_floats ?(desc = false) old values =
  (* descending = the argument-flipped comparison, NOT key negation: the
     flip sends NaN (the [Float.compare] minimum) to the back exactly like
     the comparator reference's [-1 * Float.compare] does *)
  let cmp =
    if desc then fun i j -> Float.compare values.(j) values.(i)
    else fun i j -> Float.compare values.(i) values.(j)
  in
  extend old (Array.length values) ~cmp
    ~ties:(fun i j -> Float.compare values.(i) values.(j) = 0)

let footprint_bytes e =
  8
  * (3 + 3 + Array.length e.rank_codes + Array.length e.row_codes + Array.length e.permutation)
