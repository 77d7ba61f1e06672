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

(* Rows [i] and [j] (both below [n]) under compiled key words: word by
   word, then the residual; 0 means peers. No row-id tiebreak. *)
let compare_words ~n words tie =
  Array.iter (fun w -> if Array.length w <> n then invalid_arg "Rank_encode: word length") words;
  let nw = Array.length words in
  fun i j ->
    let c = ref 0 and w = ref 0 in
    while !c = 0 && !w < nw do
      let a = Array.unsafe_get words !w in
      c := Int.compare (Array.unsafe_get a i) (Array.unsafe_get a j);
      incr w
    done;
    if !c <> 0 then !c else match tie with Some t -> t i j | None -> 0

let of_words ~pool ~words ?tie n =
  let cmp = compare_words ~n words tie in
  let permutation, _ = Parallel_sort.sort_encoded pool ~n ~words ?tie () in
  of_sorted_permutation ~pool n permutation ~ties:(fun i j -> cmp i j = 0)

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

(* ------------------------------------------------------------------ *)
(* Incremental extension (densified-rank deltas)                       *)
(* ------------------------------------------------------------------ *)

(* Every constructor above sorts by (key, row id). Appended rows have the
   largest row ids, so whenever none of them sorts strictly before the old
   maximum key, the from-scratch permutation is exactly [old permutation
   ++ sorted delta]: the old prefix is untouched and the rank codes
   continue from the last old peer group. The extension patches the three
   arrays in O(old) blits plus O(delta log delta) sort work; any
   out-of-order append (a new row belonging before an old one) returns
   [None] and the caller rebuilds. *)
let extend_words old ~words ?tie n =
  let cmp = compare_words ~n words tie in
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
        if cmp permutation.(r - 1) permutation.(r) <> 0 then incr code;
        rank_codes.(permutation.(r)) <- !code;
        row_codes.(permutation.(r)) <- r
      done;
      Some { rank_codes; row_codes; permutation }
    end
  end

let footprint_bytes e =
  8
  * (3 + 3 + Array.length e.rank_codes + Array.length e.row_codes + Array.length e.permutation)
