module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Parallel_sort = Holistic_sort.Parallel_sort
module Multiway = Holistic_sort.Multiway

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

(* Peers under compiled key words: all words equal and the residual 0. *)
let peers words tie =
  let keys = Multiway.compare_keys words tie in
  fun i j -> keys i j = 0

let of_sorted ~pool ~words ?tie permutation =
  of_sorted_permutation ~pool (Array.length permutation) permutation ~ties:(peers words tie)

let of_words ~pool ~words ?tie n =
  let permutation, _ = Parallel_sort.sort_encoded pool ~n ~words ?tie () in
  of_sorted ~pool ~words ?tie permutation

let of_codes ~pool slots ~span =
  let permutation = Multiway.sort_slots slots ~span in
  of_sorted_permutation ~pool (Array.length slots) permutation ~ties:(fun i j ->
      Array.unsafe_get slots i = Array.unsafe_get slots j)

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
  Array.iter (fun w -> if Array.length w <> n then invalid_arg "Rank_encode: word length") words;
  let keys = Multiway.compare_keys words tie in
  let m = Array.length old.permutation in
  if m = 0 || n < m then None
  else begin
    let last = old.permutation.(m - 1) in
    let in_order = ref true in
    (try
       for j = m to n - 1 do
         if keys last j > 0 then begin
           in_order := false;
           raise Exit
         end
       done
     with Exit -> ());
    if not !in_order then None
    else begin
      (* the appended rows sorted among themselves by (key, row id) *)
      let delta = Multiway.of_words ~words ?tie (Array.init (n - m) (fun k -> m + k)) in
      Multiway.sort_range delta ~lo:0 ~hi:(n - m);
      let permutation = Array.append old.permutation delta.Multiway.payload in
      let rank_codes = Array.make n 0 in
      let row_codes = Array.make n 0 in
      Array.blit old.rank_codes 0 rank_codes 0 m;
      Array.blit old.row_codes 0 row_codes 0 m;
      let code = ref old.rank_codes.(last) in
      for r = m to n - 1 do
        if keys permutation.(r - 1) permutation.(r) <> 0 then incr code;
        rank_codes.(permutation.(r)) <- !code;
        row_codes.(permutation.(r)) <- r
      done;
      Some { rank_codes; row_codes; permutation }
    end
  end

let footprint_bytes e =
  8
  * (3 + 3 + Array.length e.rank_codes + Array.length e.row_codes + Array.length e.permutation)
