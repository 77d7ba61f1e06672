module Task_pool = Holistic_parallel.Task_pool
module Parallel_sort = Holistic_sort.Parallel_sort

let compute ~pool values =
  let n = Array.length values in
  (* Lexicographic (value, position) sort = stable sort by value (Alg. 1
     line 5): duplicates end up adjacent, ordered by original position. *)
  let idx, key = Parallel_sort.sort_encoded pool ~n ~words:[| values |] () in
  let prev = Array.make n 0 in
  (* The comparison at a chunk's first position reads the last element of
     the preceding chunk; [key]/[idx] are read-only here and every chunk
     writes disjoint [prev] slots, so chunks are independent. *)
  Task_pool.parallel_for pool ~lo:0 ~hi:n ~chunk:Task_pool.default_task_size (fun lo hi ->
      for i = max lo 1 to hi - 1 do
        if key.(i) = key.(i - 1) then prev.(idx.(i)) <- idx.(i - 1) + 1
      done);
  prev

let distinct_in_frame encoded ~lo ~hi =
  let acc = ref 0 in
  for i = max lo 0 to min hi (Array.length encoded - 1) do
    if encoded.(i) < lo + 1 then incr acc
  done;
  !acc
