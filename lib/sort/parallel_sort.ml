open Holistic_parallel
module Obs = Holistic_obs.Obs

(* Transient merge scratch: two arrays the size of the input per merge
   phase.  Counted separately from [mem.structure_bytes] because the
   total depends on pool size and run count, so it must not feed the
   deterministic structure tally that goldens and the bench gate check. *)
let c_scratch_bytes = Obs.Counter.make ~help:"Bytes of sort scratch space (normalized keys, merge buffers) allocated" "sort.scratch_bytes"

let note_scratch n =
  Obs.Counter.add c_scratch_bytes (8 * 2 * n);
  Obs.record_bytes (fun () -> 8 * (2 + (2 * n)))

(* Run formation only pays off when the merge can run concurrently: on a
   single-domain pool an unrequested task split would cost a full extra
   merge pass over the data for nothing, so default to one run there. *)
let effective_task_size pool n = function
  | Some t -> t
  | None -> if Task_pool.size pool = 1 then max n 1 else Task_pool.default_task_size

(* Task-local segment sorts of [task_size] positions, then — with more
   than one run — multisequence selection at balanced global ranks and
   one loser-tree merge per output segment, each an independent task. *)
let sort_multiword pool ?task_size ~mw () =
  let key0 = mw.Multiway.key0 and payload = mw.Multiway.payload in
  let n = Array.length key0 in
  if Array.length payload <> n then invalid_arg "Parallel_sort.sort_multiword: length mismatch";
  let task_size = effective_task_size pool n task_size in
  let nruns = if n = 0 then 0 else ((n - 1) / task_size) + 1 in
  let runs =
    Array.init nruns (fun r -> { Multiway.lo = r * task_size; hi = min n ((r + 1) * task_size) })
  in
  Obs.span "sort.runs"
    ~args:(fun () -> [ ("n", string_of_int n); ("runs", string_of_int nruns) ])
    (fun () ->
      Task_pool.run_list pool
        (Array.to_list
           (Array.map (fun { Multiway.lo; hi } -> fun () -> Multiway.sort_range mw ~lo ~hi) runs)));
  if nruns > 1 then
    Obs.span "sort.merge"
      ~args:(fun () -> [ ("n", string_of_int n); ("runs", string_of_int nruns) ])
    @@ fun () ->
    begin
    note_scratch n;
    let scratch_key = Array.make n 0 in
    let scratch_payload = Array.make n 0 in
    let segments = max 1 (Task_pool.size pool) in
    let rank_of s = s * n / segments in
    let cmp = Multiway.compare_positions mw in
    let less i j = cmp i j < 0 in
    let cuts =
      Array.init (segments + 1) (fun s ->
          Multiway.split_at_rank_by ~less ~runs ~rank:(rank_of s))
    in
    let tasks = ref [] in
    for s = segments - 1 downto 0 do
      let sub_runs =
        Array.init nruns (fun r -> { Multiway.lo = cuts.(s).(r); hi = cuts.(s + 1).(r) })
      in
      let dst_pos = rank_of s in
      tasks :=
        (fun () ->
          Multiway.merge_multiword ~mw ~runs:sub_runs ~dst_key0:scratch_key
            ~dst_payload:scratch_payload ~dst_pos)
        :: !tasks
    done;
    Task_pool.run_list pool !tasks;
    (* Copy the merged result back, in parallel chunks. *)
    Task_pool.parallel_for pool ~lo:0 ~hi:n ~chunk:(max 1 (n / (4 * segments)))
      (fun lo hi ->
        Array.blit scratch_key lo key0 lo (hi - lo);
        Array.blit scratch_payload lo payload lo (hi - lo))
  end

let sort_encoded pool ?task_size ~n ~words ?tie () =
  Array.iter
    (fun w -> if Array.length w <> n then invalid_arg "Parallel_sort.sort_encoded: word length")
    words;
  (* positions start out equal to row ids, so the trailing words can be
     used row-indexed without any copy; only the leading word moves *)
  let mw = Multiway.of_words ~words ?tie (Array.init n Fun.id) in
  if Array.length words > 0 then begin
    sort_multiword pool ?task_size ~mw ();
    (mw.Multiway.payload, mw.Multiway.key0)
  end
  else begin
    (* residual only: one sequential sort by [tie] over an all-zero
       leading word (no residual either: the identity) *)
    if Option.is_some tie then Multiway.sort_range mw ~lo:0 ~hi:n;
    (mw.Multiway.payload, [||])
  end

let merge_appended mw ~n_old =
  let n = Array.length mw.Multiway.key0 in
  Multiway.sort_range mw ~lo:n_old ~hi:n;
  let key0 = Array.make n 0 and perm = Array.make n 0 in
  Multiway.merge_multiword ~mw
    ~runs:[| { Multiway.lo = 0; hi = n_old }; { Multiway.lo = n_old; hi = n } |]
    ~dst_key0:key0 ~dst_payload:perm ~dst_pos:0;
  (perm, key0)

(* External sort counters: total bytes written to spill run files and
   number of run files formed. *)
let c_spill_bytes = Obs.Counter.make ~help:"Bytes written to disk as spilled sort runs" "sort.spill_bytes"
let c_spill_runs = Obs.Counter.make ~help:"Sorted runs spilled to disk by the out-of-core sort" "sort.spill_runs"

module Run_file = Holistic_storage.Run_file

let sort_encoded_spill ~n ~words ?tie ~run_rows ~read_entries ~dir ?on_key0 ?after_runs () =
  let nwords = Array.length words in
  if nwords = 0 then invalid_arg "Parallel_sort.sort_encoded_spill: needs at least one key word";
  Array.iter
    (fun w -> if Array.length w <> n then invalid_arg "Parallel_sort.sort_encoded_spill: word length")
    words;
  let run_rows = max 1 (min run_rows (max 1 n)) in
  let nruns = if n = 0 then 0 else ((n - 1) / run_rows) + 1 in
  let current_writer = ref None in
  let files = ref [] in
  let sources = ref [||] in
  let cleanup () =
    (match !current_writer with
    | Some w ->
        current_writer := None;
        Run_file.abort w
    | None -> ());
    Array.iter Multiway.source_close !sources;
    sources := [||];
    List.iter Run_file.remove !files;
    files := []
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let total_bytes = ref 0 in
  (* ---- run formation: sequential chunks of [run_rows] rows ---- *)
  Obs.span "sort.runs"
    ~args:(fun () ->
      [
        ("n", string_of_int n);
        ("runs", string_of_int nruns);
        ("spilled", Printf.sprintf "(runs=%d, %s)" nruns (Obs.human_bytes !total_bytes));
      ])
    (fun () ->
      let chunk = min run_rows (max 1 n) in
      let ckey = Array.make chunk 0 in
      let cpay = Array.make chunk 0 in
      let deep = Array.sub words 1 (nwords - 1) in
      let mw = { Multiway.key0 = ckey; payload = cpay; deep; tie } in
      let entry = Array.make nwords 0 in
      for r = 0 to nruns - 1 do
        let lo = r * run_rows in
        let hi = min n (lo + run_rows) in
        let m = hi - lo in
        for i = 0 to m - 1 do
          ckey.(i) <- words.(0).(lo + i);
          cpay.(i) <- lo + i
        done;
        Multiway.sort_range mw ~lo:0 ~hi:m;
        let w = Run_file.create ~dir ~nwords in
        current_writer := Some w;
        for i = 0 to m - 1 do
          let rid = cpay.(i) in
          entry.(0) <- ckey.(i);
          for d = 0 to nwords - 2 do
            entry.(d + 1) <- deep.(d).(rid)
          done;
          Run_file.append w ~key:entry ~koff:0 ~payload:rid
        done;
        let f = Run_file.finish w in
        current_writer := None;
        files := f :: !files;
        total_bytes := !total_bytes + Run_file.bytes f
      done;
      Obs.Counter.add c_spill_runs nruns;
      Obs.Counter.add c_spill_bytes !total_bytes);
  (* the key words live on disk now: the caller may drop (and un-charge)
     [words] before the merge allocates its output *)
  (match after_runs with Some f -> f () | None -> ());
  (* ---- k-way OVC merge of the run files ---- *)
  let perm = Array.make n 0 in
  Obs.span "sort.merge"
    ~args:(fun () ->
      [
        ("n", string_of_int n);
        ("runs", string_of_int nruns);
        ("spilled", Printf.sprintf "(runs=%d, %s)" nruns (Obs.human_bytes !total_bytes));
      ])
    (fun () ->
      let file_arr = Array.of_list (List.rev !files) in
      sources :=
        Array.map
          (fun f ->
            let rd = Run_file.open_reader f in
            Multiway.make_source ~nwords ~buf_entries:(max 1 read_entries)
              ~refill:(fun buf -> Run_file.read rd ~buf)
              ~close:(fun () -> Run_file.close_reader rd))
          file_arr;
      let rank = ref 0 in
      let emit =
        match on_key0 with
        | None ->
            fun _k0 payload ->
              perm.(!rank) <- payload;
              incr rank
        | Some f ->
            fun k0 payload ->
              perm.(!rank) <- payload;
              f !rank k0;
              incr rank
      in
      Multiway.merge_sources ~sources:!sources ?tie ~emit ();
      if !rank <> n then
        raise (Run_file.Error (Printf.sprintf "spill merge produced %d of %d rows" !rank n)));
  (perm, nruns, !total_bytes)
