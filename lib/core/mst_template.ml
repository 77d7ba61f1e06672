(* The width-polymorphic merge sort tree (paper §4, §5.1).

   The paper's §5.1 storage layout is a per-integer-width template: every
   MST operand is rank-encoded into a dense integer domain, so the tree is
   instantiated at the narrowest width that fits. This functor holds the
   single copy of the build and query logic; {!Mst} instantiates it at 64
   bits and {!Mst_width} at 32 and 16 bits, over the storages of
   {!Mst_storage}. Narrow widths build *directly* into their narrow
   level/cursor buffers — no 64-bit tree is materialised first, so peak
   memory is the narrow tree alone.

   Levels are merged with a tournament (loser) tree rather than a binary
   heap: exactly ⌈log₂ fanout⌉ comparisons per emitted element instead of
   the heap's ~2·log₂ fanout, and the scratch state is reused across all
   runs of a build task instead of being reallocated per run.

   Probes allocate nothing: the descents are loops and plain recursion over
   int arguments, and once a node's overlap with the query is at most
   [fanout] elements they scan those elements on level 0 (base order)
   instead of cascading into children of one to [fanout] elements. *)

module Task_pool = Holistic_parallel.Task_pool

(* Probe scratch for [select] and [neighbour], one per probing task. It
   holds the ranges' value bounds ([vals.(2r)], [vals.(2r+1)]), the
   run-relative positions of
   those bounds in the node the descent visits at each level j
   ([bounds.(j * nb + b)], nb = 2 × number of ranges) and that node's
   cascade slots per bound ([sbase], [slack]). Width-independent, so one
   scratch serves every instantiation; it grows on demand, so reusing it
   across a task's rows allocates only on the first probes. *)
type scratch = {
  mutable vals : int array;
  mutable bounds : int array;
  mutable sbase : int array;
  mutable slack : int array;
}

let create_scratch () = { vals = [||]; bounds = [||]; sbase = [||]; slack = [||] }

let reserve sc ~nb ~levels =
  if Array.length sc.vals < nb then begin
    sc.vals <- Array.make nb 0;
    sc.sbase <- Array.make nb 0;
    sc.slack <- Array.make nb 0
  end;
  if Array.length sc.bounds < nb * levels then sc.bounds <- Array.make (nb * levels) 0

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

module Make (S : Mst_storage.S) = struct
  type t = {
    n : int;
    fanout : int;
    sample : int;
    levels : S.buf array;
    (* payloads.(j).(i) = base position the element levels.(j).(i) came
       from; positions stay native ints at every width *)
    payloads : int array array option;
    (* stride.(j) = fanout^j, the nominal run length of level j *)
    stride : int array;
    (* cursors.(j) holds the sampled merge-cursor states of level j+1's
       runs: for the run with index r at level j+1 and sampled position s (a
       multiple of [sample]), entry [(r * spr.(j) + s / sample) * fanout + c]
       is the number of elements of child c (at level j) among the first s
       elements of the run. Empty when [sample = 0]. *)
    cursors : S.buf array;
    (* spr.(j) = sampled states per run of level j+1 *)
    spr : int array;
  }

  let length t = t.n
  let fanout t = t.fanout
  let sample t = t.sample
  let levels t = t.levels
  let payloads t = t.payloads

  (* ------------------------------------------------------------------ *)
  (* Construction                                                        *)
  (* ------------------------------------------------------------------ *)

  (* Loser-tree merge scratch, sized once per build task for the maximum
     child count and reused across the task's runs. *)
  type merge_scratch = {
    cur : int array; (* relative cursor into each child *)
    cbase : int array; (* absolute start of each child's source segment *)
    clen : int array; (* length of each child's source segment *)
    lval : int array; (* current head value per leaf *)
    lkey : int array; (* tie-break key: child index, or kk + c once exhausted *)
    node : int array; (* node.(1..kk-1): losing leaf of each internal match *)
    winners : int array; (* tournament initialisation workspace *)
  }

  let make_merge_scratch fanout =
    let kk = ref 1 in
    while !kk < fanout do
      kk := !kk * 2
    done;
    let kk = !kk in
    {
      cur = Array.make fanout 0;
      cbase = Array.make fanout 0;
      clen = Array.make fanout 0;
      lval = Array.make kk 0;
      lkey = Array.make kk 0;
      node = Array.make kk 0;
      winners = Array.make (2 * kk) 0;
    }

  (* Merge the children of one output run of level [j] (children live at
     level [j - 1], have nominal length [child_stride] and tile [run_base,
     run_base + run_len)), writing the sorted output and recording cursor
     states. Exhausted leaves sit at (max_int, kk + c): a live leaf holding
     a genuine max_int still wins its ties because its key stays below kk.

     [src]/[dst]/[cursors] are plain [int array] views of the level and
     cursor storage, globally indexed — either the storage itself (word
     width) or the shared wide shadows narrowed after the task completes
     (narrow widths). Keeping the per-element loop on [int array] is what
     makes one template serve every width without a functor-indirected call
     per element (no flambda). *)
  let merge_one_run ~sc ~src ~src_payload ~dst ~dst_payload ~cursors ~state_base ~fanout ~sample
      ~run_base ~run_len ~child_stride =
    let nc = ((run_len - 1) / child_stride) + 1 in
    let kk = ref 1 in
    while !kk < nc do
      kk := !kk * 2
    done;
    let kk = !kk in
    let cur = sc.cur and cbase = sc.cbase and clen = sc.clen in
    let lval = sc.lval and lkey = sc.lkey and node = sc.node in
    let sbase = run_base and dbase = run_base in
    for c = 0 to kk - 1 do
      if c < nc then begin
        let len = min child_stride (run_len - (c * child_stride)) in
        cur.(c) <- 0;
        cbase.(c) <- sbase + (c * child_stride);
        clen.(c) <- len;
        if len > 0 then begin
          lval.(c) <- src.(sbase + (c * child_stride));
          lkey.(c) <- c
        end
        else begin
          lval.(c) <- max_int;
          lkey.(c) <- kk + c
        end
      end
      else begin
        lval.(c) <- max_int;
        lkey.(c) <- kk + c
      end
    done;
    let less a b = lval.(a) < lval.(b) || (lval.(a) = lval.(b) && lkey.(a) < lkey.(b)) in
    (* initial tournament: winners bubble up, losers stick to the nodes *)
    let w = sc.winners in
    for c = 0 to kk - 1 do
      w.(kk + c) <- c
    done;
    for i = kk - 1 downto 1 do
      let a = w.(2 * i) and b = w.((2 * i) + 1) in
      if less a b then begin
        w.(i) <- a;
        node.(i) <- b
      end
      else begin
        w.(i) <- b;
        node.(i) <- a
      end
    done;
    let winner = ref (if kk = 1 then 0 else w.(1)) in
    let winner_val = ref lval.(!winner) in
    (* cursor states are recorded every [sample] elements; a countdown
       avoids a division per emitted element, and states land sequentially
       from [state_base] *)
    let state = ref state_base in
    let until_record = ref 0 in
    for emitted = 0 to run_len - 1 do
      if sample > 0 then begin
        if !until_record = 0 then begin
          let b = !state in
          for c = 0 to nc - 1 do
            Array.unsafe_set cursors (b + c) (Array.unsafe_get cur c)
          done;
          state := b + fanout;
          until_record := sample
        end;
        decr until_record
      end;
      let c = !winner in
      Array.unsafe_set dst (dbase + emitted) !winner_val;
      (match src_payload, dst_payload with
      | Some sp, Some dp ->
          Array.unsafe_set dp (run_base + emitted)
            (Array.unsafe_get sp (Array.unsafe_get cbase c + Array.unsafe_get cur c))
      | _ -> ());
      let cc = Array.unsafe_get cur c + 1 in
      Array.unsafe_set cur c cc;
      if cc < Array.unsafe_get clen c then
        Array.unsafe_set lval c (Array.unsafe_get src (Array.unsafe_get cbase c + cc))
      else begin
        Array.unsafe_set lval c max_int;
        Array.unsafe_set lkey c (kk + c)
      end;
      (* replay the matches on the path from leaf [c] to the root; the
         running winner's (value, key) ride in registers, arrays are only
         read for the stored losers *)
      let wc = ref c in
      let wv = ref (Array.unsafe_get lval c) in
      let wk = ref (Array.unsafe_get lkey c) in
      let i = ref ((kk + c) lsr 1) in
      while !i >= 1 do
        let l = Array.unsafe_get node !i in
        let lv = Array.unsafe_get lval l in
        if lv < !wv || (lv = !wv && Array.unsafe_get lkey l < !wk) then begin
          Array.unsafe_set node !i !wc;
          wc := l;
          wv := lv;
          wk := Array.unsafe_get lkey l
        end;
        i := !i lsr 1
      done;
      winner := !wc;
      winner_val := !wv
    done;
    (* trailing state at position [run_len], present iff it is a sample
       multiple (countdown hits zero exactly then) *)
    if sample > 0 && !until_record = 0 then begin
      let b = !state in
      for c = 0 to nc - 1 do
        Array.unsafe_set cursors (b + c) (Array.unsafe_get cur c)
      done
    end

  let check_knobs fn ~n ~fanout ~sample =
    if fanout < 2 then invalid_arg (Printf.sprintf "%s.%s: fanout must be >= 2" S.name fn);
    if sample < 0 then invalid_arg (Printf.sprintf "%s.%s: sample must be >= 0" S.name fn);
    if n > S.max_value then
      invalid_arg
        (Printf.sprintf "%s.%s: length %d exceeds %d-bit storage" S.name fn n S.width_bits)

  let range_msg fn = Printf.sprintf "%s.%s: value exceeds %d-bit storage range" S.name fn S.width_bits

  (* The level geometry of an [n]-leaf tree, shared by [create] and
     [append]: height [h] (smallest h with fanout^h >= n), [stride.(j)] =
     fanout^j, [spr.(j)] sampled states per run of level j+1 and
     [states.(j)] the length of level j+1's cursor array (all zero when
     [sample = 0]). *)
  let geometry ~n ~fanout ~sample =
    let h = ref 0 and s = ref 1 in
    while !s < n do
      s := !s * fanout;
      incr h
    done;
    let h = !h in
    let stride = Array.make (h + 1) 1 in
    for j = 1 to h do
      stride.(j) <- stride.(j - 1) * fanout
    done;
    let spr = Array.make h 0 and states = Array.make h 0 in
    if sample > 0 then
      for j = 0 to h - 1 do
        let nruns = ((n - 1) / stride.(j + 1)) + 1 in
        spr.(j) <- (min stride.(j + 1) n / sample) + 1;
        states.(j) <- nruns * spr.(j) * fanout
      done;
    (h, stride, spr, states)

  let create ~pool ?(fanout = 32) ?(sample = 32) ?(track_payload = false) a =
    let n = Array.length a in
    check_knobs "create" ~n ~fanout ~sample;
    let h, stride, spr, states = geometry ~n ~fanout ~sample in
    let levels =
      Array.init (h + 1) (fun j ->
          if j = 0 then S.of_int_array ~msg:(range_msg "create") a else S.create n)
    in
    let payloads =
      if track_payload then
        Some
          (Array.init (h + 1) (fun j ->
               if j = 0 then Array.init n (fun i -> i) else Array.make n 0))
      else None
    in
    let cursors = Array.map S.create states in
    (* Narrow widths merge through shared full-width shadow buffers so the
       per-element loop stays on plain [int array]s (§5.1 template, no
       flambda): level j's output is produced wide and narrowed into storage
       span-by-span while each task's output is still cache-warm, then
       serves as the next level's wide source. Level 0's wide view is the
       (already validated) input itself, so no widening pass ever runs. The
       shadows are transient and span 2n + max-states words — far below the
       full 64-bit tree the historical build-then-convert path kept live.
       Word-width storage exposes its arrays directly and skips all of
       this. *)
    let narrow = n > 0 && S.as_ints levels.(0) = None in
    let sequential = Task_pool.size pool = 1 || n <= Task_pool.default_task_size in
    let shadow_a = if narrow && h >= 1 then Array.make n 0 else [||] in
    let shadow_b = if narrow && h >= 2 then Array.make n 0 else [||] in
    let shadow_c =
      if narrow && sample > 0 && h >= 1 then Array.make (Array.fold_left max 0 states) 0
      else [||]
    in
    for j = 1 to h do
      let l = stride.(j) in
      let nruns = ((n - 1) / l) + 1 in
      let src = levels.(j - 1) and dst = levels.(j) in
      let src_payload = Option.map (fun p -> p.(j - 1)) payloads in
      let dst_payload = Option.map (fun p -> p.(j)) payloads in
      let spr_j = spr.(j - 1) in
      let sarr, darr, carr =
        if not narrow then
          ( Option.get (S.as_ints src),
            Option.get (S.as_ints dst),
            Option.get (S.as_ints cursors.(j - 1)) )
        else
          ( (if j = 1 then a else if j land 1 = 0 then shadow_a else shadow_b),
            (if j land 1 = 1 then shadow_a else shadow_b),
            shadow_c )
      in
      (* [merge_runs rlo rhi] merges runs [rlo, rhi) of this level — the
         independent unit of work: one scratch per call, shared by all its
         runs, and (on narrow widths) a narrowing blit of exactly the span
         the calls' runs produced, done while that output is still
         cache-warm. *)
      let merge_runs rlo rhi =
        let sc = make_merge_scratch fanout in
        for r = rlo to rhi - 1 do
          let run_base = r * l in
          let run_len = min l (n - run_base) in
          merge_one_run ~sc ~src:sarr ~src_payload ~dst:darr ~dst_payload ~cursors:carr
            ~state_base:(r * spr_j * fanout)
            ~fanout ~sample ~run_base ~run_len ~child_stride:stride.(j - 1)
        done;
        if narrow then begin
          let span_base = rlo * l in
          let span_len = min (rhi * l) n - span_base in
          S.blit_from_ints darr ~pos:span_base dst ~dst_pos:span_base ~len:span_len;
          if sample > 0 then begin
            let state_lo = rlo * spr_j * fanout in
            let state_len = min (rhi * spr_j * fanout) states.(j - 1) - state_lo in
            S.blit_from_ints carr ~pos:state_lo cursors.(j - 1) ~dst_pos:state_lo
              ~len:state_len
          end
        end
      in
      (* Runs are independent, so above the sequential cutoff whole runs
         are grouped into tasks of roughly the pool's task size; tasks
         touch disjoint spans of the shadows, and the pool joins between
         levels.  Below the cutoff (a tree under one task's worth of rows
         — the common per-partition case, often itself built from inside a
         partition morsel) the task machinery is skipped entirely so the
         small-tree constant factor stays at the sequential build's. *)
      if sequential then merge_runs 0 nruns
      else begin
        let runs_per_task = max 1 (Task_pool.default_task_size / l) in
        Task_pool.parallel_for pool ~lo:0 ~hi:nruns ~chunk:runs_per_task merge_runs
      end
    done;
    { n; fanout; sample; levels; payloads; stride; cursors; spr }

  (* ------------------------------------------------------------------ *)
  (* Run-stacking append (incremental maintenance)                       *)
  (* ------------------------------------------------------------------ *)

  (* [append t a] produces the tree [create a] without re-merging the runs
     that [create] would rebuild identically: a level-[j] run whose span
     lies entirely inside the old prefix has the same leaves, hence the
     same sorted content and the same sampled cursor states, so it is
     blitted from the old tree; only the runs overlapping the appended
     suffix [t.n, |a|) — at most one partial run per level, plus the runs
     the new rows create — go through {!merge_one_run}. This is the
     run-stacking shape of DuckDB's WindowDistinctSortTree [build_level]/
     [build_run] machinery: appended rows stack up as side runs and are
     merged into a level only once the level's stride covers them.

     Returns [None] (caller rebuilds from scratch) when the tree tracks
     payloads, when [a] shrank or no longer starts with the old leaves, or
     when the new size overflows the storage width. The result is
     bit-identical to [create a] by construction: stable runs are copies,
     re-merged runs feed the same deterministic merge the full build runs.

     The maintenance pass works on wide ([int array]) levels and re-encodes
     at the end — the same transient-shadow discipline as [create], and the
     stable-run blits are memcpy-speed against the full build's loser-tree
     merges, so maintenance cost is dominated by the re-merged suffix. *)
  let append t a =
    let n_old = t.n and n = Array.length a in
    if t.payloads <> None || n < n_old || n > S.max_value then None
    else begin
      let prefix_ok = ref true in
      let l0 = t.levels.(0) in
      (try
         for i = 0 to n_old - 1 do
           if S.get l0 i <> Array.unsafe_get a i then begin
             prefix_ok := false;
             raise Exit
           end
         done
       with Exit -> ());
      if not !prefix_ok then None
      else begin
        let fanout = t.fanout and sample = t.sample in
        let h, stride, spr, states = geometry ~n ~fanout ~sample in
        let levels = Array.make (h + 1) [||] in
        levels.(0) <- Array.copy a;
        let cursors = Array.map (fun len -> Array.make len 0) states in
        let h_old = Array.length t.levels - 1 in
        let sc = make_merge_scratch fanout in
        for j = 1 to h do
          levels.(j) <- Array.make n 0;
          let l = stride.(j) in
          let nruns = ((n - 1) / l) + 1 in
          let spr_j = spr.(j - 1) in
          let src = levels.(j - 1) and dst = levels.(j) in
          let carr = cursors.(j - 1) in
          for r = 0 to nruns - 1 do
            let run_base = r * l in
            let run_len = min l (n - run_base) in
            if j <= h_old && run_len = l && run_base + l <= n_old then begin
              (* stable run: same leaves, same merge → copy values and
                 sampled cursor states verbatim from the old tree *)
              S.blit_to_ints t.levels.(j) ~pos:run_base dst ~dst_pos:run_base ~len:run_len;
              if sample > 0 then begin
                let sb = r * spr_j * fanout in
                S.blit_to_ints t.cursors.(j - 1) ~pos:sb carr ~dst_pos:sb ~len:(spr_j * fanout)
              end
            end
            else
              merge_one_run ~sc ~src ~src_payload:None ~dst ~dst_payload:None ~cursors:carr
                ~state_base:(r * spr_j * fanout)
                ~fanout ~sample ~run_base ~run_len ~child_stride:stride.(j - 1)
          done
        done;
        let msg = range_msg "append" in
        match
          {
            n;
            fanout;
            sample;
            levels = Array.map (fun l -> S.of_int_array ~msg l) levels;
            payloads = None;
            stride;
            cursors = Array.map (fun c -> S.of_int_array ~msg c) cursors;
            spr;
          }
        with
        | t' -> Some t'
        | exception Invalid_argument _ -> None
      end
    end

  (* ------------------------------------------------------------------ *)
  (* Cascaded child positions                                            *)
  (* ------------------------------------------------------------------ *)

  let height t = Array.length t.levels - 1

  (* First cursor slot of the sampled state at or before run position
     [pos] of the level-[j] node starting at [node] (§4.2); [pos mod k] is
     then how far [pos] lies past that state. Requires [sample > 0]. *)
  let state_slot t j node pos =
    ((node / Array.unsafe_get t.stride j * Array.unsafe_get t.spr (j - 1)) + (pos / t.sample))
    * t.fanout

  (* Position of [x] inside child [c], spanning [cb, cb + clen) of level
     [j - 1], of a level-[j] node in which [x] sits [slack] elements past
     the sampled state at [sbase] (see [state_slot]). That state bounds the
     answer to a window of at most [slack] < k elements; without cascading
     ([sample = 0], [sbase]/[slack] unused) the whole child is searched. *)
  let child_pos t j sbase slack c cb clen x =
    let below = Array.unsafe_get t.levels (j - 1) in
    if t.sample = 0 then S.lower_bound below ~lo:cb ~hi:(cb + clen) x - cb
    else begin
      let off = S.get (Array.unsafe_get t.cursors (j - 1)) (sbase + c) in
      S.lower_bound below ~lo:(cb + off) ~hi:(cb + imin (off + slack) clen) x - cb
    end

  (* ------------------------------------------------------------------ *)
  (* Counting                                                            *)
  (* ------------------------------------------------------------------ *)

  (* Elements below [x] in [lo, hi), a non-empty range inside the level-[j]
     node [nb, ne) longer than [fanout], given [pos], the position of [x] in
     the node's sorted run. Covered children cost one cascaded lookup each;
     the (at most two) boundary children go through [child_count]. When
     most children intersect, the node's own [pos] minus the children and
     boundary parts outside the range is the cheaper sum. *)
  let rec node_count t j nb ne pos lo hi x =
    if lo = nb && hi = ne then pos
    else begin
      let lc = Array.unsafe_get t.stride (j - 1) in
      let sbase = if t.sample = 0 then 0 else state_slot t j nb pos in
      let slack = if t.sample = 0 then 0 else pos mod t.sample in
      let nc = ((ne - nb - 1) / lc) + 1 in
      let c_first = (lo - nb) / lc and c_last = (hi - 1 - nb) / lc in
      let inside = c_last - c_first + 1 in
      if 2 * inside <= nc + 2 then begin
        let acc = ref (child_count t j sbase slack c_first nb ne lo hi x) in
        for c = c_first + 1 to c_last - 1 do
          acc := !acc + child_pos t j sbase slack c (nb + (c * lc)) lc x
        done;
        if c_last > c_first then acc := !acc + child_count t j sbase slack c_last nb ne lo hi x;
        !acc
      end
      else begin
        (* here c_first < c_last: the range leaves [nb, lo) in c_first and
           earlier children, [hi, ne) in c_last and later ones *)
        let acc =
          ref
            (pos
            - child_count t j sbase slack c_first nb ne nb lo x
            - child_count t j sbase slack c_last nb ne hi ne x)
        in
        for c = 0 to c_first - 1 do
          acc := !acc - child_pos t j sbase slack c (nb + (c * lc)) lc x
        done;
        for c = c_last + 1 to nc - 1 do
          let cb = nb + (c * lc) in
          acc := !acc - child_pos t j sbase slack c cb (imin lc (ne - cb)) x
        done;
        !acc
      end
    end

  (* Elements below [x] in [lo, hi) ∩ child [c] of the level-[j] node
     [nb, ne) (see [node_count] for [sbase]/[slack]): a leaf scan when the
     overlap is at most [fanout] elements, else one cascaded lookup and a
     descent into the child. *)
  and child_count t j sbase slack c nb ne lo hi x =
    let lc = Array.unsafe_get t.stride (j - 1) in
    let cb = nb + (c * lc) in
    let ce = imin (cb + lc) ne in
    let lo = imax lo cb and hi = imin hi ce in
    if hi - lo <= t.fanout then S.count_below (Array.unsafe_get t.levels 0) ~lo ~hi x
    else node_count t (j - 1) cb ce (child_pos t j sbase slack c cb (ce - cb) x) lo hi x

  let count t ~lo ~hi ~less_than =
    let lo = imax lo 0 and hi = imin hi t.n in
    if hi - lo <= t.fanout then S.count_below t.levels.(0) ~lo ~hi less_than
    else begin
      let h = height t in
      node_count t h 0 t.n (S.lower_bound t.levels.(h) ~lo:0 ~hi:t.n less_than) lo hi less_than
    end

  let count_ranges t ~ranges ~less_than =
    let acc = ref 0 in
    for i = 0 to Array.length ranges - 1 do
      let lo, hi = ranges.(i) in
      acc := !acc + count t ~lo ~hi ~less_than
    done;
    !acc

  let rec descend_iter t j nb len pos lo hi less_than f =
    let lc = t.stride.(j - 1) in
    let sbase = if t.sample = 0 then 0 else state_slot t j nb pos in
    let slack = if t.sample = 0 then 0 else pos mod t.sample in
    let nc = ((len - 1) / lc) + 1 in
    for c = 0 to nc - 1 do
      let cb = nb + (c * lc) in
      let clen = imin lc (len - (c * lc)) in
      if cb < hi && cb + clen > lo then begin
        let cpos = child_pos t j sbase slack c cb clen less_than in
        if lo <= cb && cb + clen <= hi then f ~level:(j - 1) ~base:cb ~prefix:cpos
        else descend_iter t (j - 1) cb clen cpos lo hi less_than f
      end
    done

  let iter_covered t ~lo ~hi ~less_than f =
    let lo = Int.max lo 0 and hi = Int.min hi t.n in
    if lo < hi then begin
      let h = height t in
      let pos = S.lower_bound t.levels.(h) ~lo:0 ~hi:t.n less_than in
      if lo = 0 && hi = t.n then f ~level:h ~base:0 ~prefix:pos
      else descend_iter t h 0 t.n pos lo hi less_than f
    end

  (* ------------------------------------------------------------------ *)
  (* Selection                                                           *)
  (* ------------------------------------------------------------------ *)

  let count_value_ranges t ~ranges =
    let acc = ref 0 in
    if t.n > 0 then begin
      let top = t.levels.(height t) in
      for r = 0 to Array.length ranges - 1 do
        let vlo, vhi = ranges.(r) in
        acc := !acc + S.lower_bound top ~lo:0 ~hi:t.n vhi - S.lower_bound top ~lo:0 ~hi:t.n vlo
      done
    end;
    !acc

  (* Probe setup shared by [select] and [neighbour]: sizes the scratch and
     loads the ranges' value bounds into [vals]; returns their count [nb]. *)
  let load_ranges t sc ~ranges =
    let nb = 2 * Array.length ranges in
    reserve sc ~nb ~levels:(height t + 1);
    for r = 0 to (nb / 2) - 1 do
      let vlo, vhi = ranges.(r) in
      sc.vals.(2 * r) <- vlo;
      sc.vals.((2 * r) + 1) <- vhi
    done;
    nb

  (* The value bounds' positions in the root's sorted run, into level h's
     [bounds] slots; returns the qualifying total. *)
  let root_bounds t sc ~nb =
    let h = height t in
    let vals = sc.vals and bounds = sc.bounds in
    let total = ref 0 in
    if t.n > 0 then begin
      let top = t.levels.(h) and at = h * nb in
      for b = 0 to nb - 1 do
        bounds.(at + b) <- S.lower_bound top ~lo:0 ~hi:t.n vals.(b);
        if b land 1 = 1 then total := !total + bounds.(at + b) - bounds.(at + b - 1)
      done
    end;
    !total

  (* Cascade slots of the level-[j] node starting at [node] for each bound,
     from its run positions in level j's [bounds] slots. *)
  let node_slots t sc ~nb ~j ~node =
    if t.sample > 0 then begin
      let at = j * nb in
      for b = 0 to nb - 1 do
        let p = Array.unsafe_get sc.bounds (at + b) in
        Array.unsafe_set sc.sbase b (state_slot t j node p);
        Array.unsafe_set sc.slack b (p mod t.sample)
      done
    end

  (* Qualifying elements of child [c] ([cb, cb + clen)) of the level-[j]
     node whose cascade slots [node_slots] set; the child's bound positions
     land in level j - 1's [bounds] slots. *)
  let child_qualifying t sc ~nb ~j ~c ~cb ~clen =
    let below = (j - 1) * nb in
    let bounds = sc.bounds and sbase = sc.sbase and slack = sc.slack and vals = sc.vals in
    let qual = ref 0 in
    for b = 0 to nb - 1 do
      let cp =
        child_pos t j (Array.unsafe_get sbase b) (Array.unsafe_get slack b) c cb clen
          (Array.unsafe_get vals b)
      in
      Array.unsafe_set bounds (below + b) cp;
      if b land 1 = 1 then qual := !qual + cp - Array.unsafe_get bounds (below + b - 1)
    done;
    !qual

  (* Whether the value [v] lies in one of the ascending ranges of [vals]. *)
  let qualifies vals ~nb v =
    let b = ref 0 in
    while !b < nb && v >= Array.unsafe_get vals (!b + 1) do
      b := !b + 2
    done;
    !b < nb && v >= Array.unsafe_get vals !b

  (* The node [node, node + len) of level j holds the qualifying elements
     bounds.(j·nb + 2r) .. bounds.(j·nb + 2r + 1) of its sorted run for each
     range r, [q] of them in all. The walk descends through the children
     in base order, computing their bounds into level j - 1's slots, to the
     value of the (m+1)-th qualifying element; once a node has at most
     [fanout] elements, it scans them on level 0 instead. *)
  let select_walk t sc ~nb ~j ~node ~len ~m ~q =
    (* [m] counts qualifying elements of the node before the target, [q]
       all of them; each node's children are walked from the end nearer
       the target in that order, [k] counting what is still to skip *)
    let j = ref j and node = ref node and len = ref len and m = ref m and q = ref q in
    while !len > t.fanout do
      let j' = !j in
      let lc = t.stride.(j' - 1) in
      node_slots t sc ~nb ~j:j' ~node:!node;
      let forward = 2 * !m < !q in
      let c = ref (if forward then 0 else (!len - 1) / lc) in
      let k = ref (if forward then !m else !q - 1 - !m) in
      let searching = ref true in
      while !searching do
        let cb = !node + (!c * lc) in
        let clen = imin lc (!node + !len - cb) in
        let qual = child_qualifying t sc ~nb ~j:j' ~c:!c ~cb ~clen in
        if !k < qual then begin
          searching := false;
          m := if forward then !k else qual - 1 - !k;
          q := qual;
          node := cb;
          len := clen
        end
        else begin
          k := !k - qual;
          c := if forward then !c + 1 else !c - 1
        end
      done;
      j := j' - 1
    done;
    (* leaf scan: the element of [node, node + len) in base order with [m]
       qualifying elements before it, from the nearer end *)
    let l0 = t.levels.(0) and vals = sc.vals in
    let forward = 2 * !m < !q in
    let p = ref (if forward then !node else !node + !len - 1) in
    let k = ref (if forward then !m else !q - 1 - !m) and result = ref 0 in
    while !k >= 0 do
      let v = S.get l0 !p in
      if qualifies vals ~nb v then begin
        if !k = 0 then result := v;
        decr k
      end;
      p := if forward then !p + 1 else !p - 1
    done;
    !result

  let select t ~scratch:sc ~ranges ~nth =
    let nb = load_ranges t sc ~ranges in
    let total = root_bounds t sc ~nb in
    if nth < 0 || nth >= total then
      invalid_arg
        (Printf.sprintf "%s.select: nth=%d out of bounds (%d qualifying)" S.name nth total);
    select_walk t sc ~nb ~j:(height t) ~node:0 ~len:t.n ~m:nth ~q:total

  (* Direct (uncascaded) bound positions of child [cb, cb + clen) of a
     level-[j] node into level j - 1's [bounds] slots, as [child_qualifying]
     but searching the whole child: it needs no parent bounds. *)
  let child_qualifying_direct t sc ~nb ~j ~cb ~clen =
    let below = (j - 1) * nb and lv = Array.unsafe_get t.levels (j - 1) in
    let bounds = sc.bounds and vals = sc.vals in
    let qual = ref 0 in
    for b = 0 to nb - 1 do
      let cp = S.lower_bound lv ~lo:cb ~hi:(cb + clen) (Array.unsafe_get vals b) - cb in
      Array.unsafe_set bounds (below + b) cp;
      if b land 1 = 1 then qual := !qual + cp - Array.unsafe_get bounds (below + b - 1)
    done;
    !qual

  (* Bounds of every node on [p]'s path from the root down to level [j],
     with the cascade. *)
  let descend_to t sc ~nb ~p ~j =
    ignore (root_bounds t sc ~nb);
    for jj = height t downto j + 1 do
      let stride = Array.unsafe_get t.stride jj and lc = Array.unsafe_get t.stride (jj - 1) in
      let node = p / stride * stride in
      let c = (p - node) / lc in
      let cb = node + (c * lc) in
      node_slots t sc ~nb ~j:jj ~node;
      ignore (child_qualifying t sc ~nb ~j:jj ~c ~cb ~clen:(imin lc (t.n - cb)))
    done

  (* The neighbour search: scan [p]'s leaf block (its level-1 node)
     outwards, then climb, counting the far-side siblings of each level's
     path child until one holds the target, and finish with [select_walk]
     inside it. A sibling of at most fanout × sample elements is counted
     by searching it whole (log₂ fanout steps more than a cascaded
     window's search, and no parent bounds needed); above that size the
     path's bounds come from
     one cascaded descent from the root, taken the first time the climb
     gets there. Dense frames thus never pay the root search. *)
  let neighbour t ~scratch:sc ~ranges ~from ~k ~forward =
    if k < 0 then invalid_arg (Printf.sprintf "%s.neighbour: k=%d is negative" S.name k);
    (* [p] is the first base index the search visits *)
    let p = if forward then from else from - 1 in
    if Array.length ranges = 0 || p < 0 || p >= t.n then -1
    else begin
      let h = height t in
      let nb = load_ranges t sc ~ranges in
      let vals = sc.vals in
      (* the leaf block: the level-1 node holding [p], from [p] outwards *)
      let l0 = t.levels.(0) in
      let lb = if h = 0 then 0 else p - (p mod t.fanout) in
      let stop = if forward then imin (lb + t.fanout) t.n else lb - 1 in
      let k = ref k and found = ref false and result = ref (-1) in
      let q = ref p in
      while (not !found) && !q <> stop do
        let v = S.get l0 !q in
        if qualifies vals ~nb v then begin
          if !k = 0 then begin
            found := true;
            result := v
          end;
          decr k
        end;
        q := if forward then !q + 1 else !q - 1
      done;
      let descended = ref false in
      let jj = ref 2 in
      while (not !found) && !jj <= h do
        let j = !jj in
        let stride = Array.unsafe_get t.stride j and lc = Array.unsafe_get t.stride (j - 1) in
        let node = p / stride * stride in
        let len = imin stride (t.n - node) in
        let nc = ((len - 1) / lc) + 1 in
        let direct = lc <= t.fanout * t.sample || t.sample = 0 in
        if not direct then begin
          if not !descended then begin
            descend_to t sc ~nb ~p ~j;
            descended := true
          end;
          node_slots t sc ~nb ~j ~node
        end;
        let c = ref (((p - node) / lc) + if forward then 1 else -1) in
        while (not !found) && !c >= 0 && !c < nc do
          let cb = node + (!c * lc) in
          let clen = imin lc (node + len - cb) in
          let qual =
            if direct then child_qualifying_direct t sc ~nb ~j ~cb ~clen
            else child_qualifying t sc ~nb ~j ~c:!c ~cb ~clen
          in
          if !k < qual then begin
            found := true;
            result :=
              select_walk t sc ~nb ~j:(j - 1) ~node:cb ~len:clen
                ~m:(if forward then !k else qual - 1 - !k)
                ~q:qual
          end
          else begin
            k := !k - qual;
            c := if forward then !c + 1 else !c - 1
          end
        done;
        incr jj
      done;
      !result
    end

  (* ------------------------------------------------------------------ *)
  (* Statistics                                                          *)
  (* ------------------------------------------------------------------ *)

  type stats = {
    level_elements : int;
    cursor_elements : int;
    payload_elements : int;
    heap_bytes : int;
  }

  let stats t =
    let level_elements = Array.fold_left (fun acc l -> acc + S.length l) 0 t.levels in
    let cursor_elements = Array.fold_left (fun acc c -> acc + S.length c) 0 t.cursors in
    let payload_elements =
      match t.payloads with
      | None -> 0
      | Some p -> Array.fold_left (fun acc l -> acc + Array.length l) 0 p
    in
    {
      level_elements;
      cursor_elements;
      payload_elements;
      heap_bytes =
        (S.bytes_per_element * (level_elements + cursor_elements)) + (8 * payload_elements);
    }

  (* The memory-accounting contract (ISSUE 5): bytes held by the built
     structure.  Element storage dominates; per-array headers and the
     record itself are a few dozen words against megabytes of levels, so
     the exact-arithmetic element count is the footprint. *)
  let footprint_bytes t = (stats t).heap_bytes
end
