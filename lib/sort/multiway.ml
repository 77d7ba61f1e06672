module Obs = Holistic_obs.Obs

type run = { lo : int; hi : int }

let total_length runs = Array.fold_left (fun acc r -> acc + (r.hi - r.lo)) 0 runs

type multiword = {
  key0 : int array;
  payload : int array;
  deep : int array array;
  tie : (int -> int -> int) option;
}

let of_words ~words ?tie rows =
  let nw = Array.length words in
  let key0 = Array.make (Array.length rows) 0 in
  if nw > 0 then begin
    let w0 = words.(0) in
    for i = 0 to Array.length rows - 1 do
      key0.(i) <- w0.(rows.(i))
    done
  end;
  { key0; payload = rows; deep = (if nw = 0 then [||] else Array.sub words 1 (nw - 1)); tie }

(* The one key comparator on row ids: row-indexed words [w..] in order,
   then the residual. A plain recursion over its arguments, so a compare
   allocates nothing. *)
let rec compare_from words nw tie w r1 r2 =
  if w = nw then match tie with Some t -> t r1 r2 | None -> 0
  else
    let a = Array.unsafe_get words w in
    let c = Int.compare a.(r1) a.(r2) in
    if c <> 0 then c else compare_from words nw tie (w + 1) r1 r2

let compare_keys words tie =
  let nw = Array.length words in
  fun r1 r2 -> compare_from words nw tie 0 r1 r2

let deep_compare mw =
  let deep = mw.deep and tie = mw.tie in
  let nd = Array.length deep in
  fun r1 r2 ->
    let c = compare_from deep nd tie 0 r1 r2 in
    if c <> 0 then c else Int.compare r1 r2

let compare_positions mw =
  let key0 = mw.key0 and payload = mw.payload in
  let dc = deep_compare mw in
  fun i j ->
    let c = Int.compare key0.(i) key0.(j) in
    if c <> 0 then c else dc payload.(i) payload.(j)

(* The one segment sort. A bare leading word orders by (key0, row id) —
   the payload itself — so it takes the unboxed pair sort; anything more
   breaks key0 ties through [deep_compare]. *)
let sort_range mw ~lo ~hi =
  if Array.length mw.deep = 0 && Option.is_none mw.tie then
    Introsort.sort_pairs_range ~key:mw.key0 ~payload:mw.payload ~lo ~hi
  else
    Introsort.sort_pairs_tie_range ~key:mw.key0 ~payload:mw.payload ~tie:(deep_compare mw) ~lo
      ~hi

(* Stable counting sort: bucket starts are the prefix sums of the slot
   counts, and rows are placed in ascending row id. *)
let sort_slots slots ~span =
  let n = Array.length slots in
  let start = Array.make (span + 1) 0 in
  Array.iter (fun s -> start.(s + 1) <- start.(s + 1) + 1) slots;
  for s = 1 to span do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let perm = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get slots i in
    let p = start.(s) in
    Array.unsafe_set perm p i;
    start.(s) <- p + 1
  done;
  perm

(* Global comparison counters for the OVC merge: [decided] compares
   settled by the codes alone, [scanned] compares that had to read key
   words. Accumulated locally per merge and flushed once, so parallel
   segment merges do not contend. *)
let ovc_decided_count = Obs.Counter.make ~help:"Merge comparisons decided by offset-value codes alone" "sort.ovc_decided"
let ovc_scanned_count = Obs.Counter.make ~help:"Merge comparisons that fell back to scanning key bytes" "sort.ovc_scanned"

(* The one K-way merge: a tree of losers carrying offset-value codes (Do
   & Graefe, "Robust and Efficient Sorting with Offset-Value Coding").
   Each entry's code [(off, v)] is relative to the record that most
   recently defeated it at its node: [off] is the index of the first key
   word where the entry differs from that base, [v] the entry's word
   there. Two entries meeting at a node always carry codes relative to
   the same base, so (for ascending order) the larger offset wins, equal
   offsets compare [v], and only a full [(off, v)] tie forces a scan of
   the actual key words from [off + 1] on — after which the {e loser}'s
   code is rewritten relative to the winner (a winner's code never
   changes; on an OVC-decided loss the loser's stale code is already
   correct relative to the winner). Duplicate-heavy composite keys thus
   cost one int compare per tree level instead of a full key walk.

   Leaves [0 .. nruns-1] are the runs, whatever holds them: [word l w] is
   word [w] of leaf [l]'s current entry and [row l] its row id; [pop l]
   emits the current entry, advances, and returns the first word where
   the new entry differs from the one just emitted ([nwords] when they
   are word-equal), or [-1] once the run is exhausted. A new entrant's
   code is relative to its run predecessor — exactly the record just
   emitted as the global winner — so that offset is its code. Word-equal
   entries are ordered by [tie], then ascending row id. *)
let merge_tree ~nruns ~nwords ~tie ~live ~word ~row ~pop =
  let kk = ref 1 in
  while !kk < nruns do kk := !kk * 2 done;
  let kk = !kk in
  let alive = Array.make kk false in
  let off = Array.make kk 0 in
  let ovc_v = Array.make kk 0 in
  (* each live leaf's current row id, read once per entry: word-equal
     entries compare it, at every level they meet *)
  let cur_row = Array.make kk 0 in
  let remaining = ref 0 in
  for l = 0 to nruns - 1 do
    if live l then begin
      alive.(l) <- true;
      incr remaining;
      (* initial codes are relative to a virtual -infinity base *)
      ovc_v.(l) <- word l 0;
      cur_row.(l) <- row l
    end
  done;
  let decided = ref 0 and scanned = ref 0 in
  (* [beats a b]: leaf [a]'s entry sorts strictly before leaf [b]'s. *)
  let beats a b =
    if not alive.(b) then true
    else if not alive.(a) then false
    else begin
      let oa = off.(a) and ob = off.(b) in
      if oa <> ob then begin
        incr decided;
        oa > ob
      end
      else if ovc_v.(a) <> ovc_v.(b) then begin
        incr decided;
        ovc_v.(a) < ovc_v.(b)
      end
      else begin
        incr scanned;
        let w = ref (oa + 1) in
        while !w < nwords && word a !w = word b !w do incr w done;
        if !w < nwords then begin
          let wa = word a !w and wb = word b !w in
          if wa < wb then begin
            off.(b) <- !w;
            ovc_v.(b) <- wb;
            true
          end
          else begin
            off.(a) <- !w;
            ovc_v.(a) <- wa;
            false
          end
        end
        (* word-equal keys: the residual, then the row id, decides; the
           loser is word-equal to its new base *)
        else if
          let ra = cur_row.(a) and rb = cur_row.(b) in
          let c = match tie with Some t -> t ra rb | None -> 0 in
          c < 0 || (c = 0 && ra < rb)
        then begin
          off.(b) <- nwords;
          ovc_v.(b) <- 0;
          true
        end
        else begin
          off.(a) <- nwords;
          ovc_v.(a) <- 0;
          false
        end
      end
    end
  in
  (* node.(i), 1 <= i < kk, stores the losing leaf of its subtree;
     leaves are implicit at kk .. 2*kk-1 *)
  let node = Array.make kk (-1) in
  let rec build i =
    if i >= kk then i - kk
    else begin
      let wl = build (2 * i) and wr = build ((2 * i) + 1) in
      if beats wl wr then begin
        node.(i) <- wr;
        wl
      end
      else begin
        node.(i) <- wl;
        wr
      end
    end
  in
  let winner = ref (build 1) in
  while !remaining > 0 do
    let l = !winner in
    let o = pop l in
    if o < 0 then begin
      alive.(l) <- false;
      decr remaining
    end
    else begin
      off.(l) <- o;
      ovc_v.(l) <- (if o < nwords then word l o else 0);
      cur_row.(l) <- row l
    end;
    (* replay from the leaf's parent to the root *)
    let cur = ref l in
    let i = ref ((kk + l) lsr 1) in
    while !i >= 1 do
      let rival = node.(!i) in
      if beats rival !cur then begin
        node.(!i) <- !cur;
        cur := rival
      end;
      i := !i lsr 1
    done;
    winner := !cur
  done;
  Obs.Counter.add ovc_decided_count !decided;
  Obs.Counter.add ovc_scanned_count !scanned

let merge_multiword ~mw ~runs ~dst_key0 ~dst_payload ~dst_pos =
  let nruns = Array.length runs in
  if nruns = 1 then begin
    let { lo; hi } = runs.(0) in
    Array.blit mw.key0 lo dst_key0 dst_pos (hi - lo);
    Array.blit mw.payload lo dst_payload dst_pos (hi - lo)
  end
  else begin
    let key0 = mw.key0 and payload = mw.payload and deep = mw.deep in
    let nwords = 1 + Array.length deep in
    let cursor = Array.map (fun r -> r.lo) runs in
    let out = ref dst_pos in
    merge_tree ~nruns ~nwords ~tie:mw.tie
      ~live:(fun l -> runs.(l).lo < runs.(l).hi)
      ~word:(fun l w ->
        let pos = cursor.(l) in
        if w = 0 then key0.(pos) else deep.(w - 1).(payload.(pos)))
      ~row:(fun l -> payload.(cursor.(l)))
      ~pop:(fun l ->
        let c = cursor.(l) in
        dst_key0.(!out) <- key0.(c);
        dst_payload.(!out) <- payload.(c);
        incr out;
        let c' = c + 1 in
        cursor.(l) <- c';
        if c' = runs.(l).hi then -1
        else if key0.(c') <> key0.(c) then 0
        else begin
          let r' = payload.(c') and r = payload.(c) in
          let w = ref 1 in
          while !w < nwords && deep.(!w - 1).(r') = deep.(!w - 1).(r) do incr w done;
          !w
        end)
  end

(* ------------------------------------------------------------------ *)
(* Run sources: buffered streams of interleaved entries                *)
(* ------------------------------------------------------------------ *)

(* A source yields one sorted run as interleaved entries of [nwords] key
   words followed by the payload row id (stride [nwords + 1]), refilled
   on demand, e.g. from an on-disk run file. *)
type source = {
  s_nwords : int;
  s_buf : int array;
  mutable s_len : int; (* entries currently buffered *)
  mutable s_cur : int; (* current entry index, < s_len when alive *)
  s_prev : int array; (* key words of the entry emitted just before s_buf.(0) *)
  s_refill : int array -> int;
  s_close : unit -> unit;
}

let make_source ~nwords ~buf_entries ~refill ~close =
  if nwords < 1 then invalid_arg "Multiway.make_source: nwords must be >= 1";
  let buf_entries = max 1 buf_entries in
  let s =
    {
      s_nwords = nwords;
      s_buf = Array.make (buf_entries * (nwords + 1)) 0;
      s_len = 0;
      s_cur = 0;
      s_prev = Array.make nwords 0;
      s_refill = refill;
      s_close = close;
    }
  in
  s.s_len <- refill s.s_buf;
  s

let source_close s = s.s_close ()

(* The same loser tree as [merge_multiword]. The run predecessor of a new
   entrant is the previous buffer slot or, across a refill, the key words
   saved in [s_prev] before it. *)
let merge_sources ~sources ?tie ~emit () =
  let nruns = Array.length sources in
  if nruns > 0 then begin
    let nwords = sources.(0).s_nwords in
    Array.iter
      (fun s -> if s.s_nwords <> nwords then invalid_arg "Multiway.merge_sources: mixed word counts")
      sources;
    let stride = nwords + 1 in
    let word l w =
      let s = sources.(l) in
      s.s_buf.((s.s_cur * stride) + w)
    in
    let row l =
      let s = sources.(l) in
      s.s_buf.((s.s_cur * stride) + nwords)
    in
    let pop l =
      let s = sources.(l) in
      let buf = s.s_buf and e = s.s_cur * stride in
      emit buf.(e) buf.(e + nwords);
      if s.s_cur + 1 < s.s_len then begin
        s.s_cur <- s.s_cur + 1;
        let w = ref 0 in
        while !w < nwords && buf.(e + stride + !w) = buf.(e + !w) do incr w done;
        !w
      end
      else begin
        Array.blit buf e s.s_prev 0 nwords;
        s.s_len <- s.s_refill buf;
        s.s_cur <- 0;
        if s.s_len = 0 then -1
        else begin
          let w = ref 0 in
          while !w < nwords && buf.(!w) = s.s_prev.(!w) do incr w done;
          !w
        end
      end
    in
    merge_tree ~nruns ~nwords ~tie ~live:(fun l -> sources.(l).s_len > 0) ~word ~row ~pop
  end

let lower_bound_by ~less ~lo ~hi pivot =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let m = !lo + ((!hi - !lo) / 2) in
    if less m pivot then lo := m + 1 else hi := m
  done;
  !lo

(* Multisequence selection under a strict total order on positions:
   repeatedly pick the middle of the largest active interval as pivot,
   count the active elements strictly below it across all runs by binary
   search, and either commit everything below the pivot (and the pivot)
   under the cut or discard everything at or above it. The strict total
   order makes the rank-[rank] cut unique, so the loop converges like a
   quickselect over the union of the runs. *)
let split_at_rank_by ~less ~runs ~rank =
  let total = total_length runs in
  if rank < 0 || rank > total then invalid_arg "Multiway.split_at_rank_by";
  let k = Array.length runs in
  let lo = Array.map (fun r -> r.lo) runs in
  let hi = Array.map (fun r -> r.hi) runs in
  let remaining = ref rank in
  let cuts = Array.make k 0 in
  let finished = ref false in
  while not !finished do
    if !remaining = 0 then begin
      Array.blit lo 0 cuts 0 k;
      finished := true
    end
    else begin
      let active = ref 0 in
      for r = 0 to k - 1 do
        active := !active + (hi.(r) - lo.(r))
      done;
      if !active = !remaining then begin
        Array.blit hi 0 cuts 0 k;
        finished := true
      end
      else begin
        let rp = ref (-1) and best = ref 0 in
        for r = 0 to k - 1 do
          let len = hi.(r) - lo.(r) in
          if len > !best then begin
            best := len;
            rp := r
          end
        done;
        let p = lo.(!rp) + ((hi.(!rp) - lo.(!rp)) / 2) in
        let cnt = ref 0 in
        let c = Array.make k 0 in
        for r = 0 to k - 1 do
          let b = lower_bound_by ~less ~lo:lo.(r) ~hi:hi.(r) p in
          c.(r) <- b;
          cnt := !cnt + (b - lo.(r))
        done;
        if !cnt = !remaining then begin
          Array.blit c 0 cuts 0 k;
          finished := true
        end
        else if !cnt < !remaining then begin
          (* everything below the pivot plus the pivot itself is under
             the cut *)
          remaining := !remaining - !cnt - 1;
          Array.blit c 0 lo 0 k;
          lo.(!rp) <- p + 1
        end
        else Array.blit c 0 hi 0 k
      end
    end
  done;
  cuts
