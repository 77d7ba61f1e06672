open Holistic_storage
open Window_spec

type t = {
  np : int;
  start_ : int array;
  end_ : int array;
  peer_start : int array;
  peer_end : int array;
  exclusion : exclusion;
}

let size t = t.np
let start_ t r = t.start_.(r)
let end_ t r = t.end_.(r)
let peer_start t r = t.peer_start.(r)
let peer_end t r = t.peer_end.(r)
let exclusion t = t.exclusion

(* first index in [lo, hi) where [pred] holds; pred must be monotone
   (all-false prefix, all-true suffix) *)
let bs_first pred ~lo ~hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pred mid then hi := mid else lo := mid + 1
  done;
  !lo

let peers table order_by rows =
  let np = Array.length rows in
  let peer_start = Array.make np 0 and peer_end = Array.make np 0 in
  if order_by = [] then begin
    Array.fill peer_end 0 np np;
    (peer_start, peer_end)
  end
  else begin
    let cmp = Sort_spec.comparator table order_by in
    let gstart = ref 0 in
    for r = 1 to np do
      if r = np || cmp rows.(r - 1) rows.(r) <> 0 then begin
        for i = !gstart to r - 1 do
          peer_start.(i) <- !gstart;
          peer_end.(i) <- r
        done;
        gstart := r
      end
    done;
    (peer_start, peer_end)
  end

let eval_offset table expr row =
  match Expr.eval table expr row with
  | Value.Int k when k >= 0 -> k
  | Value.Int _ -> invalid_arg "Frame: negative frame offset"
  | _ -> invalid_arg "Frame: ROWS/GROUPS offsets must be non-negative integers"

let compute ?peers:precomputed table ~spec ~rows =
  let np = Array.length rows in
  let peer_start, peer_end =
    match precomputed with Some p -> p | None -> peers table spec.order_by rows
  in
  let frame =
    match spec.frame with
    | Some f -> f
    | None ->
        if spec.order_by = [] then Window_spec.whole_partition
        else range_between Unbounded_preceding Current_row
  in
  let start_ = Array.make np 0 and end_ = Array.make np 0 in
  (match frame.mode with
  | Rows ->
      for r = 0 to np - 1 do
        let row = rows.(r) in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Preceding e -> r - eval_offset table e row
          | Current_row -> r
          | Following e -> r + eval_offset table e row
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Preceding e -> r - eval_offset table e row + 1
          | Current_row -> r + 1
          | Following e -> r + eval_offset table e row + 1
          | Unbounded_following -> np)
      done
  | Groups ->
      (* group index per row plus group boundary tables *)
      let gidx = Array.make np 0 in
      let code = ref 0 in
      for r = 1 to np - 1 do
        if peer_start.(r) = r then incr code;
        gidx.(r) <- !code
      done;
      let ngroups = if np = 0 then 0 else !code + 1 in
      let gstarts = Array.make (max ngroups 1) 0 and gends = Array.make (max ngroups 1) 0 in
      for r = 0 to np - 1 do
        gstarts.(gidx.(r)) <- peer_start.(r);
        gends.(gidx.(r)) <- peer_end.(r)
      done;
      for r = 0 to np - 1 do
        let row = rows.(r) in
        let g = gidx.(r) in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Preceding e ->
              let k = eval_offset table e row in
              if g - k < 0 then 0 else gstarts.(g - k)
          | Current_row -> peer_start.(r)
          | Following e ->
              let k = eval_offset table e row in
              if g + k >= ngroups then np else gstarts.(g + k)
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Preceding e ->
              let k = eval_offset table e row in
              if g - k < 0 then 0 else gends.(g - k)
          | Current_row -> peer_end.(r)
          | Following e ->
              let k = eval_offset table e row in
              if g + k >= ngroups then np else gends.(g + k)
          | Unbounded_following -> np)
      done
  | Range ->
      let needs_key =
        match frame.start_bound, frame.end_bound with
        | (Preceding _ | Following _), _ | _, (Preceding _ | Following _) -> true
        | _ -> false
      in
      let key =
        match spec.order_by with
        | [ k ] -> Some k
        | _ -> None
      in
      if needs_key && key = None then
        invalid_arg "Frame: RANGE with offsets requires exactly one ORDER BY key";
      (* Key values in partition order; NULL rows occupy a contiguous region
         at one end (by the sort), and offset bounds give them their null
         peer group. *)
      let vals, nulls_first, desc =
        match key with
        | None -> ([||], false, false)
        | Some k ->
            let f = Expr.compile table k.Sort_spec.expr in
            let vals = Array.init np (fun r -> f rows.(r)) in
            let nulls_last =
              match k.Sort_spec.nulls, k.Sort_spec.direction with
              | Sort_spec.Nulls_last, _ -> true
              | Sort_spec.Nulls_first, _ -> false
              | Sort_spec.Nulls_default, Sort_spec.Asc -> true
              | Sort_spec.Nulls_default, Sort_spec.Desc -> false
            in
            (vals, not nulls_last, k.Sort_spec.direction = Sort_spec.Desc)
      in
      (* non-null region [nn_lo, nn_hi) *)
      let nn_lo, nn_hi =
        if vals = [||] then (0, np)
        else begin
          let nnulls = Array.fold_left (fun acc v -> if Value.is_null v then acc + 1 else acc) 0 vals in
          if nulls_first then (nnulls, np) else (0, np - nnulls)
        end
      in
      let cmpv a b = Value.compare_sql ~nulls_last:true a b in
      (* first non-null position whose key is >= target in frame order
         (i.e. >= for asc, <= for desc) *)
      let first_geq target =
        bs_first
          (fun p -> if desc then cmpv vals.(p) target <= 0 else cmpv vals.(p) target >= 0)
          ~lo:nn_lo ~hi:nn_hi
      in
      (* one past the last non-null position whose key is <= target in frame
         order *)
      let past_leq target =
        bs_first
          (fun p -> if desc then cmpv vals.(p) target < 0 else cmpv vals.(p) target > 0)
          ~lo:nn_lo ~hi:nn_hi
      in
      let delta e row =
        let v = Expr.eval table e row in
        if Value.is_null v then invalid_arg "Frame: NULL RANGE offset" else v
      in
      (* target value for "offset before / after the current value" in frame
         direction: preceding moves against the direction. *)
      let shifted v d ~towards_preceding =
        let back = if desc then not towards_preceding else towards_preceding in
        if back then Value.sub v d else Value.add v d
      in
      for r = 0 to np - 1 do
        let row = rows.(r) in
        let v = if vals = [||] then Value.Null else vals.(r) in
        let is_null = Value.is_null v in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Current_row -> peer_start.(r)
          | Preceding e ->
              if is_null then peer_start.(r)
              else first_geq (shifted v (delta e row) ~towards_preceding:true)
          | Following e ->
              if is_null then peer_start.(r)
              else first_geq (shifted v (delta e row) ~towards_preceding:false)
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Current_row -> peer_end.(r)
          | Preceding e ->
              if is_null then peer_end.(r)
              else past_leq (shifted v (delta e row) ~towards_preceding:true)
          | Following e ->
              if is_null then peer_end.(r)
              else past_leq (shifted v (delta e row) ~towards_preceding:false)
          | Unbounded_following -> np)
      done);
  (* clamp and normalise *)
  for r = 0 to np - 1 do
    start_.(r) <- max 0 (min start_.(r) np);
    end_.(r) <- max 0 (min end_.(r) np);
    if end_.(r) < start_.(r) then end_.(r) <- start_.(r)
  done;
  { np; start_; end_; peer_start; peer_end; exclusion = frame.exclusion }

(* [s, e) minus the holes [a1, b1) and [a2, b2), ascending, each clipped
   to [s, e); a hole clipped to nothing is no hole. At most three pieces
   (§4.7), built straight into the result. *)
let carve s e a1 b1 a2 b2 =
  let a1 = max a1 s and b1 = min b1 e and a2 = max a2 s and b2 = min b2 e in
  let h1 = a1 < b1 and h2 = a2 < b2 in
  let p1 = if h1 then b1 else s in
  let p2 = if h2 then max p1 b2 else p1 in
  let left = h1 && a1 > s and mid = h2 && a2 > p1 and right = p2 < e in
  let out = Array.make (Bool.to_int left + Bool.to_int mid + Bool.to_int right) (0, 0) in
  let i = ref 0 in
  if left then begin
    out.(!i) <- (s, a1);
    incr i
  end;
  if mid then begin
    out.(!i) <- (p1, a2);
    incr i
  end;
  if right then out.(!i) <- (p2, e);
  out

let ranges t r =
  let s = t.start_.(r) and e = t.end_.(r) in
  if s >= e then [||]
  else
    match t.exclusion with
    | Exclude_no_others -> [| (s, e) |]
    | Exclude_current_row -> carve s e r (r + 1) e e
    | Exclude_group -> carve s e t.peer_start.(r) t.peer_end.(r) e e
    | Exclude_ties -> carve s e t.peer_start.(r) r (r + 1) t.peer_end.(r)

(* Length of the hole [a, b) clipped to [s, e). *)
let clipped s e a b = max 0 (min b e - max a s)

(* The frame's size minus what its holes remove: the holes of one
   exclusion are disjoint, so their clipped lengths add up. *)
let covered t r =
  let s = t.start_.(r) and e = t.end_.(r) in
  if s >= e then 0
  else
    match t.exclusion with
    | Exclude_no_others -> e - s
    | Exclude_current_row -> e - s - clipped s e r (r + 1)
    | Exclude_group -> e - s - clipped s e t.peer_start.(r) t.peer_end.(r)
    | Exclude_ties -> e - s - clipped s e t.peer_start.(r) r - clipped s e (r + 1) t.peer_end.(r)
