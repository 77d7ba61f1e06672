open Holistic_storage
open Window_spec
module Bitset = Holistic_util.Bitset

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

(* ------------------------------------------------------------------ *)
(* Peers                                                               *)
(* ------------------------------------------------------------------ *)

(* Sets [flags.(r)] to 1 where row [r] differs from row [r - 1] on [key].
   A column key is compared on its typed array, with [Value.compare_sql]'s
   equality: [Float.compare] makes NaN equal NaN and -0. equal +0., two
   NULLs are peers and a NULL and a value are not. An expression key is
   evaluated once per row. *)
let mark_changes table (key : Sort_spec.key) rows flags =
  let np = Array.length rows in
  match key.expr with
  | Expr.Col name ->
      let c = Table.column table name in
      let differ : int -> int -> bool =
        match Column.buffer c with
        | Column.Ints a | Column.Dates a -> fun i j -> a.(i) <> a.(j)
        | Column.Floats a -> fun i j -> Float.compare a.(i) a.(j) <> 0
        | Column.Strings a -> fun i j -> not (String.equal a.(i) a.(j))
        | Column.Bools a -> fun i j -> not (Bool.equal a.(i) a.(j))
      in
      let differ =
        match Column.null_mask c with
        | None -> differ
        | Some m ->
            fun i j ->
              let ni = Bitset.get m i in
              ni <> Bitset.get m j || ((not ni) && differ i j)
      in
      for r = 1 to np - 1 do
        if differ rows.(r - 1) rows.(r) then flags.(r) <- 1
      done
  | e ->
      let f = Expr.compile table e in
      let prev = ref (if np > 0 then f rows.(0) else Value.Null) in
      for r = 1 to np - 1 do
        let v = f rows.(r) in
        if not (Value.equal !prev v) then flags.(r) <- 1;
        prev := v
      done

let peers table order_by rows =
  let np = Array.length rows in
  let peer_start = Array.make np 0 and peer_end = Array.make np np in
  if order_by <> [] then begin
    (* [peer_start] first holds the flags: 1 where a peer group starts *)
    List.iter (fun key -> mark_changes table key rows peer_start) order_by;
    for r = 1 to np - 1 do
      peer_start.(r) <- (if peer_start.(r) = 1 then r else peer_start.(r - 1))
    done;
    for r = np - 2 downto 0 do
      peer_end.(r) <- (if peer_start.(r + 1) = r + 1 then r + 1 else peer_end.(r + 1))
    done
  end;
  (peer_start, peer_end)

(* Peers of a partition extended in order: [rows] holds the old rows,
   unmoved, ahead of the appended ones, so every peer group that ends
   before the last old group is unchanged. Only the suffix from the last
   old group's start is rescanned, since appended rows may tie with it. *)
let extend_peers table order_by rows (old_start, old_end) =
  let np = Array.length rows and k = Array.length old_start in
  let from = if k = 0 then 0 else old_start.(k - 1) in
  let tail_start, tail_end = peers table order_by (Array.sub rows from (np - from)) in
  let peer_start = Array.make np 0 and peer_end = Array.make np np in
  Array.blit old_start 0 peer_start 0 from;
  Array.blit old_end 0 peer_end 0 from;
  for r = from to np - 1 do
    peer_start.(r) <- from + tail_start.(r - from);
    peer_end.(r) <- from + tail_end.(r - from)
  done;
  (peer_start, peer_end)

(* ------------------------------------------------------------------ *)
(* Offsets                                                             *)
(* ------------------------------------------------------------------ *)

(* A bound's offset expression, compiled once per frame. *)
type source =
  | Const of Value.t
  | Int_col of int array  (** a NULL-free int column, read unboxed *)
  | Eval of (int -> Value.t)  (** compiled once, applied per row *)

let source table e =
  match e with
  | Expr.Const v -> Const v
  | Expr.Col name -> (
      let c = Table.column table name in
      match Column.buffer c, Column.null_mask c with
      | Column.Ints a, None -> Int_col a
      | Column.Ints a, Some m when Bitset.count m = 0 -> Int_col a
      | _ -> Eval (Expr.compile table e))
  | e -> Eval (Expr.compile table e)

let negative_offset () = invalid_arg "Frame: negative frame offset"

let decode_offset = function
  | Value.Int k -> k
  | _ -> invalid_arg "Frame: ROWS/GROUPS offsets must be non-negative integers"

(* The ROWS/GROUPS offset of a bound, per table row: a constant is
   decoded once, and raises (if invalid) only when a row asks for it. An
   offset past the partition's [np] rows reaches as far as [np + 1] does,
   so capping it keeps the position arithmetic from wrapping. *)
let offset table ~np bound =
  let cap k = if k >= 0 then Int.min k (np + 1) else negative_offset () in
  match bound with
  | Preceding e | Following e -> (
      match source table e with
      | Const v -> fun _ -> cap (decode_offset v)
      | Int_col a -> fun row -> cap a.(row)
      | Eval f -> fun row -> cap (decode_offset (f row)))
  | Unbounded_preceding | Current_row | Unbounded_following -> fun _ -> 0

(* ------------------------------------------------------------------ *)
(* RANGE                                                               *)
(* ------------------------------------------------------------------ *)

(* The RANGE key of the partition's rows, unboxed, in partition order.
   Int and date keys are stored so that frame order is ascending: as they
   are under ASC, as [lnot k] under DESC. [lnot] reverses the order and
   [lnot (v + d) = lnot v - d], so "d preceding" is [k - d] in either
   direction. Float keys keep their values and the direction, since NaN,
   which [Value.compare_sql] ranks lowest, is its own negation. An
   expression key whose values mix ints and floats is read as floats
   (exact below 2^53); one of any other type, or of mixed non-numeric
   types, has no arithmetic, so every shift of it raises. *)
type keys =
  | Int_keys of int array
  | Date_keys of int array
  | Float_keys of float array
  | Untyped

(* [(keys, nulls)]: the key array and the number of NULL keys. *)
let range_keys table (key : Sort_spec.key) rows =
  let np = Array.length rows in
  let desc = key.direction = Sort_spec.Desc in
  (* int keys in partition order, flipped to ascending frame order *)
  let ints k =
    if desc then
      for r = 0 to np - 1 do
        k.(r) <- lnot k.(r)
      done;
    k
  in
  let gather a = Array.init np (fun r -> a.(rows.(r))) in
  match key.expr with
  | Expr.Col name ->
      let c = Table.column table name in
      let nulls =
        match Column.null_mask c with
        | None -> 0
        | Some m -> Array.fold_left (fun n row -> if Bitset.get m row then n + 1 else n) 0 rows
      in
      let keys =
        match Column.buffer c with
        | Column.Ints a -> Int_keys (ints (gather a))
        | Column.Dates a -> Date_keys (ints (gather a))
        | Column.Floats a ->
            let k = Array.create_float np in
            for r = 0 to np - 1 do
              k.(r) <- a.(rows.(r))
            done;
            Float_keys k
        | Column.Strings _ | Column.Bools _ -> Untyped
      in
      (keys, nulls)
  | e ->
      let f = Expr.compile table e in
      let iv = Array.make np 0 and fv = Array.create_float np in
      let nulls = ref 0 and n_int = ref 0 and n_float = ref 0 and n_date = ref 0 in
      for r = 0 to np - 1 do
        match f rows.(r) with
        | Value.Null -> incr nulls
        | Value.Int x ->
            incr n_int;
            iv.(r) <- x;
            fv.(r) <- float_of_int x
        | Value.Float x ->
            incr n_float;
            fv.(r) <- x
        | Value.Date x ->
            incr n_date;
            iv.(r) <- x
        | _ -> ()
      done;
      let typed = !nulls + !n_int + !n_float + !n_date = np in
      let keys =
        if typed && !n_date = 0 && !n_float > 0 then Float_keys fv
        else if typed && !n_date = 0 then Int_keys (ints iv)
        else if typed && !n_int + !n_float = 0 then Date_keys (ints iv)
        else Untyped
      in
      (keys, !nulls)

(* [int_seek keys ~lo ~hi ~upper t] binary-searches [keys.(lo..hi-1)],
   ascending, for the first position whose key is >= [t] (> when
   [upper]). *)
let int_seek keys ~lo ~hi ~upper t =
  let stop = if upper then 1 else 0 in
  let a = ref lo and b = ref hi in
  while !a < !b do
    let mid = (!a + !b) lsr 1 in
    if Int.compare keys.(mid) t < stop then a := mid + 1 else b := mid
  done;
  !a

(* [int_seek] on float keys in frame order ([desc] flips
   [Float.compare]). The target is read from [cell.(0)], where the
   caller stores it unboxed. *)
let float_seek keys ~desc ~lo ~hi ~upper cell =
  let stop = if upper then 1 else 0 and sign = if desc then -1 else 1 in
  fun () ->
    let t = cell.(0) in
    let a = ref lo and b = ref hi in
    while !a < !b do
      let mid = (!a + !b) lsr 1 in
      if sign * Float.compare keys.(mid) t < stop then a := mid + 1 else b := mid
    done;
    !a

(* One RANGE offset bound, as a function of (partition position, table
   row) for rows with a non-NULL key: the first position at or past (for
   an end bound, [upper], strictly past) the row's key shifted by the
   offset — against the frame order when [preceding]. *)
let range_bound table (key : Sort_spec.key) rows keys ~lo ~hi ~upper ~preceding e =
  let src = source table e in
  let desc = key.direction = Sort_spec.Desc in
  (* subtract in value space: preceding under ASC, following under DESC *)
  let sub = preceding <> desc in
  let mismatch r d =
    (* the boxed arithmetic raises its own error; one that succeeds
       crosses types (a date minus a date, an int plus a date) *)
    let v = Expr.compile table key.expr rows.(r) in
    ignore (if sub then Value.sub v d else Value.add v d);
    invalid_arg "Frame: RANGE offset type does not match the ORDER BY key"
  in
  (* float targets pass to the search through [cell], unboxed *)
  let cell = [| 0. |] in
  let by_int, by_float, by_interval =
    match keys with
    | Int_keys k | Date_keys k ->
        let is_date = match keys with Date_keys _ -> true | _ -> false in
        let seek = int_seek k ~lo ~hi ~upper in
        (* between stored keys and values; [lnot] is its own inverse *)
        let flip x = if desc then lnot x else x in
        let float_seek =
          (* an int key against a float offset compares as a float *)
          lazy
            (let fk = Array.create_float (Array.length k) in
             for r = lo to hi - 1 do
               fk.(r) <- float_of_int (flip k.(r))
             done;
             float_seek fk ~desc ~lo ~hi ~upper cell)
        in
        ( (fun d r ->
            (* a target past either end of the int range is past every key *)
            let x = k.(r) in
            let t = if preceding then x - d else x + d in
            if (if preceding then d < 0 else d > 0) && t < x then hi
            else if (if preceding then d > 0 else d < 0) && t > x then lo
            else seek t),
          (fun d r ->
            if is_date then mismatch r (Value.Float d)
            else begin
              let x = float_of_int (flip k.(r)) in
              cell.(0) <- (if sub then x -. d else x +. d);
              Lazy.force float_seek ()
            end),
          fun (i : Value.interval) r ->
            if not is_date then mismatch r (Value.Interval i)
            else if i.months = 0 then seek (if preceding then k.(r) - i.days else k.(r) + i.days)
            else begin
              let v = flip k.(r) in
              seek
                (flip
                   (if sub then Value.add_months v (-i.months) - i.days
                    else Value.add_months v i.months + i.days))
            end )
    | Float_keys k ->
        let seek = float_seek k ~desc ~lo ~hi ~upper cell in
        ( (fun d r ->
            let d = float_of_int d in
            cell.(0) <- (if sub then k.(r) -. d else k.(r) +. d);
            seek ()),
          (fun d r ->
            cell.(0) <- (if sub then k.(r) -. d else k.(r) +. d);
            seek ()),
          fun i r -> mismatch r (Value.Interval i) )
    | Untyped ->
        ( (fun d r -> mismatch r (Value.Int d)),
          (fun d r -> mismatch r (Value.Float d)),
          fun i r -> mismatch r (Value.Interval i) )
  in
  let by_value r = function
    | Value.Null -> invalid_arg "Frame: NULL RANGE offset"
    | Value.Int d -> by_int d r
    | Value.Float d -> by_float d r
    | Value.Interval i -> by_interval i r
    | d -> mismatch r d
  in
  match src with
  | Const v -> fun r _ -> by_value r v
  | Int_col a -> fun r row -> by_int a.(row) r
  | Eval f -> fun r row -> by_value r (f row)

let default_frame (spec : Window_spec.t) =
  match spec.frame with
  | Some f -> f
  | None ->
      if spec.order_by = [] then Window_spec.whole_partition
      else range_between Unbounded_preceding Current_row

let has_offset = function Preceding _ | Following _ -> true | _ -> false

let compute ?peers:precomputed table ~spec ~rows =
  let np = Array.length rows in
  let peer_start, peer_end =
    match precomputed with Some p -> p | None -> peers table spec.order_by rows
  in
  let frame = default_frame spec in
  let key = match spec.order_by with [ k ] -> Some k | _ -> None in
  let range_offsets =
    frame.mode = Range && (has_offset frame.start_bound || has_offset frame.end_bound)
  in
  if range_offsets && key = None then
    invalid_arg "Frame: RANGE with offsets requires exactly one ORDER BY key";
  let start_ = Array.make np 0 and end_ = Array.make np 0 in
  (* offsets are compiled only when some row will ask for them *)
  if np > 0 then begin
    match frame.mode with
    | Rows ->
        let s_off = offset table ~np frame.start_bound and e_off = offset table ~np frame.end_bound in
        for r = 0 to np - 1 do
          let row = rows.(r) in
          start_.(r) <-
            (match frame.start_bound with
            | Unbounded_preceding -> 0
            | Preceding _ -> r - s_off row
            | Current_row -> r
            | Following _ -> r + s_off row
            | Unbounded_following -> np);
          end_.(r) <-
            (match frame.end_bound with
            | Unbounded_preceding -> 0
            | Preceding _ -> r - e_off row + 1
            | Current_row -> r + 1
            | Following _ -> r + e_off row + 1
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
        let s_off = offset table ~np frame.start_bound and e_off = offset table ~np frame.end_bound in
        for r = 0 to np - 1 do
          let row = rows.(r) in
          let g = gidx.(r) in
          start_.(r) <-
            (match frame.start_bound with
            | Unbounded_preceding -> 0
            | Preceding _ ->
                let k = s_off row in
                if g - k < 0 then 0 else gstarts.(g - k)
            | Current_row -> peer_start.(r)
            | Following _ ->
                let k = s_off row in
                if g + k >= ngroups then np else gstarts.(g + k)
            | Unbounded_following -> np);
          end_.(r) <-
            (match frame.end_bound with
            | Unbounded_preceding -> 0
            | Preceding _ ->
                let k = e_off row in
                if g - k < 0 then 0 else gends.(g - k)
            | Current_row -> peer_end.(r)
            | Following _ ->
                let k = e_off row in
                if g + k >= ngroups then np else gends.(g + k)
            | Unbounded_following -> np)
        done
    | Range ->
        (* Rows with a NULL key frame their null peer group; the others
           search the non-NULL region [lo, hi), which the sort keeps
           contiguous at one end. *)
        let unused _ _ = 0 in
        let lo, hi, start_at, end_at =
          match key with
          | Some key when range_offsets ->
              let keys, nulls = range_keys table key rows in
              let lo, hi = if Sort_spec.nulls_last_flag key then (0, np - nulls) else (nulls, np) in
              let at ~upper = function
                | Preceding e -> range_bound table key rows keys ~lo ~hi ~upper ~preceding:true e
                | Following e -> range_bound table key rows keys ~lo ~hi ~upper ~preceding:false e
                | Unbounded_preceding | Current_row | Unbounded_following -> unused
              in
              (lo, hi, at ~upper:false frame.start_bound, at ~upper:true frame.end_bound)
          | _ -> (0, np, unused, unused)
        in
        for r = 0 to np - 1 do
          let row = rows.(r) in
          let is_null = r < lo || r >= hi in
          start_.(r) <-
            (match frame.start_bound with
            | Unbounded_preceding -> 0
            | Current_row -> peer_start.(r)
            | Preceding _ | Following _ -> if is_null then peer_start.(r) else start_at r row
            | Unbounded_following -> np);
          end_.(r) <-
            (match frame.end_bound with
            | Unbounded_preceding -> 0
            | Current_row -> peer_end.(r)
            | Preceding _ | Following _ -> if is_null then peer_end.(r) else end_at r row
            | Unbounded_following -> np)
        done
  end;
  (* clamp and normalise *)
  for r = 0 to np - 1 do
    start_.(r) <- Int.max 0 (Int.min start_.(r) np);
    end_.(r) <- Int.max 0 (Int.min end_.(r) np);
    if end_.(r) < start_.(r) then end_.(r) <- start_.(r)
  done;
  { np; start_; end_; peer_start; peer_end; exclusion = frame.exclusion }

(* [s, e) minus the holes [a1, b1) and [a2, b2), ascending, each clipped
   to [s, e); a hole clipped to nothing is no hole. At most three pieces
   (§4.7), built straight into the result. *)
let carve s e a1 b1 a2 b2 =
  let a1 = Int.max a1 s and b1 = Int.min b1 e and a2 = Int.max a2 s and b2 = Int.min b2 e in
  let h1 = a1 < b1 and h2 = a2 < b2 in
  let p1 = if h1 then b1 else s in
  let p2 = if h2 then Int.max p1 b2 else p1 in
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
let clipped s e a b = Int.max 0 (Int.min b e - Int.max a s)

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
