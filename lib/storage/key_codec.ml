module Bitset = Holistic_util.Bitset

type source = { table : Table.t; key : Sort_spec.key }

type t = {
  n : int;
  words : int array array;
  residual : (int -> int -> int) option;
  pid_divisor : int option;
  covered : int;
  total : int;
}

(* ------------------------------------------------------------------ *)
(* Per-key raw order codes                                             *)
(* ------------------------------------------------------------------ *)

(* One int code per row whose [Int.compare] order equals the key's order on
   non-NULL rows (direction already applied); NULL rows carry garbage codes
   and are placed by the packing step according to [nulls_first]. [exact]
   means code ties imply comparator ties; a non-exact code array is still a
   correct coarsening (code < implies value <), so its word remains useful
   for run sorting and OVC merging while the residual decides ties.
   [owned] codes were made by this compile, so packing may overwrite them
   in place; the others alias column storage, which may run past the
   compile's [n] rows (a column's room). *)
type raw = {
  codes : int array;
  nulls : Bitset.t option; (* None = no NULL rows *)
  nulls_first : bool;
  exact : bool;
  owned : bool;
}

let has_nulls r = match r.nulls with Some _ -> true | None -> false

(* Position-indexed masks hold at least the compile's [n] rows. *)
let[@inline] is_null nulls i = match nulls with Some m -> Bitset.unsafe_get m i | None -> false

(* Row [i] of a compile over [rows] is table row [rows.(i)]; without
   [rows] it is table row [i] and column arrays are read in place. *)
let gather_mask rows mask =
  let mask = match (rows, mask) with Some r, Some m -> Some (Bitset.gather m r) | _ -> mask in
  match mask with Some m when Bitset.count m > 0 -> mask | _ -> None

(* Int codes of the [n] rows in key order: [lnot] for DESC. ASC over the
   whole table aliases [a], which may run past [n] (a column's buffer):
   raws are read-only downstream and read only their first [n] entries. *)
let int_codes ~n ?rows ~desc (a : int array) =
  match (rows, desc) with
  | None, false -> a
  | None, true -> Array.init n (fun i -> lnot (Array.unsafe_get a i))
  | Some r, false -> Array.map (fun row -> a.(row)) r
  | Some r, true -> Array.map (fun row -> lnot a.(row)) r

let exact ?(owned = true) codes nulls nulls_first =
  [ { codes; nulls; nulls_first; exact = true; owned } ]

(* [float_scode >> 1] of NaN: below the image of -infinity *)
let nan_hi = Int64.to_int (Int64.shift_right (Int64.add Int64.min_int 2L) 1)

(* Sign-magnitude bit flip: a 64-bit int code whose signed order equals the
   float order under [Stdlib.compare] (nan below everything, nan = nan,
   -0. = +0.). Positive floats keep their bits; negative floats get
   [lognot bits lxor min_int] (reverses their bit order and parks them below
   all positives); nan takes a code below the -infinity image.

   A float key costs one word when every scode is even (the arithmetic
   shift into OCaml's 63-bit int stays injective), two words otherwise:
   the high 63 bits, then the dropped low bit — both exact, and the low
   bit has span 2 so it packs with whatever follows. The loop reads the
   float array directly (through [rows] when given), so no float is
   boxed; only the raw bit image passes through Int64, unboxed. *)
let float_raws ~n ?rows (a : float array) nulls nulls_first desc =
  let hi = Array.make n 0 and lo = Array.make n 0 in
  let all_even = ref true in
  for i = 0 to n - 1 do
    if not (is_null nulls i) then begin
      let f =
        match rows with
        | None -> Array.unsafe_get a i
        | Some r -> a.(Array.unsafe_get r i)
      in
      if Float.is_nan f then begin
        Array.unsafe_set hi i (if desc then lnot nan_hi else nan_hi);
        if desc then Array.unsafe_set lo i 1
      end
      else begin
        (* [float_scode >> 1] and its low bit in native-int arithmetic: the
           arithmetic shift commutes with the sign transform componentwise *)
        let b = Int64.bits_of_float (if f = 0.0 then 0.0 else f) in
        let hib = Int64.to_int (Int64.shift_right b 1) in
        let bit = Int64.to_int b land 1 in
        let neg = hib < 0 in
        let h = if neg then lnot hib lxor min_int else hib in
        let bit = if neg then bit lxor 1 else bit in
        Array.unsafe_set hi i (if desc then lnot h else h);
        Array.unsafe_set lo i (if desc then 1 - bit else bit);
        if bit <> 0 then all_even := false
      end
    end
  done;
  let hi_raw = { codes = hi; nulls; nulls_first; exact = true; owned = true } in
  if !all_even then [ hi_raw ] else [ hi_raw; { hi_raw with codes = lo } ]

let max_exact_float_int = 9007199254740992 (* 2^53: float_of_int is injective below *)

(* Expression keys: evaluate once per row, then classify. Homogeneous
   Int/Date/Bool/String/Float domains encode exactly; an Int/Float mix
   encodes through the float image (exactly what the comparator compares
   through), which is exact unless some int exceeds 2^53 — then the high
   word is kept as a coarsening and the residual takes over. Anything
   else (intervals, mixed unrelated types) is inexpressible. *)
let raws_of_values n vals nulls_first desc =
  let has_bool = ref false
  and has_int = ref false
  and has_float = ref false
  and has_string = ref false
  and has_date = ref false
  and has_other = ref false
  and nnulls = ref 0 in
  Array.iter
    (function
      | Value.Null -> incr nnulls
      | Value.Bool _ -> has_bool := true
      | Value.Int _ -> has_int := true
      | Value.Float _ -> has_float := true
      | Value.String _ -> has_string := true
      | Value.Date _ -> has_date := true
      | Value.Interval _ -> has_other := true)
    vals;
  let nulls =
    if !nnulls = 0 then None
    else begin
      let m = Bitset.create n in
      Array.iteri (fun i v -> if Value.is_null v then Bitset.set m i) vals;
      Some m
    end
  in
  let classes =
    (if !has_bool then 1 else 0)
    + (if !has_string then 1 else 0)
    + (if !has_date then 1 else 0)
    + if !has_int || !has_float then 1 else 0
  in
  let ints f = exact (int_codes ~n ~desc (Array.map f vals)) nulls nulls_first in
  if !has_other || classes > 1 then None
  else if classes = 0 then
    (* all NULL: a constant key *)
    Some (exact (Array.make n 0) nulls nulls_first)
  else if !has_bool then Some (ints (function Value.Bool true -> 1 | _ -> 0))
  else if !has_string then begin
    let get i = match vals.(i) with Value.String s -> s | _ -> "" in
    let codes = Column.string_ranks n get (is_null nulls) in
    Some (exact (int_codes ~n ~desc codes) nulls nulls_first)
  end
  else if !has_date then Some (ints (function Value.Date d -> d | _ -> 0))
  else if not !has_float then Some (ints (function Value.Int v -> v | _ -> 0))
  else begin
    let int_lossy = ref false in
    let fv = Array.create_float n in
    Array.iteri
      (fun i -> function
        | Value.Int v ->
            if v > max_exact_float_int || v < -max_exact_float_int then int_lossy := true;
            fv.(i) <- float_of_int v
        | Value.Float f -> fv.(i) <- f
        | _ -> ())
      vals;
    let raws = float_raws ~n fv nulls nulls_first desc in
    if !int_lossy then
      (* keep only the high word, demoted to a coarsening *)
      match raws with r :: _ -> Some [ { r with exact = false } ] | [] -> None
    else Some raws
  end

(* Every column holding order codes takes one arm, whatever its type:
   the shared memo is read in place for ASC over the whole table, else
   gathered or DESC-flipped into a fresh array. *)
let coded_raw ~n ~nulls ?rows ~desc nulls_first memo =
  let codes = int_codes ~n ?rows ~desc memo in
  { codes; nulls; nulls_first; exact = true; owned = codes != memo }

let raws_of_key ~n ?rows table (key : Sort_spec.key) =
  let desc = key.direction = Sort_spec.Desc in
  let nulls_first = not (Sort_spec.nulls_last_flag key) in
  match key.expr with
  | Expr.Col name -> begin
      match Table.column_opt table name with
      | Some c -> begin
          let nulls = gather_mask rows (Column.null_mask c) in
          match (Column.order_codes c, Column.buffer c) with
          | Some memo, _ -> Some [ coded_raw ~n ~nulls ?rows ~desc nulls_first memo ]
          | None, (Column.Ints a | Column.Dates a) ->
              let codes = int_codes ~n ?rows ~desc a in
              Some (exact ~owned:(codes != a) codes nulls nulls_first)
          | None, Column.Bools a ->
              let bit row = Bool.to_int a.(row) in
              let codes = match rows with None -> Array.init n bit | Some r -> Array.map bit r in
              Some (exact (int_codes ~n ~desc codes) nulls nulls_first)
          | None, Column.Floats a -> Some (float_raws ~n ?rows a nulls nulls_first desc)
          | None, Column.Strings _ -> assert false (* densified on first use *)
        end
      | None ->
          (* unknown column: fail exactly like the comparator path *)
          raise Not_found
    end
  | expr ->
      let f = Expr.compile table expr in
      let vals = match rows with None -> Array.init n f | Some r -> Array.map f r in
      raws_of_values n vals nulls_first desc

(* ------------------------------------------------------------------ *)
(* Greedy word packing                                                 *)
(* ------------------------------------------------------------------ *)

(* The span of a raw when its codes can be range-normalised into a
   bounded slot, [None] when the key needs a word of its own. *)
let span_of ~n r =
  let codes = r.codes and nulls = r.nulls in
  let mn = ref max_int and mx = ref min_int and seen = ref false in
  for i = 0 to n - 1 do
    if not (is_null nulls i) then begin
      seen := true;
      let c = Array.unsafe_get codes i in
      if c < !mn then mn := c;
      if c > !mx then mx := c
    end
  done;
  if not !seen then Some (1, 0)
  else
    let d = !mx - !mn in
    (* d wraps negative whenever the true span exceeds the int range *)
    if d < 0 || d > max_int - 2 then None
    else Some ((d + 1 + if has_nulls r then 1 else 0), !mn)

(* [w.(i) * scale + slot i], slots in [0, span) with NULLs in the first or
   last one; scale 0 starts a fresh word (which may be [r.codes] itself:
   slot [i] reads [codes.(i)] before [w.(i)] is set) *)
let fill_slots ~n r ~span ~base w scale =
  let codes = r.codes and nulls = r.nulls in
  let shift = if has_nulls r && r.nulls_first then 1 else 0 in
  let null_slot = if r.nulls_first then 0 else span - 1 in
  let off = shift - base in
  for i = 0 to n - 1 do
    let slot = if is_null nulls i then null_slot else Array.unsafe_get codes i + off in
    Array.unsafe_set w i ((Array.unsafe_get w i * scale) + slot)
  done

let compile_over ~n ?rows ?pids sources =
  let total = List.length sources in
  let words_rev = ref [] in
  let cur = ref None in
  let cap = ref 1 in
  let in_word0 = ref true in
  let pid_div = ref (match pids with Some _ -> Some 1 | None -> None) in
  let flush () =
    match !cur with
    | Some w ->
        words_rev := w :: !words_rev;
        cur := None;
        cap := 1;
        in_word0 := false
    | None -> ()
  in
  let emit_direct w =
    flush ();
    words_rev := w :: !words_rev;
    in_word0 := false
  in
  let pack_raw r =
    let codes = r.codes in
    match span_of ~n r with
    | Some (span, base) ->
        if span > 1 then begin
          match !cur with
          | Some w when !cap <= max_int / span ->
              fill_slots ~n r ~span ~base w span;
              cap := !cap * span;
              if !in_word0 then pid_div := Option.map (fun d -> d * span) !pid_div
          | _ ->
              flush ();
              let w = if r.owned then codes else Array.make n 0 in
              fill_slots ~n r ~span ~base w 0;
              cur := Some w;
              cap := span
        end
    | None ->
        (* Full-range codes take a word of their own: NULLs map to the
           extreme sentinels, and a (rare) sentinel collision with a real
           code demotes the key to a coarsening. *)
        let nulls = r.nulls in
        if has_nulls r then begin
          let sentinel = if r.nulls_first then min_int else max_int in
          let w = if r.owned then codes else Array.make n 0 in
          let collided = ref false in
          for i = 0 to n - 1 do
            if is_null nulls i then Array.unsafe_set w i sentinel
            else begin
              let c = Array.unsafe_get codes i in
              if c = sentinel then collided := true;
              Array.unsafe_set w i c
            end
          done;
          emit_direct w;
          if !collided then raise Exit
        end
        else
          (* an aliased column buffer may run past [n]; a word may not *)
          emit_direct (if Array.length codes = n then codes else Array.sub codes 0 n)
  in
  (* The partition ids are a virtual leading key without NULLs. Word 0 is
     forced to exist even for a single partition (span 1) so that
     [pid_divisor] always describes it: [word0 / pid_divisor] is a
     monotone image of the partition id. *)
  (match pids with
  | Some p ->
      if Array.length p <> n then invalid_arg "Key_codec.compile_sources: pids length";
      let mn = ref max_int and mx = ref min_int in
      Array.iter
        (fun v ->
          if v < !mn then mn := v;
          if v > !mx then mx := v)
        p;
      let d = if n = 0 then 0 else !mx - !mn in
      if d < 0 || d > max_int - 2 then emit_direct p
      else begin
        let base = if n = 0 then 0 else !mn in
        cur := Some (Array.map (fun v -> v - base) p);
        cap := d + 1
      end
  | None -> ());
  let covered = ref 0 in
  let stopped = ref false in
  List.iter
    (fun src ->
      if not !stopped then begin
        match raws_of_key ~n ?rows src.table src.key with
        | None -> stopped := true
        | Some raws -> begin
            try
              List.iter
                (fun r ->
                  if not !stopped then begin
                    pack_raw r;
                    if not r.exact then stopped := true
                  end)
                raws;
              if not !stopped then incr covered
            with Exit -> stopped := true
          end
      end)
    sources;
  flush ();
  let words = Array.of_list (List.rev !words_rev) in
  let residual =
    if !covered >= total then None
    else begin
      let rest = List.filteri (fun i _ -> i >= !covered) sources in
      let cmp s =
        let f = Sort_spec.key_comparator s.table s.key in
        match rows with None -> f | Some r -> fun i j -> f r.(i) r.(j)
      in
      let cmps = List.map cmp rest in
      Some
        (fun i j ->
          let rec go = function
            | [] -> 0
            | f :: fs ->
                let c = f i j in
                if c <> 0 then c else go fs
          in
          go cmps)
    end
  in
  { n; words; residual; pid_divisor = !pid_div; covered = !covered; total }

let compile_sources ~n ?pids sources = compile_over ~n ?pids sources

let compile ?pids ?rows table spec =
  let n = match rows with None -> Table.nrows table | Some r -> Array.length r in
  compile_over ~n ?rows ?pids (List.map (fun key -> { table; key }) spec)

(* ------------------------------------------------------------------ *)
(* Order codes: read as one small word, left behind by whole sorts     *)
(* ------------------------------------------------------------------ *)

(* The column a one-key order sorts by, when the key is a plain column. *)
let key_column table = function
  | [ ({ Sort_spec.expr = Expr.Col name; _ } as key) ] ->
      Option.map (fun c -> (c, key)) (Table.column_opt table name)
  | _ -> None

(* The word [compile] packs for a one-key order over a coded column: the
   codes through [rows], DESC-flipped, with NULLs in a slot of their own
   at the placed end — when its span is at most the row count. *)
let code_slots ?rows table spec =
  match key_column table spec with
  | None -> None
  | Some (c, key) ->
      Option.bind (Column.order_codes c) (fun memo ->
          let n = match rows with None -> Column.length c | Some r -> Array.length r in
          let nulls = gather_mask rows (Column.null_mask c) in
          let desc = key.Sort_spec.direction = Sort_spec.Desc in
          let r = coded_raw ~n ~nulls ?rows ~desc (not (Sort_spec.nulls_last_flag key)) memo in
          match span_of ~n r with
          | Some (span, base) when span <= n ->
              let w = if r.owned then r.codes else Array.make n 0 in
              fill_slots ~n r ~span ~base w 0;
              Some (w, span)
          | _ -> None)

let offer_codes table spec ranks =
  match key_column table spec with
  | Some (c, key) when Column.order_codes c = None ->
      Column.adopt_ranks c ~desc:(key.Sort_spec.direction = Sort_spec.Desc) (ranks ())
  | _ -> ()
