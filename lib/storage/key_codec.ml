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
   for run sorting and OVC merging while the residual decides ties. *)
type raw = {
  codes : int array;
  nulls : Bitset.t option; (* None = no NULL rows *)
  nulls_first : bool;
  exact : bool;
}

let has_nulls r = match r.nulls with Some _ -> true | None -> false

let null_test = function
  | Some m -> fun i -> Bitset.get m i
  | None -> fun _ -> false

let normalize_mask = function Some m when Bitset.count m > 0 -> Some m | _ -> None

(* Sign-magnitude bit flip: a 64-bit int code whose signed order equals the
   float order under [Stdlib.compare] (nan below everything, nan = nan,
   -0. = +0.). Positive floats keep their bits; negative floats get
   [lognot bits lxor min_int] (reverses their bit order and parks them below
   all positives); nan takes a code below the -infinity image. *)

(* A float key costs one word when every scode is even (the arithmetic
   shift into OCaml's 63-bit int stays injective), two words otherwise:
   the high 63 bits, then the dropped low bit — both exact, and the low
   bit has span 2 so it packs with whatever follows. *)
let float_raws n get is_null nulls nulls_first desc =
  let hi = Array.make n 0 and lo = Array.make n 0 in
  let all_even = ref true in
  for i = 0 to n - 1 do
    if not (is_null i) then begin
      (* inlined [float_scode >> 1] and its low bit, in native-int arithmetic:
         the arithmetic shift commutes with the sign transform componentwise,
         so only the raw bit image touches boxed Int64 *)
      let f = get i in
      let h, bit =
        if Float.is_nan f then (Int64.to_int (Int64.shift_right (Int64.add Int64.min_int 2L) 1), 0)
        else begin
          let b = Int64.bits_of_float (if f = 0.0 then 0.0 else f) in
          let hib = Int64.to_int (Int64.shift_right b 1) in
          let lob = Int64.to_int b land 1 in
          if hib >= 0 then (hib, lob) else (lnot hib lxor min_int, lob lxor 1)
        end
      in
      hi.(i) <- (if desc then lnot h else h);
      lo.(i) <- (if desc then 1 - bit else bit);
      if bit <> 0 then all_even := false
    end
  done;
  let hi_raw = { codes = hi; nulls; nulls_first; exact = true } in
  if !all_even then [ hi_raw ]
  else [ hi_raw; { codes = lo; nulls; nulls_first; exact = true } ]

let max_exact_float_int = 9007199254740992 (* 2^53: float_of_int is injective below *)

let int_raw codes nulls nulls_first desc =
  [ { codes = (if desc then Array.map lnot codes else codes); nulls; nulls_first; exact = true } ]

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
  let is_null = null_test nulls in
  let classes =
    (if !has_bool then 1 else 0)
    + (if !has_string then 1 else 0)
    + (if !has_date then 1 else 0)
    + if !has_int || !has_float then 1 else 0
  in
  if !has_other || classes > 1 then None
  else if classes = 0 then
    (* all NULL: a constant key *)
    Some [ { codes = Array.make n 0; nulls; nulls_first; exact = true } ]
  else if !has_bool then
    let codes =
      Array.map (function Value.Bool true -> 1 | _ -> 0) vals
    in
    Some (int_raw codes nulls nulls_first desc)
  else if !has_string then begin
    let get i = match vals.(i) with Value.String s -> s | _ -> "" in
    let codes = Column.string_ranks n get is_null in
    if desc then
      for i = 0 to n - 1 do
        codes.(i) <- lnot codes.(i)
      done;
    Some [ { codes; nulls; nulls_first; exact = true } ]
  end
  else if !has_date then
    let codes = Array.map (function Value.Date d -> d | _ -> 0) vals in
    Some (int_raw codes nulls nulls_first desc)
  else if not !has_float then
    let codes = Array.map (function Value.Int v -> v | _ -> 0) vals in
    Some (int_raw codes nulls nulls_first desc)
  else begin
    let int_lossy = ref false in
    let get i =
      match vals.(i) with
      | Value.Int v ->
          if v > max_exact_float_int || v < -max_exact_float_int then int_lossy := true;
          float_of_int v
      | Value.Float f -> f
      | _ -> 0.
    in
    let raws = float_raws n get is_null nulls nulls_first desc in
    if !int_lossy then
      (* keep only the high word, demoted to a coarsening *)
      match raws with r :: _ -> Some [ { r with exact = false } ] | [] -> None
    else Some raws
  end

let raws_of_key n table (key : Sort_spec.key) =
  let desc = key.direction = Sort_spec.Desc in
  let nulls_first = not (Sort_spec.nulls_last_flag key) in
  match key.expr with
  | Expr.Col name -> begin
      match Table.column_opt table name with
      | Some c -> begin
          let nulls = normalize_mask (Column.null_mask c) in
          let is_null = null_test nulls in
          match Column.data c with
          | Column.Ints a | Column.Dates a ->
              (* ASC without NULL flips aliases the column array: words are
                 read-only downstream *)
              Some (int_raw a nulls nulls_first desc)
          | Column.Bools a ->
              let codes = Array.map (fun b -> if b then 1 else 0) a in
              Some (int_raw codes nulls nulls_first desc)
          | Column.Floats a ->
              Some (float_raws n (fun i -> a.(i)) is_null nulls nulls_first desc)
          | Column.Strings _ ->
              (* the column's shared memo: DESC flips into a fresh array *)
              let codes = Column.order_codes c in
              let codes = if desc then Array.map lnot codes else codes in
              Some [ { codes; nulls; nulls_first; exact = true } ]
        end
      | None ->
          (* unknown column: fail exactly like the comparator path *)
          raise Not_found
    end
  | expr ->
      let f = Expr.compile table expr in
      raws_of_values n (Array.init n f) nulls_first desc

(* ------------------------------------------------------------------ *)
(* Greedy word packing                                                 *)
(* ------------------------------------------------------------------ *)

let compile_sources ~n ?pids sources =
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
  (* Returns the span of a raw when its codes can be range-normalised into
     a bounded slot, [None] when the key needs a word of its own. *)
  let span_of r =
    let is_null = null_test r.nulls in
    let mn = ref max_int and mx = ref min_int and seen = ref false in
    for i = 0 to n - 1 do
      if not (is_null i) then begin
        seen := true;
        let c = r.codes.(i) in
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
  in
  let pack_raw r =
    let is_null = null_test r.nulls in
    match span_of r with
    | Some (span, base) ->
        if span > 1 then begin
          let shift = if has_nulls r && r.nulls_first then 1 else 0 in
          let null_slot = if r.nulls_first then 0 else span - 1 in
          let slot i = if is_null i then null_slot else r.codes.(i) - base + shift in
          match !cur with
          | Some w when !cap <= max_int / span ->
              for i = 0 to n - 1 do
                w.(i) <- (w.(i) * span) + slot i
              done;
              cap := !cap * span;
              if !in_word0 then pid_div := Option.map (fun d -> d * span) !pid_div
          | _ ->
              flush ();
              cur := Some (Array.init n slot);
              cap := span
        end
    | None ->
        (* Full-range codes take a word of their own: NULLs map to the
           extreme sentinels, and a (rare) sentinel collision with a real
           code demotes the key to a coarsening. *)
        if has_nulls r then begin
          let sentinel = if r.nulls_first then min_int else max_int in
          let w = Array.make n 0 in
          let collided = ref false in
          for i = 0 to n - 1 do
            if is_null i then w.(i) <- sentinel
            else begin
              let c = r.codes.(i) in
              if c = sentinel then collided := true;
              w.(i) <- c
            end
          done;
          emit_direct w;
          if !collided then raise Exit
        end
        else emit_direct r.codes
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
        match raws_of_key n src.table src.key with
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
      let cmps = List.map (fun s -> Sort_spec.key_comparator s.table s.key) rest in
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

let compile ?pids table spec =
  compile_sources ~n:(Table.nrows table) ?pids (List.map (fun key -> { table; key }) spec)

let comparator t =
  let words = t.words and residual = t.residual in
  let nw = Array.length words in
  fun i j ->
    let rec go w =
      if w = nw then
        match residual with
        | Some r ->
            let c = r i j in
            if c <> 0 then c else Int.compare i j
        | None -> Int.compare i j
      else
        let ww = words.(w) in
        let c = Int.compare ww.(i) ww.(j) in
        if c <> 0 then c else go (w + 1)
    in
    go 0
