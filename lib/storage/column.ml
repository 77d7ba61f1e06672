module Bitset = Holistic_util.Bitset

type data =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of bool array
  | Dates of int array

(* A column is a view of its first [len] rows over a buffer that may hold
   more: [data] and the bytes of [nulls] are the buffer, and the rest is
   room. Every view over one buffer shares [claimed], the buffer's
   high-water mark: the rows some view has written. The view whose [len]
   equals the mark owns the room and claims a delta's rows with one
   compare-and-set ({!append}); a shorter, older view never reads past
   its [len], so later rows never reach it. [codes] memoizes
   {!order_codes}: filled at most once, by the first caller to publish,
   and read-only afterwards. *)
type t = {
  data : data;
  nulls : Bitset.t option;
  len : int;
  claimed : int Atomic.t;
  codes : int array option Atomic.t;
}

let data_length = function
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Strings a -> Array.length a
  | Bools a -> Array.length a
  | Dates a -> Array.length a

(* A buffer of [d]'s type and [cap] rows; the unused ones read as a
   constant. *)
let alloc_like d cap =
  match d with
  | Ints _ -> Ints (Array.make cap 0)
  | Dates _ -> Dates (Array.make cap 0)
  | Floats _ -> Floats (Array.create_float cap)
  | Strings _ -> Strings (Array.make cap "")
  | Bools _ -> Bools (Array.make cap false)

let blit src pos dst at n =
  match (src, dst) with
  | Ints s, Ints d | Dates s, Dates d -> Array.blit s pos d at n
  | Floats s, Floats d -> Array.blit s pos d at n
  | Strings s, Strings d -> Array.blit s pos d at n
  | Bools s, Bools d -> Array.blit s pos d at n
  | _ -> invalid_arg "Column.blit: type mismatch"

let same_type a b =
  match (a, b) with
  | Ints _, Ints _ | Floats _, Floats _ | Strings _, Strings _ | Bools _, Bools _ | Dates _, Dates _ -> true
  | _ -> false

(* The capacity of a buffer that expects appends: about half again for a
   copy that {!append} makes, so appends cost amortised O(delta); an
   eighth for a gather ({!take}), enough for the appends between two
   evictions of a sliding window without charging every eviction the
   larger room. *)
let appended_room n = n + (n lsr 1) + 8
let gathered_room n = n + (n lsr 3) + 8

let make ?nulls data =
  let len = data_length data in
  (match nulls with
  | Some mask when Bitset.length mask <> len -> invalid_arg "Column.make: null mask length mismatch"
  | _ -> ());
  { data; nulls; len; claimed = Atomic.make len; codes = Atomic.make None }

let length t = t.len
let buffer t = t.data

let data t =
  if data_length t.data = t.len then t.data
  else begin
    let d = alloc_like t.data t.len in
    blit t.data 0 d 0 t.len;
    d
  end

let has_room t =
  data_length t.data > t.len
  || match t.nulls with Some m -> Bitset.capacity m > t.len + 7 | None -> false

let trim t =
  if not (has_room t) then t
  else
    {
      data = data t;
      nulls = Option.map Bitset.copy t.nulls;
      len = t.len;
      claimed = Atomic.make t.len;
      codes = t.codes;
    }

let null_mask t = t.nulls
let is_null t i = match t.nulls with None -> false | Some m -> Bitset.get m i

(* The buffer's bounds are not the view's: rows past [len] are room, or
   a longer view's. *)
let check t i = if i < 0 || i >= t.len then invalid_arg "index out of bounds"

let get t i =
  check t i;
  if is_null t i then Value.Null
  else
    match t.data with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Strings a -> Value.String a.(i)
    | Bools a -> Value.Bool a.(i)
    | Dates a -> Value.Date a.(i)

let ints a = make (Ints a)
let floats a = make (Floats a)
let strings a = make (Strings a)
let dates a = make (Dates a)

let mixed () = invalid_arg "Column.of_values: mixed types"

(* Raised by the Ints conversion at the first Float: the column is
   numeric after all, and the conversion restarts as Floats. *)
exception Promote

let of_values values =
  let n = Array.length values in
  let nulls = Bitset.create n in
  let has_null = ref false in
  Array.iteri
    (fun i v ->
      if Value.is_null v then begin
        Bitset.set nulls i;
        has_null := true
      end)
    values;
  let first_non_null = Array.find_opt (fun v -> not (Value.is_null v)) values in
  let floats () =
    Floats
      (Array.map
         (function
           | Value.Float x -> x
           | Value.Int x -> float_of_int x
           | Value.Null -> 0.0
           | _ -> mixed ())
         values)
  in
  let data =
    match first_non_null with
    | None | Some Value.Null | Some (Value.Int _) -> (
        try
          Ints
            (Array.map
               (function
                 | Value.Int x -> x
                 | Value.Null -> 0
                 | Value.Float _ -> raise_notrace Promote
                 | _ -> mixed ())
               values)
        with Promote -> floats ())
    | Some (Value.Float _) -> floats ()
    | Some (Value.String _) ->
        Strings (Array.map (function Value.String s -> s | Value.Null -> "" | _ -> mixed ()) values)
    | Some (Value.Bool _) ->
        Bools (Array.map (function Value.Bool b -> b | Value.Null -> false | _ -> mixed ()) values)
    | Some (Value.Date _) ->
        Dates (Array.map (function Value.Date d -> d | Value.Null -> 0 | _ -> mixed ()) values)
    | Some (Value.Interval _) -> invalid_arg "Column.of_values: interval columns unsupported"
  in
  make ?nulls:(if !has_null then Some nulls else None) data

let float_at t i =
  check t i;
  if is_null t i then nan
  else
    match t.data with
    | Floats a -> a.(i)
    | Ints a -> float_of_int a.(i)
    | Dates a -> float_of_int a.(i)
    | Strings _ | Bools _ -> invalid_arg "Column.float_at: non-numeric column"

let check_rows len rows =
  for j = 0 to Array.length rows - 1 do
    let i = Array.unsafe_get rows j in
    if i < 0 || i >= len then invalid_arg "index out of bounds"
  done

(* One loop per type, so no float is boxed; the caller has checked
   [rows] against the view's length. *)
let gather ~room t rows =
  let k = Array.length rows in
  let cap = if room then gathered_room k else k in
  let gather_ints cap a =
    let r = Array.make cap 0 in
    for j = 0 to k - 1 do
      Array.unsafe_set r j (Array.unsafe_get a (Array.unsafe_get rows j))
    done;
    r
  in
  let data =
    match t.data with
    | Ints a -> Ints (gather_ints cap a)
    | Dates a -> Dates (gather_ints cap a)
    | Floats a ->
        let r = Array.create_float cap in
        for j = 0 to k - 1 do
          Array.unsafe_set r j (Array.unsafe_get a (Array.unsafe_get rows j))
        done;
        Floats r
    | Strings a ->
        let r = Array.make cap "" in
        for j = 0 to k - 1 do
          Array.unsafe_set r j (Array.unsafe_get a (Array.unsafe_get rows j))
        done;
        Strings r
    | Bools a ->
        let r = Array.make cap false in
        for j = 0 to k - 1 do
          Array.unsafe_set r j (Array.unsafe_get a (Array.unsafe_get rows j))
        done;
        Bools r
  in
  let nulls = Option.map (fun m -> Bitset.gather ~capacity:cap m rows) t.nulls in
  (* gathered codes keep the column's order and stay one-to-one on the
     distinct values; they are just no longer dense *)
  let codes = Option.map (gather_ints k) (Atomic.get t.codes) in
  { data; nulls; len = k; claimed = Atomic.make k; codes = Atomic.make codes }

let take ?(room = false) t rows =
  check_rows t.len rows;
  gather ~room t rows

(* The rows are checked once, against the shortest column. *)
let take_all ?(room = false) cols rows =
  check_rows (List.fold_left (fun len c -> min len c.len) max_int cols) rows;
  List.map (fun c -> gather ~room c rows) cols

(* Concatenation for the session append path. Same-typed payloads go into
   [a]'s room when [a] owns it, else into a fresh buffer with room; an
   Ints/Floats mix (or a typeless all-NULL prefix) follows [of_values]'s
   numeric-promotion rules via the boxed fallback. *)
let append a b =
  let n1 = a.len and n2 = b.len in
  let n = n1 + n2 in
  let mask len = function Some m -> m | None -> Bitset.create len in
  let fits =
    n <= data_length a.data && match a.nulls with Some m -> n <= Bitset.capacity m | None -> true
  in
  if not (same_type a.data b.data) then
    of_values (Array.init n (fun i -> if i < n1 then get a i else get b (i - n1)))
  else if fits && Atomic.compare_and_set a.claimed n1 n then begin
    (* the rows past [n1] are ours now: nobody has written them *)
    blit b.data 0 a.data n1 n2;
    let nulls =
      match (a.nulls, b.nulls) with
      | None, None -> None
      | Some m, mb -> Some (Bitset.extend m (mask n2 mb))
      | None, Some mb -> Some (Bitset.append ~capacity:(data_length a.data) (Bitset.create n1) mb)
    in
    { data = a.data; nulls; len = n; claimed = a.claimed; codes = Atomic.make None }
  end
  else begin
    let cap = appended_room n in
    let data = alloc_like a.data cap in
    blit a.data 0 data 0 n1;
    blit b.data 0 data n1 n2;
    let nulls =
      match (a.nulls, b.nulls) with
      | None, None -> None
      | ma, mb -> Some (Bitset.append ~capacity:cap (mask n1 ma) (mask n2 mb))
    in
    { data; nulls; len = n; claimed = Atomic.make n; codes = Atomic.make None }
  end

let dense_numbering size =
  let table = Hashtbl.create size in
  fun v ->
    match Hashtbl.find_opt table v with
    | Some id -> id
    | None ->
        let id = Hashtbl.length table in
        Hashtbl.add table v id;
        id

(* Ranks by sorting row positions: equal keys end up adjacent, so one
   pass numbers the runs. *)
let ranks cmp keys =
  let n = Array.length keys in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> cmp (Array.unsafe_get keys i) (Array.unsafe_get keys j)) order;
  let r = Array.make n 0 in
  for k = 1 to n - 1 do
    let p = order.(k - 1) and i = order.(k) in
    r.(i) <- (if cmp keys.(p) keys.(i) = 0 then r.(p) else r.(p) + 1)
  done;
  r

(* Densified rank of the distinct string set: dense codes both pack
   tighter and make the merge's OVC ties cheap. Byte order matches
   [Value.compare_sql] on strings ([Stdlib.compare]).

   Rows get first-seen dense ids from an open-addressing table kept in
   flat arrays (slot -> id, id -> string and full hash), so a row costs one
   hash and no allocation; only the distinct set is then sorted — a merge
   sort, which compares far fewer long shared prefixes than a heap sort —
   and an id -> rank remap finishes the codes. *)
let string_ranks n get is_null =
  let slots = ref (Array.make 64 (-1)) in
  let strs = ref (Array.make 32 "") and hashes = ref (Array.make 32 0) in
  let d = ref 0 in
  let rec probe slots mask h s j =
    let k = Array.unsafe_get slots j in
    if k < 0 || (Array.unsafe_get !hashes k = h && String.equal (Array.unsafe_get !strs k) s) then j
    else probe slots mask h s ((j + 1) land mask)
  in
  (* doubling keeps the load at most one half; stored hashes re-place ids
     without rehashing the strings *)
  let grow () =
    let cap = 2 * Array.length !slots in
    let mask = cap - 1 in
    let fresh = Array.make cap (-1) in
    for id = 0 to !d - 1 do
      let j = ref (!hashes.(id) land mask) in
      while fresh.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      fresh.(!j) <- id
    done;
    slots := fresh;
    strs := Array.append !strs (Array.make (Array.length !strs) "");
    hashes := Array.append !hashes (Array.make (Array.length !hashes) 0)
  in
  let codes = Array.make n 0 in
  for i = 0 to n - 1 do
    if not (is_null i) then begin
      let s = get i in
      let h = Hashtbl.hash s in
      let sl = !slots in
      let mask = Array.length sl - 1 in
      let j = probe sl mask h s (h land mask) in
      let k = Array.unsafe_get sl j in
      if k >= 0 then codes.(i) <- k
      else begin
        let id = !d in
        sl.(j) <- id;
        !strs.(id) <- s;
        !hashes.(id) <- h;
        incr d;
        codes.(i) <- id;
        if 2 * !d >= Array.length sl then grow ()
      end
    end
  done;
  let d = !d and strs = !strs in
  let order = Array.init d Fun.id in
  Array.stable_sort
    (fun a b -> String.compare (Array.unsafe_get strs a) (Array.unsafe_get strs b))
    order;
  let rank = Array.make d 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  for i = 0 to n - 1 do
    if not (is_null i) then codes.(i) <- Array.unsafe_get rank (Array.unsafe_get codes i)
  done;
  codes

(* Publishes [fresh] unless another caller already did; every caller
   returns the published array. *)
let publish t fresh =
  if Atomic.compare_and_set t.codes None (Some fresh) then fresh
  else match Atomic.get t.codes with Some codes -> codes | None -> assert false

(* Strings densify on first use, outside any lock: two domains may both
   densify, but only the first [compare_and_set] publishes. Every other
   type only holds the codes a finished sort left behind ({!adopt_ranks}). *)
let order_codes t =
  match (Atomic.get t.codes, t.data) with
  | (Some _ as codes), _ -> codes
  | None, Strings a -> Some (publish t (string_ranks t.len (fun i -> a.(i)) (is_null t)))
  | None, (Ints _ | Floats _ | Bools _ | Dates _) -> None

let distinct_ids t =
  let n = t.len in
  let with_nulls id = Array.init n (fun i -> if is_null t i then min_int else id i) in
  match t.data, t.nulls with
  | (Ints a | Dates a), None -> Array.sub a 0 n
  | (Ints a | Dates a), Some _ ->
      let holds_min_int = ref false in
      for i = 0 to n - 1 do
        if a.(i) = min_int && not (is_null t i) then holds_min_int := true
      done;
      if not !holds_min_int then with_nulls (fun i -> a.(i))
      else
        (* NULL's [min_int] would merge with the value: rank the rows,
           NULL lowest *)
        ranks
          (fun i j ->
            match (is_null t i, is_null t j) with
            | true, true -> 0
            | true, false -> -1
            | false, true -> 1
            | false, false -> Int.compare a.(i) a.(j))
          (Array.init n Fun.id)
  | Bools a, _ -> with_nulls (fun i -> Bool.to_int a.(i))
  | Floats a, _ ->
      let r = ranks Float.compare (if Array.length a = n then a else Array.sub a 0 n) in
      with_nulls (fun i -> r.(i))
  | Strings _, _ ->
      let codes = Option.get (order_codes t) in
      with_nulls (fun i -> codes.(i))

(* NULL rows sit at one end of a key order, so the non-NULL ranks form one
   interval [lo, hi]: shifting it to 0 (ASC) or mirroring it (DESC) gives
   the ascending dense codes in place. *)
let adopt_ranks t ~desc ranks =
  if Array.length ranks <> length t then invalid_arg "Column.adopt_ranks: length mismatch";
  if Atomic.get t.codes = None then begin
    let lo = ref max_int and hi = ref min_int in
    Array.iteri
      (fun i r ->
        if not (is_null t i) then begin
          if r < !lo then lo := r;
          if r > !hi then hi := r
        end)
      ranks;
    let lo = !lo and hi = !hi in
    Array.iteri
      (fun i r -> Array.unsafe_set ranks i (if is_null t i then 0 else if desc then hi - r else r - lo))
      ranks;
    ignore (publish t ranks)
  end

(* The bookkeeping — the memo cell (its field and its Atomic block), the
   length field and the high-water mark (its field and its Atomic block),
   7 words — is left out, so a column without codes weighs what its data
   and mask do; published codes count. A view with room weighs what a
   copy of exactly its rows would: the room is the next append's. *)
let bookkeeping_bytes = 56

let footprint_bytes c = (8 * Obj.reachable_words (Obj.repr (trim c))) - bookkeeping_bytes
