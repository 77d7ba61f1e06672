module Bitset = Holistic_util.Bitset

type data =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of bool array
  | Dates of int array

(* [codes] memoizes {!order_codes}: filled at most once, by the first
   caller to publish, and read-only afterwards. *)
type t = { data : data; nulls : Bitset.t option; codes : int array option Atomic.t }

let data_length = function
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Strings a -> Array.length a
  | Bools a -> Array.length a
  | Dates a -> Array.length a

let make ?nulls data =
  (match nulls with
  | Some mask when Bitset.length mask <> data_length data ->
      invalid_arg "Column.make: null mask length mismatch"
  | _ -> ());
  { data; nulls; codes = Atomic.make None }

let length t = data_length t.data
let data t = t.data
let null_mask t = t.nulls
let is_null t i = match t.nulls with None -> false | Some m -> Bitset.get m i

let get t i =
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
  if is_null t i then nan
  else
    match t.data with
    | Floats a -> a.(i)
    | Ints a -> float_of_int a.(i)
    | Dates a -> float_of_int a.(i)
    | Strings _ | Bools _ -> invalid_arg "Column.float_at: non-numeric column"

let take t rows =
  let gather : 'a. 'a array -> 'a array = fun a -> Array.map (fun i -> a.(i)) rows in
  let data =
    match t.data with
    | Ints a -> Ints (gather a)
    | Floats a -> Floats (gather a)
    | Strings a -> Strings (gather a)
    | Bools a -> Bools (gather a)
    | Dates a -> Dates (gather a)
  in
  let nulls =
    Option.map
      (fun m ->
        let m' = Bitset.create (Array.length rows) in
        Array.iteri (fun j i -> if Bitset.get m i then Bitset.set m' j) rows;
        m')
      t.nulls
  in
  (* gathered codes keep the column's order and stay one-to-one on the
     distinct values; they are just no longer dense *)
  { data; nulls; codes = Atomic.make (Option.map gather (Atomic.get t.codes)) }

(* Concatenation for the session append path: same-typed payloads are
   blitted; an Ints/Floats mix (or a typeless all-NULL prefix) follows
   [of_values]'s numeric-promotion rules via the boxed fallback. *)
let append a b =
  let n1 = length a and n2 = length b in
  let nulls =
    match a.nulls, b.nulls with
    | None, None -> None
    | ma, mb ->
        let mask n = function Some m -> m | None -> Bitset.create n in
        Some (Bitset.append (mask n1 ma) (mask n2 mb))
  in
  match a.data, b.data with
  | Ints x, Ints y -> make ?nulls (Ints (Array.append x y))
  | Floats x, Floats y -> make ?nulls (Floats (Array.append x y))
  | Strings x, Strings y -> make ?nulls (Strings (Array.append x y))
  | Bools x, Bools y -> make ?nulls (Bools (Array.append x y))
  | Dates x, Dates y -> make ?nulls (Dates (Array.append x y))
  | _ -> of_values (Array.init (n1 + n2) (fun i -> if i < n1 then get a i else get b (i - n1)))

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
  | None, Strings a -> Some (publish t (string_ranks (Array.length a) (fun i -> a.(i)) (is_null t)))
  | None, (Ints _ | Floats _ | Bools _ | Dates _) -> None

let distinct_ids t =
  let n = length t in
  let with_nulls ids = Array.init n (fun i -> if is_null t i then min_int else ids.(i)) in
  match t.data, t.nulls with
  | (Ints a | Dates a), None -> Array.copy a
  | (Ints a | Dates a), Some _ -> with_nulls a
  | Bools a, _ -> with_nulls (Array.map Bool.to_int a)
  | Floats a, _ -> with_nulls (ranks Float.compare a)
  | Strings _, _ -> with_nulls (Option.get (order_codes t))

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

(* The memo cell — the record field and its Atomic block, 3 words — is
   left out, so a column without codes weighs what it did before the memo
   existed; published codes count. *)
let memo_cell_bytes = 24

let footprint_bytes c = (8 * Obj.reachable_words (Obj.repr c)) - memo_cell_bytes
