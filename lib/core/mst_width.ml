(* Automatic storage-width selection for merge sort trees (§5.1).

   The window operator rank-encodes every MST operand into a dense integer
   domain bounded by the partition size, so the narrowest fitting
   instantiation is known before the build: 16-bit for partitions under
   2^16 rows, 32-bit under 2^31, 64-bit otherwise. This module owns the
   narrow instantiations of {!Mst_template} — one line per width, like
   DuckDB's [MergeSortTree32] alias of its single template — and is the
   dispatch the operator builds and probes through; [Force] is the
   benchmarking knob (it widens as needed, so a forced narrow width on
   oversized data still yields correct results instead of raising
   mid-query). *)

module M16 = Mst_template.Make (Mst_storage.Int16u)
module M32 = Mst_template.Make (Mst_storage.Int32s)

type width = W16 | W32 | W64
type choice = Auto | Force of width
type t = T16 of M16.t | T32 of M32.t | T64 of Mst.t
type scratch = Mst.scratch

let create_scratch = Mst.create_scratch

let bits = function W16 -> 16 | W32 -> 32 | W64 -> 64

let rank = function W16 -> 0 | W32 -> 1 | W64 -> 2

let fits ~n ~min_value ~max_value = function
  | W16 -> min_value >= 0 && max_value <= 0xFFFF && n <= 0xFFFF
  | W32 ->
      min_value >= Int32.to_int Int32.min_int
      && max_value <= Int32.to_int Int32.max_int
      && n <= Int32.to_int Int32.max_int
  | W64 -> true

let width_for ~n ~min_value ~max_value =
  if fits ~n ~min_value ~max_value W16 then W16
  else if fits ~n ~min_value ~max_value W32 then W32
  else W64

(* The width [choice] selects for an operand: the narrowest fit, or the
   forced width widened just enough to fit. *)
let width_of_operand choice a =
  let mn = ref 0 and mx = ref 0 in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    if v < !mn then mn := v;
    if v > !mx then mx := v
  done;
  let fit = width_for ~n:(Array.length a) ~min_value:!mn ~max_value:!mx in
  match choice with Auto -> fit | Force w -> if rank w >= rank fit then w else fit

let create ~pool ?fanout ?sample ?(choice = Auto) a =
  match width_of_operand choice a with
  | W16 -> T16 (M16.create ~pool ?fanout ?sample a)
  | W32 -> T32 (M32.create ~pool ?fanout ?sample a)
  | W64 -> T64 (Mst.create ~pool ?fanout ?sample a)

let width = function T16 _ -> W16 | T32 _ -> W32 | T64 _ -> W64

(* Incremental append: maintain [t] for the grown operand [a] when the
   width [create] would pick is unchanged (otherwise the old narrow levels
   cannot represent the new operand — rebuild at the new width) and the
   tree was built with the same fanout/sample the caller would use. *)
let try_extend ?(fanout = 32) ?(sample = 32) ?(choice = Auto) t a =
  let same_knobs =
    match t with
    | T16 t -> M16.fanout t = fanout && M16.sample t = sample
    | T32 t -> M32.fanout t = fanout && M32.sample t = sample
    | T64 t -> Mst.fanout t = fanout && Mst.sample t = sample
  in
  if (not same_knobs) || width_of_operand choice a <> width t then None
  else
    match t with
    | T16 t -> Option.map (fun t -> T16 t) (M16.append t a)
    | T32 t -> Option.map (fun t -> T32 t) (M32.append t a)
    | T64 t -> Option.map (fun t -> T64 t) (Mst.append t a)

let length = function
  | T16 t -> M16.length t
  | T32 t -> M32.length t
  | T64 t -> Mst.length t

let count t ~lo ~hi ~less_than =
  match t with
  | T16 t -> M16.count t ~lo ~hi ~less_than
  | T32 t -> M32.count t ~lo ~hi ~less_than
  | T64 t -> Mst.count t ~lo ~hi ~less_than

let count_ranges t ~ranges ~less_than =
  match t with
  | T16 t -> M16.count_ranges t ~ranges ~less_than
  | T32 t -> M32.count_ranges t ~ranges ~less_than
  | T64 t -> Mst.count_ranges t ~ranges ~less_than

let count_value_ranges t ~ranges =
  match t with
  | T16 t -> M16.count_value_ranges t ~ranges
  | T32 t -> M32.count_value_ranges t ~ranges
  | T64 t -> Mst.count_value_ranges t ~ranges

let select t ~scratch ~ranges ~nth =
  match t with
  | T16 t -> M16.select t ~scratch ~ranges ~nth
  | T32 t -> M32.select t ~scratch ~ranges ~nth
  | T64 t -> Mst.select t ~scratch ~ranges ~nth

let neighbour t ~scratch ~ranges ~from ~k ~forward =
  match t with
  | T16 t -> M16.neighbour t ~scratch ~ranges ~from ~k ~forward
  | T32 t -> M32.neighbour t ~scratch ~ranges ~from ~k ~forward
  | T64 t -> Mst.neighbour t ~scratch ~ranges ~from ~k ~forward

let footprint_bytes = function
  | T16 t -> M16.footprint_bytes t
  | T32 t -> M32.footprint_bytes t
  | T64 t -> Mst.footprint_bytes t
