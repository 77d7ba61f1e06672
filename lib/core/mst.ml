(* The 64-bit instantiation of the merge sort tree template (§5.1): plain
   [int array] storage, the fully general width. Build and query logic live
   in {!Mst_template}; this module adds the payload/levels accessors that
   {!Annotated_mst} and {!Range_tree} build on, plus the §5.1 closed-form
   element count. *)

module T = Mst_template.Make (Mst_storage.Int63)

type t = T.t
type scratch = Mst_template.scratch

let create_scratch = Mst_template.create_scratch

let create = T.create
let append = T.append
let length = T.length
let fanout = T.fanout
let sample = T.sample
let levels = T.levels

let payload_levels t =
  match T.payloads t with
  | Some p -> p
  | None -> invalid_arg "Mst.payload_levels: tree was built without ~track_payload"

let count = T.count
let count_ranges = T.count_ranges
let iter_covered = T.iter_covered
let count_value_ranges = T.count_value_ranges
let select = T.select
let neighbour = T.neighbour

type stats = T.stats = {
  level_elements : int;
  cursor_elements : int;
  payload_elements : int;
  heap_bytes : int;
}

let stats = T.stats
let footprint_bytes = T.footprint_bytes

let element_count_formula ~n ~fanout ~sample =
  if n <= 1 then n
  else begin
    let h = ref 0 and s = ref 1 in
    while !s < n do
      s := !s * fanout;
      incr h
    done;
    (* ⌈log_f n⌉·n sorted elements plus (⌈log_f n⌉−1)·n·f/k cursor entries;
       the paper counts the base level separately, we fold it in: levels
       0..h hold (h+1)·n elements of which h·n are sorted copies. *)
    ((!h + 1) * n) + if sample = 0 then 0 else !h * n * fanout / max 1 sample
  end
