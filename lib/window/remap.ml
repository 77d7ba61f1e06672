(* The identity holds no arrays: every unfiltered item asks for one on
   every evaluation, and it is never cached. *)
type t =
  | All of int
  | Subset of { prefix : int array; positions : int array; identity : bool }

let create ~np ~qualifies =
  let prefix = Array.make (np + 1) 0 in
  let count = ref 0 in
  for r = 0 to np - 1 do
    prefix.(r) <- !count;
    if qualifies r then incr count
  done;
  prefix.(np) <- !count;
  let positions = Array.make !count 0 in
  let j = ref 0 in
  for r = 0 to np - 1 do
    if prefix.(r + 1) > prefix.(r) then begin
      positions.(!j) <- r;
      incr j
    end
  done;
  Subset { prefix; positions; identity = !count = np }

let all np = All np

let footprint_bytes = function
  | All _ -> 0
  | Subset { prefix; positions; _ } -> 8 * (3 + 1 + Array.length prefix + 1 + Array.length positions)

let filtered_count = function All np -> np | Subset s -> Array.length s.positions
let qualifies t r = match t with All _ -> true | Subset s -> s.prefix.(r + 1) > s.prefix.(r)
let position t i = match t with All _ -> i | Subset s -> s.positions.(i)
let rank t r = match t with All _ -> r | Subset s -> s.prefix.(r)

let map_range t ((lo, hi) as range) =
  match t with
  | All _ | Subset { identity = true; _ } -> range
  | Subset s -> (s.prefix.(lo), s.prefix.(hi))

let map_ranges t ranges =
  match t with
  | All _ | Subset { identity = true; _ } -> ranges
  | Subset _ ->
      let mapped = Array.map (map_range t) ranges in
      if Array.for_all (fun (lo, hi) -> lo < hi) mapped then mapped
      else Array.of_list (List.filter (fun (lo, hi) -> lo < hi) (Array.to_list mapped))
