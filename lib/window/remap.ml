type t = { prefix : int array; positions : int array; identity : bool }

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
  { prefix; positions; identity = !count = np }

let all np =
  {
    prefix = Array.init (np + 1) (fun i -> i);
    positions = Array.init np (fun i -> i);
    identity = true;
  }

let footprint_bytes t =
  8 * (3 + 1 + Array.length t.prefix + 1 + Array.length t.positions)

let filtered_count t = Array.length t.positions
let qualifies t r = t.prefix.(r + 1) > t.prefix.(r)
let position t i = t.positions.(i)
let rank t r = t.prefix.(r)

let map_range t (lo, hi) = if t.identity then (lo, hi) else (t.prefix.(lo), t.prefix.(hi))

let map_ranges t ranges =
  if t.identity then ranges
  else begin
    let mapped = Array.map (map_range t) ranges in
    if Array.for_all (fun (lo, hi) -> lo < hi) mapped then mapped
    else Array.of_list (List.filter (fun (lo, hi) -> lo < hi) (Array.to_list mapped))
  end
