let lower_bound (a : int array) ~lo ~hi x =
  let lo = ref lo and len = ref (hi - lo) in
  while !len > 0 do
    let half = !len / 2 in
    let mid = !lo + half in
    if Array.unsafe_get a mid < x then begin
      lo := mid + 1;
      len := !len - half - 1
    end else len := half
  done;
  !lo

let upper_bound (a : int array) ~lo ~hi x =
  let lo = ref lo and len = ref (hi - lo) in
  while !len > 0 do
    let half = !len / 2 in
    let mid = !lo + half in
    if Array.unsafe_get a mid <= x then begin
      lo := mid + 1;
      len := !len - half - 1
    end else len := half
  done;
  !lo

let lower_bound_by cmp ~lo ~hi =
  let lo = ref lo and len = ref (hi - lo) in
  while !len > 0 do
    let half = !len / 2 in
    let mid = !lo + half in
    if cmp mid < 0 then begin
      lo := mid + 1;
      len := !len - half - 1
    end else len := half
  done;
  !lo
