type direction = Asc | Desc
type nulls_order = Nulls_default | Nulls_first | Nulls_last
type key = { expr : Expr.t; direction : direction; nulls : nulls_order }
type t = key list

let asc ?(nulls = Nulls_default) expr = { expr; direction = Asc; nulls }
let desc ?(nulls = Nulls_default) expr = { expr; direction = Desc; nulls }

let nulls_last_flag key =
  match key.nulls, key.direction with
  | Nulls_last, _ -> true
  | Nulls_first, _ -> false
  | Nulls_default, Asc -> true
  | Nulls_default, Desc -> false

let key_to_string key =
  Expr.to_string key.expr
  ^ (match key.direction with Asc -> "" | Desc -> " desc")
  ^ match key.nulls with
    | Nulls_default -> ""
    | Nulls_first -> " nulls first"
    | Nulls_last -> " nulls last"

let to_string spec = String.concat ", " (List.map key_to_string spec)

let key_comparator table key =
  let f = Expr.compile table key.expr in
  let nulls_last = nulls_last_flag key in
  let sign = match key.direction with Asc -> 1 | Desc -> -1 in
  fun i j ->
    let a = f i and b = f j in
    (* NULL placement is absolute (not flipped by DESC once resolved):
       compare non-nulls under the direction, place NULLs per flag. *)
    match Value.is_null a, Value.is_null b with
    | true, true -> 0
    | true, false -> if nulls_last then 1 else -1
    | false, true -> if nulls_last then -1 else 1
    | false, false -> sign * Value.compare_sql ~nulls_last:true a b

let comparator table spec =
  let compiled = List.map (key_comparator table) spec in
  fun i j ->
    let rec go = function
      | [] -> 0
      | f :: rest ->
          let c = f i j in
          if c <> 0 then c else go rest
    in
    go compiled

let rec is_prefix (o1 : t) (o2 : t) =
  match o1, o2 with
  | [], _ -> true
  | _, [] -> false
  | k1 :: r1, k2 :: r2 -> k1 = k2 && is_prefix r1 r2
