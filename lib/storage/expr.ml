module Bitset = Holistic_util.Bitset

type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Neg of t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t
  | Case of (t * t) list * t option
  | Abs of t
  | Greatest of t list
  | Least of t list

let sql_abs = function
  | Value.Null -> Value.Null
  | Value.Int x -> Value.Int (abs x)
  | Value.Float x -> Value.Float (Float.abs x)
  | _ -> invalid_arg "Expr: abs on non-numeric operand"

(* GREATEST/LEAST ignore NULLs per SQL (NULL only when all are NULL) *)
let sql_extreme keep vs =
  List.fold_left
    (fun acc v ->
      if Value.is_null v then acc
      else if Value.is_null acc then v
      else if keep (Value.compare_sql ~nulls_last:true v acc) then v
      else acc)
    Value.Null vs

let sql_mod a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int _, Value.Int 0 -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (x mod y)
  | Value.Float x, Value.Float y -> Value.Float (Float.rem x y)
  | Value.Int x, Value.Float y -> Value.Float (Float.rem (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (Float.rem x (float_of_int y))
  | _ -> invalid_arg "Expr: mod on non-numeric operands"

(* SQL comparison: NULL operands yield NULL. *)
let cmp3 op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else Value.Bool (op (Value.compare_sql ~nulls_last:true a b) 0)

(* three-valued AND/OR *)
let sql_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | _ -> Value.Null

let sql_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | _ -> Value.Null

let sql_not = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | _ -> invalid_arg "Expr: NOT on non-boolean"

let rec compile table e =
  match e with
  | Col name ->
      let c = Table.column table name in
      fun i -> Column.get c i
  | Const v -> fun _ -> v
  | Add (a, b) -> bin table Value.add a b
  | Sub (a, b) -> bin table Value.sub a b
  | Mul (a, b) -> bin table Value.mul a b
  | Div (a, b) -> bin table Value.div a b
  | Mod (a, b) -> bin table sql_mod a b
  | Neg a ->
      let fa = compile table a in
      fun i -> Value.neg (fa i)
  | Eq (a, b) -> bin table (cmp3 ( = )) a b
  | Ne (a, b) -> bin table (cmp3 ( <> )) a b
  | Lt (a, b) -> bin table (cmp3 ( < )) a b
  | Le (a, b) -> bin table (cmp3 ( <= )) a b
  | Gt (a, b) -> bin table (cmp3 ( > )) a b
  | Ge (a, b) -> bin table (cmp3 ( >= )) a b
  | And (a, b) -> bin table sql_and a b
  | Or (a, b) -> bin table sql_or a b
  | Not a ->
      let fa = compile table a in
      fun i -> sql_not (fa i)
  | Is_null a ->
      let fa = compile table a in
      fun i -> Value.Bool (Value.is_null (fa i))
  | Is_not_null a ->
      let fa = compile table a in
      fun i -> Value.Bool (not (Value.is_null (fa i)))
  | Case (branches, else_) ->
      let compiled =
        List.map (fun (c, v) -> (compile table c, compile table v)) branches
      in
      let felse = Option.map (compile table) else_ in
      fun i ->
        let rec go = function
          | [] -> (match felse with Some f -> f i | None -> Value.Null)
          | (fc, fv) :: rest -> if to_bool_v (fc i) then fv i else go rest
        in
        go compiled
  | Abs a ->
      let fa = compile table a in
      fun i -> sql_abs (fa i)
  | Greatest args ->
      let fs = List.map (compile table) args in
      fun i -> sql_extreme (fun c -> c > 0) (List.map (fun f -> f i) fs)
  | Least args ->
      let fs = List.map (compile table) args in
      fun i -> sql_extreme (fun c -> c < 0) (List.map (fun f -> f i) fs)

and to_bool_v = function
  | Value.Bool b -> b
  | Value.Null -> false
  | _ -> invalid_arg "Expr: CASE condition is not boolean"

and bin table op a b =
  let fa = compile table a and fb = compile table b in
  fun i -> op (fa i) (fb i)

let eval table e i = compile table e i

let to_bool = function
  | Value.Bool b -> b
  | Value.Null -> false
  | _ -> invalid_arg "Expr.to_bool: non-boolean value"

(* ------------------------------------------------------------------ *)
(* Column-at-a-time predicates                                         *)
(* ------------------------------------------------------------------ *)

(* A predicate's TRUE rows and its FALSE rows; the rest are NULL. [Not]
   swaps the two and [And]/[Or] combine them as three-valued logic does,
   so only the leaves read rows. *)
type masks = { tt : Bitset.t; ff : Bitset.t }

let rec has_col = function
  | Col _ -> true
  | Const _ -> false
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b)
  | And (a, b) | Or (a, b) ->
      has_col a || has_col b
  | Neg a | Not a | Is_null a | Is_not_null a | Abs a -> has_col a
  | Case (branches, else_) ->
      List.exists (fun (c, v) -> has_col c || has_col v) branches
      || Option.fold ~none:false ~some:has_col else_
  | Greatest args | Least args -> List.exists has_col args

(* The signs of [compare column constant] that make a comparison TRUE:
   bit [c + 1] for sign [c]. A constant on the left mirrors them. *)
let sign_bits = function
  | Lt _ -> 0b001
  | Le _ -> 0b011
  | Eq _ -> 0b010
  | Ne _ -> 0b101
  | Ge _ -> 0b110
  | Gt _ -> 0b100
  | _ -> 0

let mirror bits = (bits land 0b010) lor ((bits land 1) lsl 2) lor (bits lsr 2)

(* A comparison of a column with a constant is one typed loop over the
   column's buffer, comparing as [Value.compare_non_null] does (Stdlib
   float order, an Int against a Float through [float_of_int]); its NULL
   rows are neither TRUE nor FALSE. A NULL test of a column reads its
   mask, a Bools column is its own truth. Every other leaf — arithmetic,
   CASE, a comparison of two columns or of mixed types — is compiled
   and evaluated row by row, where a non-boolean value is NULL to
   [And]/[Or] and an error to [Not] and to the whole predicate. Any
   such error (and an unknown column) sends the predicate to the
   row-at-a-time loop, which raises what it raises at its first failing
   row. *)
let select table ?rows e =
  let n = match rows with None -> Table.nrows table | Some r -> Array.length r in
  let row = match rows with None -> Fun.id | Some r -> Array.get r in
  let row_at_a_time () =
    let f = compile table e in
    Bitset.init n (fun i -> to_bool (f (row i)))
  in
  let scan f =
    match rows with
    | None -> Bitset.init n f
    | Some r -> Bitset.init n (fun i -> f (Array.unsafe_get r i))
  in
  let nulls c =
    match (Column.null_mask c, rows) with
    | None, _ -> None
    | Some m, None -> Some m
    | Some m, Some r -> Some (Bitset.gather m r)
  in
  (* [raw] holds the outcome on every row, NULL rows included *)
  let of_raw c raw =
    match nulls c with
    | None -> { tt = raw; ff = Bitset.complement raw }
    | Some m ->
        let known = Bitset.complement m in
        { tt = Bitset.inter raw known; ff = Bitset.inter (Bitset.complement raw) known }
  in
  let typed c bits k =
    let hit cmp = Some (of_raw c (scan (fun r -> (bits lsr (cmp r + 1)) land 1 <> 0))) in
    match (Column.buffer c, k) with
    | _, Value.Null -> Some { tt = Bitset.create n; ff = Bitset.create n }
    | Column.Ints a, Value.Int k | Column.Dates a, Value.Date k ->
        hit (fun r -> Int.compare (Array.unsafe_get a r) k)
    | Column.Ints a, Value.Float k -> hit (fun r -> Float.compare (float_of_int (Array.unsafe_get a r)) k)
    | Column.Floats a, Value.Float k -> hit (fun r -> Float.compare (Array.unsafe_get a r) k)
    | Column.Floats a, Value.Int k ->
        let k = float_of_int k in
        hit (fun r -> Float.compare (Array.unsafe_get a r) k)
    | Column.Strings a, Value.String k -> hit (fun r -> String.compare (Array.unsafe_get a r) k)
    | Column.Bools a, Value.Bool k -> hit (fun r -> Bool.compare (Array.unsafe_get a r) k)
    | _ -> None
  in
  let boxed ~strict e =
    let f = compile table e in
    let tt = Bitset.create n and ff = Bitset.create n in
    for i = 0 to n - 1 do
      match f (row i) with
      | Value.Bool true -> Bitset.set tt i
      | Value.Bool false -> Bitset.set ff i
      | Value.Null -> ()
      | _ -> if strict then raise_notrace Exit
    done;
    { tt; ff }
  in
  let rec go ~strict e =
    match e with
    | Not a ->
        let m = go ~strict:true a in
        { tt = m.ff; ff = m.tt }
    | And (a, b) ->
        let a = go ~strict:false a and b = go ~strict:false b in
        { tt = Bitset.inter a.tt b.tt; ff = Bitset.union a.ff b.ff }
    | Or (a, b) ->
        let a = go ~strict:false a and b = go ~strict:false b in
        { tt = Bitset.union a.tt b.tt; ff = Bitset.inter a.ff b.ff }
    | Is_null (Col name) | Is_not_null (Col name) ->
        let m =
          match nulls (Table.column table name) with
          | Some m -> Bitset.copy m
          | None -> Bitset.create n
        in
        let m = { tt = m; ff = Bitset.complement m } in
        (match e with Is_null _ -> m | _ -> { tt = m.ff; ff = m.tt })
    | Col name -> (
        let c = Table.column table name in
        match Column.buffer c with
        | Column.Bools a -> of_raw c (scan (fun r -> Array.unsafe_get a r))
        | _ -> boxed ~strict e)
    | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b) -> (
        let typed =
          match (a, b) with
          | Col name, k when not (has_col k) ->
              typed (Table.column table name) (sign_bits e) (compile table k 0)
          | k, Col name when not (has_col k) ->
              typed (Table.column table name) (mirror (sign_bits e)) (compile table k 0)
          | _ -> None
        in
        match typed with Some m -> m | None -> boxed ~strict e)
    | e -> boxed ~strict e
  in
  let in_bounds r = r >= 0 && r < Table.nrows table in
  if n = 0 || not (Option.fold ~none:true ~some:(Array.for_all in_bounds) rows) then row_at_a_time ()
  else
    match go ~strict:true e with
    | m -> m.tt
    | exception (Invalid_argument _ | Not_found | Exit) -> row_at_a_time ()

let rec to_string = function
  | Col c -> c
  | Const v -> Value.to_string v
  | Add (a, b) -> infix a "+" b
  | Sub (a, b) -> infix a "-" b
  | Mul (a, b) -> infix a "*" b
  | Div (a, b) -> infix a "/" b
  | Mod (a, b) -> Printf.sprintf "mod(%s, %s)" (to_string a) (to_string b)
  | Neg a -> Printf.sprintf "(-%s)" (to_string a)
  | Eq (a, b) -> infix a "=" b
  | Ne (a, b) -> infix a "<>" b
  | Lt (a, b) -> infix a "<" b
  | Le (a, b) -> infix a "<=" b
  | Gt (a, b) -> infix a ">" b
  | Ge (a, b) -> infix a ">=" b
  | And (a, b) -> infix a "and" b
  | Or (a, b) -> infix a "or" b
  | Not a -> Printf.sprintf "(not %s)" (to_string a)
  | Is_null a -> Printf.sprintf "(%s is null)" (to_string a)
  | Is_not_null a -> Printf.sprintf "(%s is not null)" (to_string a)
  | Case (branches, else_) ->
      Printf.sprintf "(case %s%s end)"
        (String.concat " "
           (List.map
              (fun (c, v) -> Printf.sprintf "when %s then %s" (to_string c) (to_string v))
              branches))
        (match else_ with Some e -> " else " ^ to_string e | None -> "")
  | Abs a -> Printf.sprintf "abs(%s)" (to_string a)
  | Greatest args -> Printf.sprintf "greatest(%s)" (String.concat ", " (List.map to_string args))
  | Least args -> Printf.sprintf "least(%s)" (String.concat ", " (List.map to_string args))

and infix a op b = Printf.sprintf "(%s %s %s)" (to_string a) op (to_string b)
