(* Output checks.  A statement's result is reduced to a fingerprint over the
   bits of every column (names, types, NULL masks, values), so the timed
   loop compares one integer per statement against a fingerprint computed
   outside the timed region by an independent execution path. *)

open Holistic_storage
open Holistic_window
module Bitset = Holistic_util.Bitset
module Task_pool = Holistic_parallel.Task_pool

let mix h x = (h lxor x) * 0x100000001b3

(* NULL and NaN get their own tags, so a NULL never collides with the
   stored placeholder and every NaN payload reads as one value; all other
   floats hash by their full 64 bits, signed zeros included. *)
let fingerprint table =
  List.fold_left
    (fun h (name, c) ->
      let h = mix h (Hashtbl.hash name) in
      let n = Column.length c in
      let null i = match Column.null_mask c with Some m -> Bitset.get m i | None -> false in
      let h = ref (mix h n) in
      let add i tag v = h := mix (mix !h (if null i then 1 else tag)) (if null i then 0 else v) in
      (match Column.data c with
      | Column.Ints a -> Array.iteri (fun i v -> add i 2 v) a
      | Column.Dates a -> Array.iteri (fun i v -> add i 3 v) a
      | Column.Bools a -> Array.iteri (fun i v -> add i 4 (Bool.to_int v)) a
      | Column.Strings a -> Array.iteri (fun i v -> add i 5 (Hashtbl.hash v)) a
      | Column.Floats a ->
          Array.iteri
            (fun i v ->
              if Float.is_nan v then add i 6 0
              else
                let b = Int64.bits_of_float v in
                add i 7
                  (mix
                     (Int64.to_int (Int64.shift_right_logical b 32))
                     (Int64.to_int (Int64.logand b 0xffff_ffffL))))
            a);
      !h)
    0 (Table.columns table)

(* The statement's input after its WHERE clause. *)
let filtered table (stmt : Gen.stmt) =
  match stmt.Gen.where with
  | None -> table
  | Some pred ->
      let f = Expr.compile table pred in
      let keep = ref [] in
      for i = Table.nrows table - 1 downto 0 do
        if Expr.to_bool (f i) then keep := i :: !keep
      done;
      Table.gather table (Array.of_list !keep)

(* Projection and final ORDER BY of a table that already carries the
   statement's window columns: the stable comparator sort that the key
   codec reproduces exactly (ties keep input order). *)
let finish with_windows (stmt : Gen.stmt) =
  let t =
    Table.create
      (List.map (fun c -> (c, Table.column with_windows c)) (stmt.Gen.base_cols @ stmt.Gen.items))
  in
  match stmt.Gen.order_by with
  | None -> t
  | Some (c, desc) ->
      let key = if desc then Sort_spec.desc (Expr.Col c) else Sort_spec.asc (Expr.Col c) in
      let cmp = Sort_spec.comparator t [ key ] in
      let idx = Array.init (Table.nrows t) (fun i -> i) in
      Array.stable_sort cmp idx;
      Table.gather t idx

(* The expected result: the same clauses through [Window_plan.run] on a
   one-domain pool, plus the statement's WHERE, projection and ORDER BY. *)
let expected ~pool1 ?governor table stmt =
  finish (Window_plan.run ~pool:pool1 ?governor (filtered table stmt) stmt.Gen.clauses) stmt

let value_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | _ -> Value.equal a b

(* Differential check against the naive oracle on a seeded [rows]-row
   slice: [run] executes the statement on the slice, [Reference.run]
   evaluates its clauses by linear scans.  Floats compare with the fuzz
   suite's tolerance, since the oracle sums in another order. *)
let reference_check ~seed ~rows ~run table stmt =
  let n = Table.nrows table in
  let rng = Holistic_util.Rng.create (seed * 31 + 17) in
  let pick = Array.init n (fun i -> i) in
  Gen.shuffle rng pick;
  let keep = Array.sub pick 0 (min rows n) in
  Array.sort compare keep;
  let slice = Table.gather table keep in
  let got = run slice in
  let input = filtered slice stmt in
  let cols = Reference.run input stmt.Gen.clauses in
  let want =
    finish
      (List.fold_left (fun t (nm, vals) -> Table.add_column t nm (Column.of_values vals)) input cols)
      stmt
  in
  Table.nrows got = Table.nrows want
  && List.for_all
       (fun (nm, wc) ->
         let gc = Table.column got nm in
         let ok = ref true in
         for i = 0 to Table.nrows want - 1 do
           if not (value_eq (Column.get wc i) (Column.get gc i)) then ok := false
         done;
         !ok)
       (Table.columns want)
