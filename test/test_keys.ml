(* Parity suite for the sort-key compiler and the OVC sort path:
   [Key_codec.compile] + [Parallel_sort.sort_encoded] must reproduce the
   exact permutation of the stable comparator sort
   ([Introsort.sort_indices_by ~cmp:(Sort_spec.comparator …)], partition ids
   prepended) for every spec — NULLs, nan/-0./infinities, DESC, strings,
   multi-key, expression keys, sentinel-colliding extremes. *)

open Holistic_storage
module Bitset = Holistic_util.Bitset
module Rng = Holistic_util.Rng
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Parallel_sort = Holistic_sort.Parallel_sort
module Obs = Holistic_obs.Obs
module Window_plan = Holistic_window.Window_plan
module Window_spec = Holistic_window.Window_spec
module Evaluators = Holistic_window.Evaluators
module Build_cache = Holistic_window.Build_cache
module Frame = Holistic_window.Frame
module Rank_encode = Holistic_core.Rank_encode

(* ------------------------------------------------------------------ *)
(* Random tables and specs                                             *)
(* ------------------------------------------------------------------ *)

let special_floats =
  [| Float.nan; neg_infinity; infinity; -0.; 0.; 1.5; -1.5; 1e300; -1e300; 0.1 |]

let extreme_ints = [| min_int; max_int; min_int + 1; max_int - 1; 0 |]
let string_pool = [| ""; "a"; "ab"; "abc"; "b"; "ba"; "zz"; "z" |]

let null_mask rng n density =
  if density = 0 then None
  else begin
    let b = Bitset.create n in
    for i = 0 to n - 1 do
      if Rng.int rng density = 0 then Bitset.set b i
    done;
    Some b
  end

let mk_table rng n =
  let col ?nulls data = Column.make ?nulls data in
  Table.create
    [
      (* small-range ints: exercises greedy word packing *)
      ( "i",
        col
          ?nulls:(null_mask rng n 4)
          (Column.Ints (Array.init n (fun _ -> Rng.int_in rng (-4) 4))) );
      (* full-range ints incl. min_int/max_int: unpackable words, NULL
         sentinel collisions, coarsening *)
      ( "j",
        col
          ?nulls:(null_mask rng n 5)
          (Column.Ints
             (Array.init n (fun _ ->
                  if Rng.int rng 3 = 0 then extreme_ints.(Rng.int rng (Array.length extreme_ints))
                  else Rng.int_in rng (-1_000_000) 1_000_000))) );
      (* floats incl. nan/-0./infinities: sign-magnitude scode, hi+lo words *)
      ( "f",
        col
          ?nulls:(null_mask rng n 4)
          (Column.Floats
             (Array.init n (fun _ ->
                  if Rng.int rng 3 = 0 then special_floats.(Rng.int rng (Array.length special_floats))
                  else Rng.float rng 100. -. 50.))) );
      (* strings: densified-rank words *)
      ( "s",
        col
          ?nulls:(null_mask rng n 5)
          (Column.Strings (Array.init n (fun _ -> string_pool.(Rng.int rng (Array.length string_pool)))))
      );
      ("b", col ?nulls:(null_mask rng n 6) (Column.Bools (Array.init n (fun _ -> Rng.bool rng))));
      ("d", col (Column.Dates (Array.init n (fun _ -> Rng.int rng 50))));
    ]

let key_exprs =
  [|
    Expr.Col "i";
    Expr.Col "j";
    Expr.Col "f";
    Expr.Col "s";
    Expr.Col "b";
    Expr.Col "d";
    (* expression keys: compiled through [Expr.compile], not the column
       fast paths *)
    Expr.Add (Expr.Col "i", Expr.Const (Value.Int 2));
    Expr.Mul (Expr.Col "i", Expr.Col "i");
    (* int + float widening: the float-image encoding *)
    Expr.Add (Expr.Col "i", Expr.Col "f");
    (* mixed Int/String values: inexpressible, must fall to the residual *)
    Expr.Case
      ( [ (Expr.Ge (Expr.Col "i", Expr.Const (Value.Int 0)), Expr.Col "i") ],
        Some (Expr.Col "s") );
  |]

let random_key rng =
  let e = key_exprs.(Rng.int rng (Array.length key_exprs)) in
  let nulls =
    match Rng.int rng 3 with
    | 0 -> Sort_spec.Nulls_default
    | 1 -> Sort_spec.Nulls_first
    | _ -> Sort_spec.Nulls_last
  in
  if Rng.bool rng then Sort_spec.asc ~nulls e else Sort_spec.desc ~nulls e

let random_spec rng = List.init (1 + Rng.int rng 3) (fun _ -> random_key rng)

(* ------------------------------------------------------------------ *)
(* The reference order: stable comparator sort                         *)
(* ------------------------------------------------------------------ *)

let expected_perm ?pids table spec =
  let cmp_spec = Sort_spec.comparator table spec in
  let cmp =
    match pids with
    | None -> cmp_spec
    | Some p ->
        fun i j ->
          let c = Int.compare p.(i) p.(j) in
          if c <> 0 then c else cmp_spec i j
  in
  Introsort.sort_indices_by (Table.nrows table) ~cmp

(* A compile over a partition's rows sorts exactly like a compile over the
   gathered sub-table (partition ids gathered alike). *)
let check_rows_parity pool ~task_size ?pids table spec rows label =
  let m = Array.length rows in
  let pids = Option.map (fun p -> Array.map (fun r -> p.(r)) rows) pids in
  let sorted kc =
    fst
      (Parallel_sort.sort_encoded pool ~task_size ~n:m ~words:kc.Key_codec.words
         ?tie:kc.Key_codec.residual ())
  in
  Alcotest.(check (array int))
    (label ^ ": compile ~rows = compile over the gathered table")
    (sorted (Key_codec.compile ?pids (Table.gather table rows) spec))
    (sorted (Key_codec.compile ?pids ~rows table spec))

(* [rows] defaults to every other row, last first. *)
let check_parity pool ~task_size ?pids ?rows table spec label =
  let n = Table.nrows table in
  let kc = Key_codec.compile ?pids table spec in
  let perm, key0 =
    Parallel_sort.sort_encoded pool ~task_size ~n ~words:kc.Key_codec.words
      ?tie:kc.Key_codec.residual ()
  in
  let expect = expected_perm ?pids table spec in
  Alcotest.(check (array int)) (label ^ ": encoded sort = stable comparator sort") expect perm;
  if Array.length kc.Key_codec.words > 0 then
    for k = 0 to n - 1 do
      if key0.(k) <> kc.Key_codec.words.(0).(perm.(k)) then
        Alcotest.failf "%s: sorted key0 mismatch at %d" label k
    done;
  let rows = match rows with Some r -> r | None -> Array.init (n / 2) (fun i -> n - 1 - (2 * i)) in
  check_rows_parity pool ~task_size ?pids table spec rows label

(* A random subset of [0, n) in random order: a partition's rows. *)
let random_rows rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 (Rng.int rng (n + 1))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_randomized () =
  let rng = Rng.create 0xC0DEC in
  let pool = Task_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      for iter = 0 to 119 do
        let n = 1 + Rng.int rng 400 in
        let table = mk_table rng n in
        let spec = random_spec rng in
        let pids =
          if Rng.bool rng then Some (Array.init n (fun _ -> Rng.int rng 6)) else None
        in
        (* tiny task size: forces many runs, multisequence selection and
           the OVC loser-tree merge even on small tables *)
        let task_size = 16 + Rng.int rng 64 in
        let rows = random_rows rng n in
        check_parity pool ~task_size ?pids ~rows table spec (Printf.sprintf "iter %d" iter)
      done)

let test_single_key_dimensions () =
  let rng = Rng.create 42 in
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 777 in
      let table = mk_table rng n in
      List.iter
        (fun c ->
          List.iter
            (fun (dir_label, mk) ->
              List.iter
                (fun nulls ->
                  let spec = [ mk ~nulls (Expr.Col c) ] in
                  check_parity pool ~task_size:32 table spec
                    (Printf.sprintf "col %s %s" c dir_label))
                [ Sort_spec.Nulls_default; Sort_spec.Nulls_first; Sort_spec.Nulls_last ])
            [
              ("asc", fun ~nulls e -> Sort_spec.asc ~nulls e);
              ("desc", fun ~nulls e -> Sort_spec.desc ~nulls e);
            ])
        [ "i"; "j"; "f"; "s"; "b"; "d" ])

let test_stability () =
  (* heavy duplication: every row of a 4-value key column ties massively;
     the encoded sort must keep ascending row ids within ties, exactly like
     the stable reference *)
  let pool = Task_pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 7 in
      let n = 5_000 in
      let table =
        Table.create [ ("k", Column.ints (Array.init n (fun _ -> Rng.int rng 4))) ]
      in
      let spec = [ Sort_spec.asc (Expr.Col "k") ] in
      check_parity pool ~task_size:64 table spec "dup-heavy";
      check_parity pool ~task_size:64 table [ Sort_spec.desc (Expr.Col "k") ] "dup-heavy desc")

let test_edges () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let empty = Table.create [ ("a", Column.ints [||]) ] in
      check_parity pool ~task_size:16 empty [ Sort_spec.asc (Expr.Col "a") ] "n=0";
      let one = Table.create [ ("a", Column.ints [| 9 |]) ] in
      check_parity pool ~task_size:16 one [ Sort_spec.desc (Expr.Col "a") ] "n=1";
      (* empty spec: no words, no residual — identity permutation *)
      let t = Table.create [ ("a", Column.ints [| 3; 1; 2 |]) ] in
      let kc = Key_codec.compile t [] in
      let perm, _ =
        Parallel_sort.sort_encoded pool ~n:3 ~words:kc.Key_codec.words
          ?tie:kc.Key_codec.residual ()
      in
      Alcotest.(check (array int)) "empty spec is identity" [| 0; 1; 2 |] perm)

let test_ovc_merge_stress () =
  (* multi-word keys over many runs: exercises the loser tree's offset-value
     codes; the stats witness that most comparisons were OVC-decided *)
  let rng = Rng.create 99 in
  let pool = Task_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 30_000 in
      (* full-range int keys are unpackable (span overflows), so each takes
         its own word: a duplicate-heavy leading word plus two full-range
         words guarantees the multiword OVC merge actually runs *)
      let full_range () = Rng.int_in rng (-(max_int / 2)) (max_int / 2) in
      let table =
        Table.create
          [
            ("g", Column.ints (Array.init n (fun _ -> Rng.int rng 3)));
            ("j1", Column.ints (Array.init n (fun _ -> full_range ())));
            ("j2", Column.ints (Array.init n (fun _ -> full_range ())));
          ]
      in
      let spec =
        [ Sort_spec.asc (Expr.Col "g"); Sort_spec.desc (Expr.Col "j1"); Sort_spec.asc (Expr.Col "j2") ]
      in
      let kc = Key_codec.compile table spec in
      Alcotest.(check bool) "spec spans multiple words" true
        (Array.length kc.Key_codec.words > 1);
      let (), trace =
        Obs.with_capture (fun () -> check_parity pool ~task_size:512 table spec "ovc stress")
      in
      let count name = Option.value ~default:0 (List.assoc_opt name trace.Obs.counters) in
      let decided = count "sort.ovc_decided" and scanned = count "sort.ovc_scanned" in
      Alcotest.(check bool) "ovc decided some comparisons" true (decided > 0);
      Alcotest.(check bool)
        (Printf.sprintf "ovc decided (%d) dominates deep scans (%d)" decided scanned)
        true
        (decided > scanned))

let test_window_boundaries () =
  (* boundaries derived from the sorted leading word must split the
     permutation into maximal equal-partition segments *)
  let rng = Rng.create 11 in
  let n = 2_000 in
  let table = mk_table rng n in
  let over =
    Window_spec.over ~partition_by:[ Expr.Col "d" ]
      ~order_by:[ Sort_spec.desc (Expr.Col "f"); Sort_spec.asc (Expr.Col "s") ]
      ()
  in
  let perm, boundaries = Window_plan.order_permutation ~pool:Shared_pool.pool table ~over in
  let nb = Array.length boundaries in
  Alcotest.(check int) "boundaries start" 0 boundaries.(0);
  Alcotest.(check int) "boundaries end" n boundaries.(nb - 1);
  let part = Expr.compile table (Expr.Col "d") in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace distinct (part i) ()) perm;
  Alcotest.(check int) "one segment per distinct partition value"
    (Hashtbl.length distinct) (nb - 1);
  for s = 0 to nb - 2 do
    let v = part perm.(boundaries.(s)) in
    for k = boundaries.(s) + 1 to boundaries.(s + 1) - 1 do
      if not (Value.equal v (part perm.(k))) then Alcotest.failf "segment %d not constant" s
    done;
    if s > 0 && Value.equal v (part perm.(boundaries.(s) - 1)) then
      Alcotest.failf "boundary %d splits equal partition values" s
  done;
  (* within each partition the inherited order must match the comparator *)
  let cmp = Sort_spec.comparator table [ Sort_spec.desc (Expr.Col "f"); Sort_spec.asc (Expr.Col "s") ] in
  for s = 0 to nb - 2 do
    for k = boundaries.(s) + 1 to boundaries.(s + 1) - 1 do
      let c = cmp perm.(k - 1) perm.(k) in
      if c > 0 || (c = 0 && perm.(k - 1) > perm.(k)) then
        Alcotest.failf "partition %d unsorted at offset %d" s k
    done
  done

(* ------------------------------------------------------------------ *)
(* Partition ids                                                       *)
(* ------------------------------------------------------------------ *)

(* Every column type with NULLs; floats with NaN, both zeros and a 1.0 an
   Int 1 must stay apart from in a mixed expression key.  Ints stay in a
   small range; [boundary_table] holds the ends of the int range. *)
let pid_table rng n =
  let nulls () = null_mask rng n 4 in
  let floats = [| Float.nan; -0.; 0.; 1.; -1.5; 2.; infinity |] in
  Table.create
    [
      ("i", Column.make ?nulls:(nulls ()) (Column.Ints (Array.init n (fun _ -> Rng.int_in rng (-2) 3))));
      ( "f",
        Column.make ?nulls:(nulls ())
          (Column.Floats (Array.init n (fun _ -> floats.(Rng.int rng (Array.length floats))))) );
      ( "s",
        Column.make ?nulls:(nulls ())
          (Column.Strings (Array.init n (fun _ -> string_pool.(Rng.int rng (Array.length string_pool))))) );
      ("b", Column.make ?nulls:(nulls ()) (Column.Bools (Array.init n (fun _ -> Rng.bool rng))));
      ("d", Column.make ?nulls:(nulls ()) (Column.Dates (Array.init n (fun _ -> Rng.int rng 5))));
    ]

let pid_keys =
  [
    [ Expr.Col "i" ];
    [ Expr.Col "f" ];
    [ Expr.Col "s" ];
    [ Expr.Col "b" ];
    [ Expr.Col "d" ];
    [ Expr.Col "s"; Expr.Col "f" ];
    [ Expr.Add (Expr.Col "i", Expr.Const (Value.Int 1)) ];
    (* Int and Float values in one key *)
    [ Expr.Case ([ (Expr.Ge (Expr.Col "i", Expr.Const (Value.Int 0)), Expr.Col "i") ], Some (Expr.Col "f")) ];
  ]

(* The first-appearance numbering partition ids once were, over each
   row's tuple of key values: the reference for their equality classes. *)
let first_appearance keys =
  let seen = Hashtbl.create 64 in
  Array.map
    (fun k ->
      match Hashtbl.find_opt seen k with
      | Some id -> id
      | None ->
          let id = Hashtbl.length seen in
          Hashtbl.add seen k id;
          id)
    keys

let row_keys table pb =
  let fs = List.map (Expr.compile table) pb in
  Array.init (Table.nrows table) (fun i -> List.map (fun f -> f i) fs)

let sign c = Int.compare c 0

(* Int and date keys at both ends of the int range, next to NULLs:
   [min_int] is what an int-like column's NULLs are labelled, unless the
   column holds it. *)
let boundary_table keys =
  let n = Array.length keys in
  let nulls = Bitset.create n in
  Array.iteri (fun i k -> if k = None then Bitset.set nulls i) keys;
  let v = Array.map (Option.value ~default:0) keys in
  Table.create
    [
      ("i", Column.make ~nulls (Column.Ints v));
      ("f", Column.floats (Array.map (fun x -> float_of_int (x land 3)) v));
      ("s", Column.strings (Array.map (fun x -> string_of_int (x land 3)) v));
      ("b", Column.make (Column.Bools (Array.map (fun x -> x land 1 = 0) v)));
      ("d", Column.make ~nulls (Column.Dates v));
    ]

(* Partition ids equal the old numbering's classes and order like the key
   tuples under [Stdlib.compare] (NULL lowest, NaN below every number,
   [-0. = +0.], lexicographic over the expressions); a gathered subset
   ([rows]) and an appended superset keep their relative order. *)
let check_partition_ids ~ctx ~ids_of table pb ~rows ~superset =
  let n = Table.nrows table in
  let ids = ids_of table pb and keys = row_keys table pb in
  let reference = first_appearance keys in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if (ids.(i) = ids.(j)) <> (reference.(i) = reference.(j)) then
        Alcotest.failf "%s: rows %d and %d grouped unlike the reference" ctx i j;
      if sign (Int.compare ids.(i) ids.(j)) <> sign (compare keys.(i) keys.(j)) then
        Alcotest.failf "%s: ids of rows %d and %d do not ascend with the key" ctx i j
    done
  done;
  let keeps_order ~what ids' pos =
    Array.iteri
      (fun a ra ->
        Array.iteri
          (fun b rb ->
            if sign (Int.compare ids'.(a) ids'.(b)) <> sign (Int.compare ids.(ra) ids.(rb)) then
              Alcotest.failf "%s: %s moves rows %d and %d" ctx what ra rb)
          pos)
      pos
  in
  keeps_order ~what:"a gathered subset" (ids_of (Table.gather table rows) pb) rows;
  keeps_order ~what:"an appended superset" (ids_of superset pb) (Array.init n Fun.id)

let test_partition_ids () =
  let pool = Task_pool.create 1 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  let rng = Rng.create 3030 in
  let ids_of table pb = Option.get (Holistic_window.Session.partition_ids pool table pb) in
  let expr_list pb = String.concat ", " (List.map Expr.to_string pb) in
  for round = 0 to 59 do
    let n = Rng.int rng 70 in
    let table = pid_table rng n in
    List.iter
      (fun pb ->
        let ctx = Printf.sprintf "round %d, (%s)" round (expr_list pb) in
        let rows = Array.init (Rng.int rng (n + 1)) (fun _ -> Rng.int rng n) in
        let superset = Table.append table (pid_table rng (Rng.int rng 30)) in
        check_partition_ids ~ctx ~ids_of table pb ~rows ~superset)
      pid_keys
  done;
  let table =
    boundary_table
      [| Some min_int; Some 5; None; Some max_int; Some min_int; None; Some 0; Some max_int; Some (-1) |]
  in
  let superset = Table.append table (boundary_table [| None; Some min_int; Some max_int; Some 7 |]) in
  List.iter
    (fun pb ->
      let ctx = Printf.sprintf "ends of the int range, (%s)" (expr_list pb) in
      check_partition_ids ~ctx ~ids_of table pb ~rows:[| 2; 0; 3; 5; 4 |] ~superset)
    pid_keys

(* String densification against the obvious reference: sort the distinct
   non-NULL strings, a row's code is its string's index.  Then the same
   columns through the codec under every direction and NULL placement. *)
let test_string_ranks () =
  let rng = Rng.create 23 in
  let pool = Task_pool.create 1 in
  let shuffled a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let awkward =
    [|
      ""; "\000"; "\000\000"; "a\000"; "a"; "a\000b"; "ab"; "shared_prefix";
      "shared_prefix\000"; "shared_prefiy"; "shared_prefix_a"; "shared_prefix_b"; "\255";
    |]
  in
  let cases =
    [
      ("awkward bytes", Array.init 300 (fun _ -> awkward.(Rng.int rng (Array.length awkward))));
      ("one distinct", Array.make 100 "same");
      ( "all distinct",
        shuffled (Array.init 1000 (fun i -> Printf.sprintf "2026-01-%02d %06d" (i mod 28) i)) );
    ]
  in
  List.iter
    (fun (label, strs) ->
      let n = Array.length strs in
      List.iter
        (fun density ->
          let nulls = null_mask rng n density in
          let is_null i = match nulls with Some m -> Bitset.get m i | None -> false in
          let distinct =
            List.sort_uniq String.compare
              (List.filteri (fun i _ -> not (is_null i)) (Array.to_list strs))
          in
          let rank = Hashtbl.create 64 in
          List.iteri (fun r s -> Hashtbl.replace rank s r) distinct;
          let got =
            Column.string_ranks n
              (fun i -> if is_null i then Alcotest.fail "get on a NULL row" else strs.(i))
              is_null
          in
          for i = 0 to n - 1 do
            if (not (is_null i)) && got.(i) <> Hashtbl.find rank strs.(i) then
              Alcotest.failf "%s: row %d (%S) got %d, want %d" label i strs.(i) got.(i)
                (Hashtbl.find rank strs.(i))
          done;
          let table = Table.create [ ("s", Column.make ?nulls (Column.Strings strs)) ] in
          List.iter
            (fun key ->
              check_parity pool ~task_size:64 table [ key ]
                (Printf.sprintf "%s/%s" label (Sort_spec.key_to_string key)))
            [
              Sort_spec.asc ~nulls:Sort_spec.Nulls_first (Expr.Col "s");
              Sort_spec.asc ~nulls:Sort_spec.Nulls_last (Expr.Col "s");
              Sort_spec.desc ~nulls:Sort_spec.Nulls_first (Expr.Col "s");
              Sort_spec.desc ~nulls:Sort_spec.Nulls_last (Expr.Col "s");
            ])
        [ 0; 4 ])
    cases

(* A string column's order codes are computed once and shared by every
   later compile, so a DESC compile that flipped them in place would turn
   the next ASC compile around.  Each compile of the same column, of a
   [take] of it after its codes exist, and of an [append] must match the
   stable comparator sort. *)
let test_order_code_memo () =
  let rng = Rng.create 37 in
  let pool = Task_pool.create 1 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  let random_column n =
    Column.make ?nulls:(null_mask rng n 4)
      (Column.Strings
         (Array.init n (fun _ ->
              string_pool.(Rng.int rng (Array.length string_pool)) ^ string_of_int (Rng.int rng 4))))
  in
  let compile_thrice label c =
    let table = Table.create [ ("s", c) ] in
    List.iter
      (fun nulls ->
        List.iter
          (fun direction ->
            let spec = [ { Sort_spec.expr = Expr.Col "s"; direction; nulls } ] in
            check_parity pool ~task_size:32 table spec
              (Printf.sprintf "%s/%s" label (Sort_spec.to_string spec)))
          [ Sort_spec.Asc; Sort_spec.Desc; Sort_spec.Asc ])
      [ Sort_spec.Nulls_first; Sort_spec.Nulls_last ]
  in
  for iter = 0 to 19 do
    let label = Printf.sprintf "iter %d" iter in
    let n = 1 + Rng.int rng 300 in
    let c = random_column n in
    compile_thrice label c;
    let codes = Option.get (Column.order_codes c) in
    Alcotest.(check bool) (label ^ ": one shared array") true (Option.get (Column.order_codes c) == codes);
    List.iter
      (fun rows ->
        let t = Column.take c rows in
        let sub = Printf.sprintf "%s/take %d" label (Array.length rows) in
        compile_thrice sub t;
        (* gathered from the parent, not densified afresh *)
        let gathered = Option.get (Column.order_codes t) in
        Array.iteri
          (fun j i ->
            if (not (Column.is_null t j)) && gathered.(j) <> codes.(i) then
              Alcotest.failf "%s: row %d holds code %d, parent row %d holds %d" sub j gathered.(j)
                i codes.(i))
          rows)
      [
        [||];
        Array.init (Rng.int rng n) (fun _ -> Rng.int rng n);
        Array.init n (fun i -> n - 1 - i);
      ];
    let a = Column.append c (random_column (1 + Rng.int rng 50)) in
    compile_thrice (label ^ "/append") a;
    let na = Column.length a in
    let fresh =
      Column.string_ranks na
        (fun i -> match Column.get a i with Value.String s -> s | _ -> assert false)
        (Column.is_null a)
    in
    let got = Option.get (Column.order_codes a) in
    for i = 0 to na - 1 do
      if (not (Column.is_null a i)) && got.(i) <> fresh.(i) then
        Alcotest.failf "%s/append: row %d holds code %d, dense rank is %d" label i got.(i) fresh.(i)
    done
  done

(* Order codes for every type, read three ways — a code-served
   whole-column sort ([Session.full_sort] once the first sort left the
   codes behind), [Key_codec.code_slots] + [Rank_encode.of_codes], and
   [Key_codec.compile] reading the codes — each bit-identical to the words
   of an uncoded copy of the column through [Parallel_sort.sort_encoded] /
   [Rank_encode.of_words], under every direction and NULL placement; also
   after [Column.take] (codes gathered, no longer dense: [code_slots]
   declines when they spread wider than the rows, at least once here) and
   [Column.append] (codes dropped, then rebuilt by the next whole-column
   sort). The codes themselves are the dense ranks of the values. *)
let test_order_code_paths () =
  let rng = Rng.create 53 in
  let pool = Task_pool.create 2 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  let module Session = Holistic_window.Session in
  let orders =
    List.concat_map
      (fun nulls -> [ [ Sort_spec.asc ~nulls (Expr.Col "c") ]; [ Sort_spec.desc ~nulls (Expr.Col "c") ] ])
      [ Sort_spec.Nulls_first; Sort_spec.Nulls_last ]
  in
  let random_data kind n =
    match kind with
    | `Int -> Column.Ints (Array.init n (fun _ -> Rng.int_in rng (-20) 20))
    | `Date -> Column.Dates (Array.init n (fun _ -> 19_000 + Rng.int rng 40))
    | `Float ->
        Column.Floats
          (Array.init n (fun _ ->
               if Rng.int rng 2 = 0 then special_floats.(Rng.int rng (Array.length special_floats))
               else float_of_int (Rng.int rng 16) /. 4.))
    | `String -> Column.Strings (Array.init n (fun _ -> string_pool.(Rng.int rng (Array.length string_pool))))
  in
  let random_column kind n = Column.make ?nulls:(null_mask rng n 5) (random_data kind n) in
  (* the same values and NULLs, without codes: the words path *)
  let uncoded c =
    let data =
      match Column.data c with
      | Column.Strings a -> Column.Strings (Array.copy a)
      | d -> d
    in
    Column.make ?nulls:(Column.null_mask c) data
  in
  let table c = Table.create [ ("c", c) ] in
  let words_perm c spec =
    let t = table (uncoded c) in
    let kc = Key_codec.compile t spec in
    fst
      (Parallel_sort.sort_encoded pool ~task_size:16 ~n:(Table.nrows t) ~words:kc.Key_codec.words
         ?tie:kc.Key_codec.residual ())
  in
  let check_dense label c =
    match Column.order_codes c with
    | None -> Alcotest.failf "%s: no codes" label
    | Some codes ->
        let t = table (uncoded c) in
        let perm = expected_perm t [ Sort_spec.asc ~nulls:Sort_spec.Nulls_last (Expr.Col "c") ] in
        let cmp = Sort_spec.comparator t [ Sort_spec.asc (Expr.Col "c") ] in
        let next = ref 0 in
        Array.iteri
          (fun k row ->
            if not (Column.is_null c row) then begin
              if k > 0 && cmp perm.(k - 1) row <> 0 then incr next;
              if codes.(row) <> !next then
                Alcotest.failf "%s: row %d holds code %d, its dense rank is %d" label row codes.(row)
                  !next
            end)
          perm
  in
  (* every read of the codes against the words of the uncoded copy *)
  let declined = ref 0 in
  let check_reads ~dense label c =
    let t = table c in
    let n = Column.length c in
    List.iter
      (fun spec ->
        let label = Printf.sprintf "%s/%s" label (Sort_spec.to_string spec) in
        let expect = words_perm c spec in
        let perm, _, path = Session.full_sort pool t ~pids:None ~order:spec in
        Alcotest.(check (array int)) (label ^ ": whole-column sort") expect perm;
        let served = Key_codec.code_slots t spec <> None in
        if dense && not served then Alcotest.failf "%s: dense codes are not served" label;
        if not served then incr declined;
        Alcotest.(check bool) (label ^ ": counting sort iff served") served (path = Session.Codes);
        check_parity pool ~task_size:16 t spec label;
        List.iter
          (fun rows ->
            let m = Array.length rows in
            let ref_kc = Key_codec.compile ~rows (table (uncoded c)) spec in
            let expect =
              Rank_encode.of_words ~pool ~words:ref_kc.Key_codec.words ?tie:ref_kc.Key_codec.residual m
            in
            (* what [Evaluators.encode] runs: the counting sort when the
               slots are served, else the words [compile] reads off the
               codes *)
            let got =
              match Key_codec.code_slots ~rows t spec with
              | Some (slots, span) ->
                  if span > m then Alcotest.failf "%s: span %d over %d rows" label span m;
                  Rank_encode.of_codes ~pool slots ~span
              | None ->
                  let kc = Key_codec.compile ~rows t spec in
                  Rank_encode.of_words ~pool ~words:kc.Key_codec.words ?tie:kc.Key_codec.residual m
            in
            let arrays (e : Rank_encode.t) = [ e.rank_codes; e.row_codes; e.permutation ] in
            Alcotest.(check (list (array int))) (label ^ ": codes = of_words") (arrays expect) (arrays got))
          [ Array.init n Fun.id; random_rows rng n ])
      orders
  in
  List.iter
    (fun (kind, name) ->
      for iter = 0 to 9 do
        let label = Printf.sprintf "%s %d" name iter in
        let n = 1 + Rng.int rng 200 in
        let c = random_column kind n in
        (* the first whole-column sort, in a random order, leaves the codes *)
        let first = List.nth orders (Rng.int rng 4) in
        let expect = words_perm c first in
        let perm, _, path = Session.full_sort pool (table c) ~pids:None ~order:first in
        Alcotest.(check (array int)) (label ^ ": first sort") expect perm;
        if kind <> `String then
          Alcotest.(check bool) (label ^ ": first sort sorts the words") true (path = Session.Encoded);
        check_dense label c;
        check_reads ~dense:true label c;
        let rows = Array.init (Rng.int rng (n + 1)) (fun _ -> Rng.int rng n) in
        let taken = Column.take c rows in
        check_reads ~dense:false (label ^ "/take") taken;
        let a = Column.append c (random_column kind (1 + Rng.int rng 40)) in
        if kind <> `String then
          Alcotest.(check bool) (label ^ ": append drops the codes") true (Column.order_codes a = None);
        let perm, _, _ = Session.full_sort pool (table a) ~pids:None ~order:first in
        Alcotest.(check (array int)) (label ^ "/append: first sort") (words_perm a first) perm;
        check_dense (label ^ "/append") a;
        check_reads ~dense:true (label ^ "/append") a
      done)
    [ (`Int, "int"); (`Date, "date"); (`Float, "float"); (`String, "string") ];
  Alcotest.(check bool) "sparse codes after take reach compile" true (!declined > 0)

(* A single nullable int/float column (NaN, -0. and +0. included) encodes
   like the comparator sort under every direction and NULL placement.  The partition is every other
   table row, so the table-indexed NULL mask must be read through the row
   map.  The window order (k) is not the encoded one, so this is the
   sorting path; encoding (k) itself comes off the peer groups. *)
let test_nullable_fast_key_encode () =
  let rng = Rng.create 29 in
  let n = 400 in
  let mask = Bitset.create n in
  for i = 0 to n - 1 do
    if Rng.int rng 5 = 0 then Bitset.set mask i
  done;
  let floats = [| Float.nan; -0.; 0.; 1.5; -1.5; neg_infinity |] in
  let table =
    Table.create
      [
        ("k", Column.ints (Array.init n (fun i -> i / 3)));
        ("i", Column.make ~nulls:mask (Column.Ints (Array.init n (fun _ -> Rng.int_in rng (-3) 3))));
        ( "f",
          Column.make ~nulls:mask
            (Column.Floats (Array.init n (fun _ -> floats.(Rng.int rng (Array.length floats))))) );
      ]
  in
  let rows = Array.init (n / 2) (fun r -> 2 * r) in
  let window_order = [ Sort_spec.asc (Expr.Col "k") ] in
  let pool = Task_pool.create 1 in
  let ctx =
    {
      Evaluators.table;
      pool;
      rows;
      frame = Frame.compute table ~spec:(Window_spec.over ~order_by:window_order ()) ~rows;
      window_order;
      fanout = 4;
      sample = 4;
      task_size = Task_pool.default_task_size;
      width = Holistic_core.Mst_width.Auto;
      cache = Build_cache.create ();
      gov = None;
    }
  in
  let check order =
    let label = Sort_spec.to_string order in
    let cmp = Sort_spec.comparator table order in
    let want = Rank_encode.of_cmp ~pool (Array.length rows) ~cmp:(fun i j -> cmp rows.(i) rows.(j)) in
    let got = Evaluators.encode ctx order in
    Alcotest.(check (array int)) (label ^ ": rank codes") want.Rank_encode.rank_codes
      got.Rank_encode.rank_codes;
    Alcotest.(check (array int)) (label ^ ": row codes") want.Rank_encode.row_codes
      got.Rank_encode.row_codes;
    Alcotest.(check (array int)) (label ^ ": permutation") want.Rank_encode.permutation
      got.Rank_encode.permutation
  in
  List.iter
    (fun col ->
      List.iter
        (fun (direction, nulls) -> check [ { Sort_spec.expr = Expr.Col col; direction; nulls } ])
        [
          (Sort_spec.Asc, Sort_spec.Nulls_first);
          (Sort_spec.Asc, Sort_spec.Nulls_last);
          (Sort_spec.Desc, Sort_spec.Nulls_first);
          (Sort_spec.Desc, Sort_spec.Nulls_last);
        ])
    [ "i"; "f" ];
  check window_order;
  check []

(* [extend_words] against the comparator: a partition sorted by the order
   grows by a few rows (sometimes with one appended row swapped into the
   prefix). The extension is [None] exactly when an appended row sorts
   strictly before the prefix's last row, and otherwise equals a fresh
   encode of the grown partition. Orders cover int, float (NaN, both
   zeros, NULL) and string keys, two keys, and an interval key that only
   the residual decides, in both directions and NULL placements. *)
let test_extend_words () =
  let rng = Rng.create 0xE7 in
  let pool = Task_pool.create 1 in
  let days = Expr.Mul (Expr.Col "i", Expr.Const (Value.Interval { Value.months = 0; days = 1 })) in
  let exprs =
    [ [ Expr.Col "i" ]; [ Expr.Col "f" ]; [ Expr.Col "s" ]; [ Expr.Col "i"; Expr.Col "f" ]; [ days ];
      [ Expr.Col "s"; days ] ]
  in
  let same label (want : Rank_encode.t) (got : Rank_encode.t) =
    Alcotest.(check (array int)) (label ^ ": rank codes") want.Rank_encode.rank_codes
      got.Rank_encode.rank_codes;
    Alcotest.(check (array int)) (label ^ ": row codes") want.Rank_encode.row_codes
      got.Rank_encode.row_codes;
    Alcotest.(check (array int)) (label ^ ": permutation") want.Rank_encode.permutation
      got.Rank_encode.permutation
  in
  let appended = ref 0 and declined = ref 0 in
  List.iter
    (fun keys ->
      List.iter
        (fun (dir, nulls) ->
          let order = List.map (fun expr -> { Sort_spec.expr; direction = dir; nulls }) keys in
          for trial = 0 to 24 do
            let label = Printf.sprintf "%s #%d" (Sort_spec.to_string order) trial in
            let n = 2 + Rng.int rng 60 in
            let table = mk_table rng n in
            let cmp = Sort_spec.comparator table order in
            let rows = Introsort.sort_indices_by n ~cmp in
            let m = 1 + Rng.int rng (min (n - 1) (n / 2 + 1)) in
            if Rng.bool rng then begin
              let i = Rng.int rng m and j = m + Rng.int rng (n - m) in
              let t = rows.(i) in
              rows.(i) <- rows.(j);
              rows.(j) <- t
            end;
            let cmp_at i j = cmp rows.(i) rows.(j) in
            let old = Rank_encode.of_cmp ~pool m ~cmp:cmp_at in
            let kc = Key_codec.compile ~rows table order in
            let got =
              Rank_encode.extend_words old ~words:kc.Key_codec.words ?tie:kc.Key_codec.residual n
            in
            let last = old.Rank_encode.permutation.(m - 1) in
            let out_of_order = List.exists (fun j -> cmp_at last j > 0) (List.init (n - m) (( + ) m)) in
            match got with
            | None ->
                incr declined;
                if not out_of_order then Alcotest.failf "%s: in-order append declined" label
            | Some e ->
                incr appended;
                if out_of_order then Alcotest.failf "%s: out-of-order append extended" label;
                same label (Rank_encode.of_cmp ~pool n ~cmp:cmp_at) e
          done)
        [
          (Sort_spec.Asc, Sort_spec.Nulls_first);
          (Sort_spec.Asc, Sort_spec.Nulls_last);
          (Sort_spec.Desc, Sort_spec.Nulls_first);
          (Sort_spec.Desc, Sort_spec.Nulls_last);
        ])
    exprs;
  Alcotest.(check bool) "both outcomes exercised" true (!appended > 0 && !declined > 0)

let test_codec_shape () =
  (* a partitioned (int, float DESC, string) spec must compile fully into
     words: no residual, pid divisor present *)
  let rng = Rng.create 5 in
  let n = 1_000 in
  let table = mk_table rng n in
  let pids = Array.init n (fun _ -> Rng.int rng 7) in
  let spec =
    [ Sort_spec.asc (Expr.Col "d"); Sort_spec.desc (Expr.Col "f"); Sort_spec.asc (Expr.Col "s") ]
  in
  let kc = Key_codec.compile ~pids table spec in
  Alcotest.(check int) "all keys covered" kc.Key_codec.total kc.Key_codec.covered;
  Alcotest.(check bool) "no residual" true (kc.Key_codec.residual = None);
  Alcotest.(check bool) "pid divisor present" true (kc.Key_codec.pid_divisor <> None);
  Alcotest.(check bool) "words nonempty" true (Array.length kc.Key_codec.words > 0);
  (* intervals / mixed-type keys cannot be expressed: residual takes over *)
  let mixed =
    [ Sort_spec.asc
        (Expr.Case
           ( [ (Expr.Ge (Expr.Col "i", Expr.Const (Value.Int 0)), Expr.Col "i") ],
             Some (Expr.Col "s") )) ]
  in
  let kc' = Key_codec.compile table mixed in
  Alcotest.(check bool) "mixed-type key leaves a residual" true (kc'.Key_codec.residual <> None)

let () =
  Alcotest.run "keys"
    [
      ( "parity",
        [
          Alcotest.test_case "randomized specs/tables/pids" `Quick test_randomized;
          Alcotest.test_case "single-key dimension sweep" `Quick test_single_key_dimensions;
          Alcotest.test_case "stability under heavy ties" `Quick test_stability;
          Alcotest.test_case "edge sizes and empty spec" `Quick test_edges;
        ] );
      ( "ovc",
        [ Alcotest.test_case "multi-run multi-word merge stress" `Quick test_ovc_merge_stress ] );
      ( "plan",
        [ Alcotest.test_case "boundaries from sorted word0" `Quick test_window_boundaries ] );
      ( "spec",
        [
          Alcotest.test_case "codec coverage shape" `Quick test_codec_shape;
          Alcotest.test_case "string densification" `Quick test_string_ranks;
          Alcotest.test_case "partition ids order like the key" `Quick test_partition_ids;
          Alcotest.test_case "order-code memo" `Quick test_order_code_memo;
          Alcotest.test_case "order codes of every type" `Quick test_order_code_paths;
          Alcotest.test_case "nullable fast-key encode" `Quick test_nullable_fast_key_encode;
          Alcotest.test_case "extend_words against the comparator" `Quick test_extend_words;
        ] );
    ]
