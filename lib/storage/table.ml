type t = { columns : (string * Column.t) list; nrows : int }

let create columns =
  let nrows = match columns with [] -> 0 | (_, c) :: _ -> Column.length c in
  List.iter
    (fun (name, c) ->
      if Column.length c <> nrows then
        invalid_arg (Printf.sprintf "Table.create: column %S has %d rows, expected %d" name (Column.length c) nrows))
    columns;
  let names = List.map fst columns in
  let sorted = List.sort_uniq compare names in
  if List.length sorted <> List.length names then invalid_arg "Table.create: duplicate column name";
  { columns; nrows }

let nrows t = t.nrows
let column_names t = List.map fst t.columns
let column_opt t name = List.assoc_opt name t.columns

let column t name =
  match column_opt t name with
  | Some c -> c
  | None -> raise Not_found

let add_column t name c =
  create (t.columns @ [ (name, c) ])

let columns t = t.columns

let gather ?room t rows =
  let taken = Column.take_all ?room (List.map snd t.columns) rows in
  { columns = List.map2 (fun (name, _) c -> (name, c)) t.columns taken; nrows = Array.length rows }

let append t delta =
  if column_names t <> column_names delta then
    invalid_arg "Table.append: column names mismatch";
  create (List.map2 (fun (n, a) (_, b) -> (n, Column.append a b)) t.columns delta.columns)

let row_values t i = List.map (fun (_, c) -> Column.get c i) t.columns

let print ?(max_rows = 20) ?(out = stdout) t =
  let names = column_names t in
  let shown = min max_rows t.nrows in
  let rows = List.init shown (fun i -> List.map Value.to_string (row_values t i)) in
  let widths =
    List.mapi
      (fun c name ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) (String.length name) rows)
      names
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line cells = String.concat " | " (List.map2 pad cells widths) in
  Printf.fprintf out "%s\n" (line names);
  Printf.fprintf out "%s\n" (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Printf.fprintf out "%s\n" (line row)) rows;
  if shown < t.nrows then Printf.fprintf out "... (%d rows total)\n" t.nrows

(* Columns with room are measured as their trims, one trim per distinct
   column, so shared columns still count once. *)
let footprint_bytes t =
  let trims =
    List.fold_left
      (fun acc (_, c) -> if List.mem_assq c acc then acc else (c, Column.trim c) :: acc)
      [] t.columns
  in
  let trimmed = { t with columns = List.map (fun (n, c) -> (n, List.assq c trims)) t.columns } in
  (8 * Obj.reachable_words (Obj.repr trimmed)) - (Column.bookkeeping_bytes * List.length trims)
