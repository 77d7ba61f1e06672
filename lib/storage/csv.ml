module Bitset = Holistic_util.Bitset

let type_name c =
  match Column.buffer c with
  | Column.Ints _ -> "int"
  | Column.Floats _ -> "float"
  | Column.Strings _ -> "string"
  | Column.Bools _ -> "bool"
  | Column.Dates _ -> "date"

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let quote s =
  if needs_quoting s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let cell c i =
  if Column.is_null c i then ""
  else
    match Column.buffer c with
    | Column.Ints a -> string_of_int a.(i)
    | Column.Floats a -> Printf.sprintf "%.17g" a.(i)
    | Column.Strings a -> quote a.(i)
    | Column.Bools a -> if a.(i) then "true" else "false"
    | Column.Dates a -> Value.date_to_string a.(i)

let write out table =
  let cols = Table.columns table in
  output_string out
    (String.concat "," (List.map (fun (name, c) -> quote (name ^ ":" ^ type_name c)) cols));
  output_char out '\n';
  for i = 0 to Table.nrows table - 1 do
    output_string out (String.concat "," (List.map (fun (_, c) -> cell c i) cols));
    output_char out '\n'
  done

(* parse all records of a CSV document, respecting quoted fields (which may
   contain commas, quotes and newlines) *)
let parse_records src =
  let n = String.length src in
  let records = ref [] in
  let fields = ref [] in
  let b = Buffer.create 16 in
  let i = ref 0 in
  let in_quotes = ref false in
  let field_pending = ref false in
  let end_field () =
    fields := Buffer.contents b :: !fields;
    Buffer.clear b;
    field_pending := false
  in
  let end_record () =
    (* skip records that are entirely empty (blank lines) *)
    if !fields <> [] || Buffer.length b > 0 || !field_pending then begin
      end_field ();
      records := List.rev !fields :: !records;
      fields := []
    end
  in
  while !i < n do
    let c = src.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && src.[!i + 1] = '"' then begin
          Buffer.add_char b '"';
          incr i
        end
        else in_quotes := false
      else Buffer.add_char b c
    end
    else if c = '"' then begin
      in_quotes := true;
      field_pending := true
    end
    else if c = ',' then begin
      end_field ();
      field_pending := true
    end
    else if c = '\n' then end_record ()
    else if c <> '\r' then Buffer.add_char b c;
    incr i
  done;
  if !in_quotes then failwith "Csv: unterminated quoted field";
  end_record ();
  List.rev !records

let parse_date s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> Value.date_of_ymd (int_of_string y) (int_of_string m) (int_of_string d)
  | _ -> failwith ("Csv: malformed date " ^ s)

let read inc =
  let content = In_channel.input_all inc in
  let header, data_rows =
    match parse_records content with
    | [] -> failwith "Csv: empty input"
    | h :: rest -> (h, rest)
  in
  let schema =
    List.map
      (fun field ->
        match String.rindex_opt field ':' with
        | Some k ->
            (String.sub field 0 k, String.sub field (k + 1) (String.length field - k - 1))
        | None -> failwith ("Csv: header field without type: " ^ field))
      header
  in
  let rows = Array.of_list data_rows in
  let n = Array.length rows in
  let columns =
    List.mapi
      (fun c (name, ty) ->
        let nulls = Bitset.create n in
        let has_null = ref false in
        let field i =
          let row = rows.(i) in
          match List.nth_opt row c with
          | Some "" | None ->
              Bitset.set nulls i;
              has_null := true;
              None
          | Some s -> Some s
        in
        let data =
          match ty with
          | "int" -> Column.Ints (Array.init n (fun i -> match field i with Some s -> int_of_string s | None -> 0))
          | "float" -> Column.Floats (Array.init n (fun i -> match field i with Some s -> float_of_string s | None -> 0.0))
          | "string" -> Column.Strings (Array.init n (fun i -> match field i with Some s -> s | None -> ""))
          | "bool" -> Column.Bools (Array.init n (fun i -> match field i with Some s -> bool_of_string s | None -> false))
          | "date" -> Column.Dates (Array.init n (fun i -> match field i with Some s -> parse_date s | None -> 0))
          | _ -> failwith ("Csv: unknown column type " ^ ty)
        in
        (name, Column.make ?nulls:(if !has_null then Some nulls else None) data))
      schema
  in
  Table.create columns

let save path table =
  let out = open_out path in
  Fun.protect ~finally:(fun () -> close_out out) (fun () -> write out table)

let load path =
  let inc = open_in path in
  Fun.protect ~finally:(fun () -> close_in inc) (fun () -> read inc)
