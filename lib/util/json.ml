(** The one JSON codec of the repository: the value type, string escaping,
    the printer and the parser shared by the bench reports
    ([holiwin-bench/1]), the query log ([holiwin-qlog/1]) and the
    observability exports. Objects keep their member order, so printing a
    parsed document reproduces it byte for byte. *)

type t =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_float of float
  | J_string of string
  | J_list of t list
  | J_obj of (string * t) list

(** String-content escaping: quote, backslash, [\n], [\t] and [\r] get
    their short escapes, other control characters [\u00XX]; everything
    else (UTF-8 included) passes through. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Compact (default): one line, no spaces, no trailing newline.
    [~pretty:true]: every non-empty list and object broken onto lines with
    two-space indentation, ["key": value] members and a trailing newline.
    Floats print as ["%.9g"], non-finite ones as [null]. *)
let to_string ?(pretty = false) j =
  let buf = Buffer.create 1024 in
  let newline d =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * d) ' ')
    end
  in
  let seq d opening closing items add =
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        newline (d + 1);
        add x)
      items;
    newline d;
    Buffer.add_char buf closing
  in
  let add_string s =
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  in
  let rec go d = function
    | J_null -> Buffer.add_string buf "null"
    | J_bool b -> Buffer.add_string buf (string_of_bool b)
    | J_int i -> Buffer.add_string buf (string_of_int i)
    | J_float f ->
        if not (Float.is_finite f) then Buffer.add_string buf "null"
        else Buffer.add_string buf (Printf.sprintf "%.9g" f)
    | J_string s -> add_string s
    | J_list [] -> Buffer.add_string buf "[]"
    | J_list xs -> seq d '[' ']' xs (go (d + 1))
    | J_obj [] -> Buffer.add_string buf "{}"
    | J_obj kvs ->
        seq d '{' '}' kvs (fun (k, v) ->
            add_string k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (d + 1) v)
  in
  go 0 j;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

exception Parse_error of string * int
(** Message and byte offset. *)

(** Parses one JSON document (surrounding whitespace allowed) by recursive
    descent. Integral numbers become [J_int], others [J_float]; [\u]
    escapes decode to UTF-8 (BMP only).
    @raise Parse_error on malformed input or trailing garbage. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' -> (
              if !pos + 4 >= n then fail "truncated \\u escape";
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code ->
                  pos := !pos + 4;
                  add_utf8 buf code
              | None -> fail "bad \\u escape")
          | Some c -> fail (Printf.sprintf "bad escape \\%c" c)
          | None -> fail "unterminated escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> J_int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> J_float f
        | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  (* comma-separated elements up to [closing]; the opening bracket is
     already consumed *)
  let elements closing element =
    skip_ws ();
    if peek () = Some closing then begin
      advance ();
      []
    end
    else begin
      let rec go acc =
        let x = element () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go (x :: acc)
        | Some c when c = closing ->
            advance ();
            List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected , or %c" closing)
      in
      go []
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        J_obj
          (elements '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' ->
        advance ();
        J_list (elements ']' parse_value)
    | Some '"' -> J_string (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

(** [member k (J_obj kvs)] is the first binding of [k]; [None] for missing
    keys and non-objects. *)
let member k = function J_obj kvs -> List.assoc_opt k kvs | _ -> None

(** Numbers as floats; [None] otherwise. *)
let to_float = function J_int i -> Some (float_of_int i) | J_float f -> Some f | _ -> None
