type t = { words : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Bytes.make ((n + 7) / 8) '\000'; n }

let length t = t.n

let check t i = if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) land lnot (1 lsl (i land 7))))

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let unsafe_get t i = Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let clear_all t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let set_all t =
  Bytes.fill t.words 0 (Bytes.length t.words) '\255';
  (* Clear the padding bits of the last byte so that [count] stays exact. *)
  for i = t.n to (Bytes.length t.words * 8) - 1 do
    let b = i lsr 3 in
    Bytes.unsafe_set t.words b
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) land lnot (1 lsl (i land 7))))
  done

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> Array.unsafe_get tbl (Char.code c)

let count t =
  let acc = ref 0 in
  for b = 0 to Bytes.length t.words - 1 do
    acc := !acc + popcount_byte (Bytes.unsafe_get t.words b)
  done;
  !acc

let copy t = { words = Bytes.copy t.words; n = t.n }

let union a b =
  if a.n <> b.n then invalid_arg "Bitset.union: capacity mismatch";
  let r = copy a in
  for i = 0 to Bytes.length r.words - 1 do
    Bytes.unsafe_set r.words i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get a.words i) lor Char.code (Bytes.unsafe_get b.words i)))
  done;
  r

(* [a]'s bytes are copied whole (its padding bits are clear), and each
   byte of [b] is shifted into place across at most two bytes. *)
let append a b =
  let r = create (a.n + b.n) in
  Bytes.blit a.words 0 r.words 0 (Bytes.length a.words);
  let base = a.n lsr 3 and shift = a.n land 7 in
  for j = 0 to Bytes.length b.words - 1 do
    let v = Char.code (Bytes.unsafe_get b.words j) lsl shift in
    let at = base + j in
    Bytes.unsafe_set r.words at (Char.unsafe_chr (Char.code (Bytes.unsafe_get r.words at) lor (v land 0xff)));
    if v > 0xff then Bytes.unsafe_set r.words (at + 1) (Char.unsafe_chr (v lsr 8))
  done;
  r

let gather t rows =
  let n = Array.length rows in
  let r = create n in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    if row < 0 || row >= t.n then invalid_arg "Bitset: index out of bounds";
    if Char.code (Bytes.unsafe_get t.words (row lsr 3)) land (1 lsl (row land 7)) <> 0 then begin
      let b = i lsr 3 in
      Bytes.unsafe_set r.words b
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get r.words b) lor (1 lsl (i land 7))))
    end
  done;
  r

let iter_set t f =
  for i = 0 to t.n - 1 do
    if Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0 then f i
  done
