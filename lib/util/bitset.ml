(* [words] may run past the bytes [n] needs: that room belongs to whoever
   grows the buffer ({!extend}), so every reader stops at bit [n] and
   never trusts the bits above it. *)
type t = { words : Bytes.t; n : int }

let bytes_for n = (n + 7) / 8

let create ?capacity n =
  if n < 0 then invalid_arg "Bitset.create";
  let cap = match capacity with Some c -> max c n | None -> n in
  { words = Bytes.make (bytes_for cap) '\000'; n }

let length t = t.n
let capacity t = Bytes.length t.words * 8

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

(* The bits of the last, partial byte that belong to [t]. *)
let tail_mask t = (1 lsl (t.n land 7)) - 1

(* Sets (or clears) bits [0, n): whole bytes by fill, the partial last
   byte bit by bit, so no bit past [n] changes. *)
let fill t v =
  let full = t.n lsr 3 in
  Bytes.fill t.words 0 full (if v then '\255' else '\000');
  if t.n land 7 <> 0 then begin
    let c = Char.code (Bytes.unsafe_get t.words full) in
    let m = tail_mask t in
    Bytes.unsafe_set t.words full (Char.unsafe_chr (if v then c lor m else c land lnot m))
  end

let clear_all t = fill t false
let set_all t = fill t true

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> Array.unsafe_get tbl c

let count t =
  let full = t.n lsr 3 in
  let acc = ref 0 in
  for b = 0 to full - 1 do
    acc := !acc + popcount_byte (Char.code (Bytes.unsafe_get t.words b))
  done;
  if t.n land 7 = 0 then !acc
  else !acc + popcount_byte (Char.code (Bytes.unsafe_get t.words full) land tail_mask t)

(* A fresh bitset of [t]'s bits with room for [cap] in all: only [t]'s
   own bytes are copied, and the bits past [t.n] in its last one are
   cleared. *)
let copy_into ~cap t =
  let r = create ~capacity:cap t.n in
  let nb = bytes_for t.n in
  Bytes.blit t.words 0 r.words 0 nb;
  if t.n land 7 <> 0 then
    Bytes.unsafe_set r.words (nb - 1)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get r.words (nb - 1)) land tail_mask t));
  r

let copy t = copy_into ~cap:t.n t

(* A fresh bitset of [a]'s length whose byte [i] is [f] of byte [i] of
   [a] and of [b]; the bits past [n] in the last byte are cleared, so
   neither operand's room leaks in. *)
let bytewise name f a b =
  if a.n <> b.n then invalid_arg name;
  let r = create a.n in
  let nb = bytes_for a.n in
  for i = 0 to nb - 1 do
    Bytes.unsafe_set r.words i
      (Char.unsafe_chr
         (f (Char.code (Bytes.unsafe_get a.words i)) (Char.code (Bytes.unsafe_get b.words i))
         land 0xff))
  done;
  if a.n land 7 <> 0 then
    Bytes.unsafe_set r.words (nb - 1)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get r.words (nb - 1)) land tail_mask a));
  r

let union a b = bytewise "Bitset.union: length mismatch" ( lor ) a b
let inter a b = bytewise "Bitset.inter: length mismatch" ( land ) a b
let complement a = bytewise "Bitset.complement" (fun x _ -> lnot x) a a

(* Eight bits are gathered into one byte before it is written. *)
let init n f =
  let r = create n in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if f i then acc := !acc lor (1 lsl (i land 7));
    if i land 7 = 7 then begin
      Bytes.unsafe_set r.words (i lsr 3) (Char.unsafe_chr !acc);
      acc := 0
    end
  done;
  if n land 7 <> 0 then Bytes.unsafe_set r.words (n lsr 3) (Char.unsafe_chr !acc);
  r

(* [b]'s bits are ORed into [a]'s bytes from bit [a.n] on, each byte of
   [b] shifted into place across at most two bytes; the bits there must
   be clear. [b]'s last byte is masked to its own bits first. *)
let extend a b =
  let n = a.n + b.n in
  if n > capacity a then invalid_arg "Bitset.extend: no room";
  let base = a.n lsr 3 and shift = a.n land 7 in
  let nb = bytes_for b.n in
  for j = 0 to nb - 1 do
    let c = Char.code (Bytes.unsafe_get b.words j) in
    let c = if j = nb - 1 && b.n land 7 <> 0 then c land tail_mask b else c in
    if c <> 0 then begin
      let v = c lsl shift in
      let at = base + j in
      Bytes.unsafe_set a.words at
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get a.words at) lor (v land 0xff)));
      if v > 0xff then
        Bytes.unsafe_set a.words (at + 1)
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get a.words (at + 1)) lor (v lsr 8)))
    end
  done;
  { words = a.words; n }

let append ?capacity a b =
  let n = a.n + b.n in
  let cap = match capacity with Some c -> max c n | None -> n in
  extend (copy_into ~cap a) b

let gather ?capacity t rows =
  let n = Array.length rows in
  let r = create ?capacity n in
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
