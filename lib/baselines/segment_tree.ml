(* Iterative bottom-up segment tree: leaves at [n, 2n), node k combines
   children 2k and 2k+1. Works for any n >= 1 without padding; query
   accumulates a left part and a right part separately so non-commutative
   monoids combine in leaf order. *)
type 'a t = { n : int; identity : 'a; combine : 'a -> 'a -> 'a; nodes : 'a array }

let create ~identity ~combine n leaf =
  if n < 0 then invalid_arg "Segment_tree.create";
  if n = 0 then { n; identity; combine; nodes = [||] }
  else begin
    let nodes = Array.make (2 * n) identity in
    for i = 0 to n - 1 do
      nodes.(n + i) <- leaf i
    done;
    for k = n - 1 downto 1 do
      nodes.(k) <- combine nodes.(2 * k) nodes.((2 * k) + 1)
    done;
    { n; identity; combine; nodes }
  end

(* reachable-word accounting covers boxed payloads (shared values counted
   once) and flat float arrays alike. *)
let footprint_bytes t = 8 * Obj.reachable_words (Obj.repr t.nodes)

let query t ~lo ~hi =
  let lo = max lo 0 and hi = min hi t.n in
  if lo >= hi then t.identity
  else begin
    let combine = t.combine in
    let resl = ref t.identity and resr = ref t.identity in
    let l = ref (lo + t.n) and r = ref (hi + t.n) in
    while !l < !r do
      if !l land 1 = 1 then begin
        resl := combine !resl t.nodes.(!l);
        incr l
      end;
      if !r land 1 = 1 then begin
        decr r;
        resr := combine t.nodes.(!r) !resr
      end;
      l := !l / 2;
      r := !r / 2
    done;
    combine !resl !resr
  end
