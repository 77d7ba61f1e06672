module type MONOID = sig
  type t

  val identity : t
  val combine : t -> t -> t
end

module Make (M : MONOID) = struct
  (* Iterative bottom-up segment tree: leaves at [n, 2n), node k combines
     children 2k and 2k+1. Works for any n >= 1 without padding; query
     accumulates a left part and a right part separately so non-commutative
     monoids combine in leaf order. *)
  type t = { n : int; nodes : M.t array }

  let create n leaf =
    if n < 0 then invalid_arg "Segment_tree.create";
    if n = 0 then { n; nodes = [||] }
    else begin
      let nodes = Array.make (2 * n) M.identity in
      for i = 0 to n - 1 do
        nodes.(n + i) <- leaf i
      done;
      for k = n - 1 downto 1 do
        nodes.(k) <- M.combine nodes.(2 * k) nodes.((2 * k) + 1)
      done;
      { n; nodes }
    end

  let length t = t.n

  (* reachable-word accounting covers boxed monoid payloads (shared
     values counted once) and flat float arrays alike. *)
  let footprint_bytes t = 8 * Obj.reachable_words (Obj.repr t.nodes)

  let query t ~lo ~hi =
    let lo = max lo 0 and hi = min hi t.n in
    if lo >= hi then M.identity
    else begin
      let resl = ref M.identity and resr = ref M.identity in
      let l = ref (lo + t.n) and r = ref (hi + t.n) in
      while !l < !r do
        if !l land 1 = 1 then begin
          resl := M.combine !resl t.nodes.(!l);
          incr l
        end;
        if !r land 1 = 1 then begin
          decr r;
          resr := M.combine t.nodes.(!r) !resr
        end;
        l := !l / 2;
        r := !r / 2
      done;
      M.combine !resl !resr
    end
end

module Int_sum = struct
  module T = Make (struct
    type t = int

    let identity = 0
    let combine = ( + )
  end)

  type t = T.t

  let create a = T.create (Array.length a) (fun i -> a.(i))
  let query = T.query
  let footprint_bytes = T.footprint_bytes
end
