module type MONOID = sig
  type t

  val identity : t
  val combine : t -> t -> t
end

module Make (M : MONOID) = struct
  type t = {
    mst : Mst.t;
    (* prefixes.(j).(i): combination of the values of the elements of
       level j's run containing i, from the run start up to and including
       position i. *)
    prefixes : M.t array array;
  }

  let build_prefixes mst value =
    let levels = Mst.levels mst in
    let payloads = Mst.payload_levels mst in
    let fanout = Mst.fanout mst in
    Array.mapi
      (fun j level ->
        let n = Array.length level in
        let stride =
          (* fanout^j, saturating at n *)
          let s = ref 1 in
          for _ = 1 to j do
            if !s < n then s := !s * fanout
          done;
          max 1 !s
        in
        let payload = payloads.(j) in
        let pref = Array.make n M.identity in
        for i = 0 to n - 1 do
          let v = value payload.(i) in
          pref.(i) <- (if i mod stride = 0 then v else M.combine pref.(i - 1) v)
        done;
        pref)
      levels

  let create ~pool ?fanout ?sample ~keys ~value () =
    let mst = Mst.create ~pool ?fanout ?sample ~track_payload:true keys in
    { mst; prefixes = build_prefixes mst value }

  let footprint_bytes t =
    (* tree elements (incl. the 8-byte payload level) by exact arithmetic;
       prefix aggregates by reachable-word count, which handles boxed and
       flat-float monoid representations alike and is deterministic for a
       given input. *)
    Mst.footprint_bytes t.mst + (8 * Obj.reachable_words (Obj.repr t.prefixes))

  let query t ~lo ~hi ~less_than =
    let acc = ref M.identity in
    Mst.iter_covered t.mst ~lo ~hi ~less_than (fun ~level ~base ~prefix ->
        if prefix > 0 then acc := M.combine !acc t.prefixes.(level).(base + prefix - 1));
    !acc
end
