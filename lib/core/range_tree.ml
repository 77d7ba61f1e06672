type t = {
  outer : Mst.t;
  (* inner.(j): MST over the prev-occurrence codes arranged in the key order
     of outer level j. Queried ranges always lie inside a single outer run,
     and runs of level <= j tile outer runs exactly, so one full-height inner
     tree per level is sound. *)
  inner : Mst.t array;
}

let create ~pool ?fanout ?sample keys =
  let outer = Mst.create ~pool ?fanout ?sample ~track_payload:true keys in
  let prev = Prev_occurrence.compute ~pool keys in
  let payloads = Mst.payload_levels outer in
  let inner =
    Array.map
      (fun payload ->
        let arranged = Array.map (fun origin -> prev.(origin)) payload in
        Mst.create ~pool ?fanout ?sample arranged)
      payloads
  in
  { outer; inner }

let length t = Mst.length t.outer

let distinct_below t ~lo ~hi ~key =
  let lo = max lo 0 and hi = min hi (length t) in
  if lo >= hi then 0
  else begin
    let acc = ref 0 in
    Mst.iter_covered t.outer ~lo ~hi ~less_than:key (fun ~level ~base ~prefix ->
        (* [prefix] elements of this key-sorted run have key < K; among them
           count back-references pointing before the frame start. *)
        acc := !acc + Mst.count t.inner.(level) ~lo:base ~hi:(base + prefix) ~less_than:(lo + 1));
    !acc
  end

let stats_bytes t =
  let outer = (Mst.stats t.outer).Mst.heap_bytes in
  Array.fold_left (fun acc m -> acc + (Mst.stats m).Mst.heap_bytes) outer t.inner

let footprint_bytes = stats_bytes
