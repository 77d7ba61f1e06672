open Holistic_storage
module Obs = Holistic_obs.Obs
module Mstw = Holistic_core.Mst_width
module Annotated = Holistic_core.Annotated_mst
module Rank_encode = Holistic_core.Rank_encode
module Range_tree = Holistic_core.Range_tree
module Seg = Holistic_baselines.Segment_tree

(* The annotated tree's monoid is owned here so the cache can store the
   instantiated tree type without a dependency cycle. Int values sum
   exactly in the first component, as a plain SUM does; any other value
   sums in the float. *)
module Sum_count_monoid = struct
  type t = int * float * int

  let identity = (0, 0.0, 0)
  let combine (a, b, c) (d, e, f) = (a + d, b +. e, c + f)
end

module Sum_count_mst = Annotated.Make (Sum_count_monoid)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

(* Build totals are shared by every cache of a plan run and bumped from
   whichever domain evaluates the partition, so they are atomics rather
   than mutable ints. [maintained]/[rebuilt] count what happened to stale
   entries (session epochs): an incremental patch vs a from-scratch
   rebuild. *)
type counters = {
  encode_builds : int Atomic.t;
  tree_builds : int Atomic.t;
  maintained : int Atomic.t;
  rebuilt : int Atomic.t;
}

let fresh_counters () =
  {
    encode_builds = Atomic.make 0;
    tree_builds = Atomic.make 0;
    maintained = Atomic.make 0;
    rebuilt = Atomic.make 0;
  }

let encode_build_count c = Atomic.get c.encode_builds
let tree_build_count c = Atomic.get c.tree_builds
let maintained_count c = Atomic.get c.maintained
let rebuilt_count c = Atomic.get c.rebuilt

type extra_filter = Ex_none | Ex_nonnull of Expr.t
type qual = { filter : Expr.t option; extra : extra_filter }

let unfiltered = { filter = None; extra = Ex_none }

type codes_class = Rank_codes | Row_codes | Select_perm

type seg_class = Seg_sum | Seg_min | Seg_max

(* All keys are pure ASTs ([Expr.t] / [Sort_spec.t]) compared structurally,
   which is exactly the sharing rule: two items share a build iff their
   effective ORDER BY (and argument/filter, where the structure depends on
   them) are structurally equal. *)
(* Each logical table is a [Hashtbl] behind its own mutex: the stdlib
   table is not safe for concurrent mutation, and under the morsel-driven
   plan a cache may be populated from several domains at once (and the
   hammer test does exactly that on purpose).  The lock is held across the
   build thunk, which gives exactly-once construction — a second domain
   asking for the same key blocks until the structure exists, then reads
   it as a plain hit.  Build thunks must not re-enter the same table (they
   never do: the dependency chain runs peers → encode → tree, remap →
   tree, and each kind lives in its own table); cross-table nesting is
   fine because each table has its own lock and the chain is acyclic. *)
(* Every cached structure remembers the cache epoch it was built (or last
   maintained) at.  In the historical per-query use the epoch never moves
   and [at] is always current — zero behavioural change.  A session bumps
   the epoch ({!advance}) when the partition's rows were extended: entries
   from an older epoch are stale, and the next request either patches them
   incrementally (the accessor's [maintain] callback) or rebuilds. *)
type 'v entry = { v : 'v; at : int }

type ('k, 'v) guarded = { lock : Mutex.t; tbl : ('k, 'v entry) Hashtbl.t }

let guarded n = { lock = Mutex.create (); tbl = Hashtbl.create n }

type t = {
  counters : counters;
  mutable epoch : int;
  encodes : (Sort_spec.t, Rank_encode.t) guarded;
  remaps : (qual, Remap.t) guarded;
  peers : (Sort_spec.t, int array * int array) guarded;
  count_trees : (codes_class * Sort_spec.t * qual * int, Mstw.t) guarded;
  range_trees : (Sort_spec.t * qual * int, Range_tree.t) guarded;
  arg_ids : (Expr.t * qual, int array) guarded;
  prev_arrays : (Expr.t * qual, int array) guarded;
  distinct_trees : (Expr.t * qual * int, Mstw.t) guarded;
  annotated_trees : (Expr.t * qual * int, Sum_count_mst.t) guarded;
  seg_trees : (seg_class * Expr.t * qual, Value.t Seg.t) guarded;
}

let create ?counters () =
  let counters = match counters with Some c -> c | None -> fresh_counters () in
  {
    counters;
    epoch = 0;
    encodes = guarded 4;
    remaps = guarded 4;
    peers = guarded 4;
    count_trees = guarded 4;
    range_trees = guarded 4;
    arg_ids = guarded 4;
    prev_arrays = guarded 4;
    distinct_trees = guarded 4;
    annotated_trees = guarded 4;
    seg_trees = guarded 4;
  }

let counters t = t.counters
let epoch t = t.epoch
let advance t = t.epoch <- t.epoch + 1

(* Cache-wide observability: hits and misses across every accessor, a
   [build] span (tagged with the structure kind) around each miss so
   EXPLAIN ANALYZE shows what was constructed vs shared, and memory
   accounting — each freshly built structure reports its
   [footprint_bytes] to the open build span and to the deterministic
   [mem.structure_bytes] counter. *)
let c_hit = Obs.Counter.make ~help:"Structure-cache hits (sort or aggregate structure reused as-is)" "cache.hit"
let c_miss = Obs.Counter.make ~help:"Structure-cache misses (no reusable structure found)" "cache.miss"
let c_maintained = Obs.Counter.make ~help:"Cached structures maintained incrementally instead of rebuilt" "cache.maintained"
let c_rebuilt = Obs.Counter.make ~help:"Cached structures discarded and rebuilt from scratch" "cache.rebuilt"
let c_struct_bytes = Obs.Counter.make ~help:"Bytes of auxiliary query structures (MSTs, segment trees, encodings) built" "mem.structure_bytes"

(* per-structure footprints (repo-wide memory-accounting contract) *)
let int_array_bytes a = 8 * (1 + Array.length a)
let peers_bytes (a, b) = 8 * (3 + 2 + Array.length a + Array.length b)

let built ~bytes v =
  (* called inside the build span, so the footprint lands on it; [bytes]
     is only evaluated with tracing on (it may walk the structure) *)
  if Obs.tracing () then begin
    let b = bytes v in
    Obs.record_bytes (fun () -> b);
    Obs.Counter.add c_struct_bytes b
  end;
  v

(* The lock is held across the build (exactly-once under concurrency, see
   the [guarded] note); [count] bumps the relevant build counter only when
   a build (or an incremental patch) actually ran.

   Cache provenance on the build span ([EXPLAIN ANALYZE]): a stale entry
   patched by the [maintain] callback tags [maintained(<detail>)] (the
   callback supplies the detail, e.g. "+40 rows"); a stale entry the
   callback declined — or that has no callback — tags [rebuilt(stale)].
   A fresh build carries no tag (the historical span shape: staleness
   only exists under a session).  An entry at the current epoch is a
   plain hit and opens no span. *)
let memo_in ~kind ~bytes ?count ?maintain ~cnt ~epoch g key build =
  Mutex.lock g.lock;
  match Hashtbl.find_opt g.tbl key with
  | Some e when e.at = epoch ->
      Mutex.unlock g.lock;
      Obs.Counter.incr c_hit;
      e.v
  | found -> (
      let prev = match found with Some e -> Some e.v | None -> None in
      let prov = ref (match prev with Some _ -> "rebuilt(stale)" | None -> "") in
      match
        Obs.Counter.incr c_miss;
        Obs.span "build"
          ~args:(fun () ->
            ("kind", kind) :: (if !prov = "" then [] else [ ("cache", !prov) ]))
          (fun () ->
            let patched =
              match prev, maintain with Some v, Some f -> f v | _ -> None
            in
            match patched with
            | Some (v', detail) ->
                prov := Printf.sprintf "maintained(%s)" detail;
                Obs.Counter.incr c_maintained;
                Atomic.incr cnt.maintained;
                built ~bytes v'
            | None ->
                if prev <> None then begin
                  Obs.Counter.incr c_rebuilt;
                  Atomic.incr cnt.rebuilt
                end;
                (match count with None -> () | Some c -> Atomic.incr c);
                built ~bytes (build ()))
      with
      | v ->
          Hashtbl.replace g.tbl key { v; at = epoch };
          Mutex.unlock g.lock;
          v
      | exception e ->
          Mutex.unlock g.lock;
          raise e)

let memo ~kind ~bytes ?maintain t g key build =
  memo_in ~kind ~bytes ?maintain ~cnt:t.counters ~epoch:t.epoch g key build

let memo_tree ~kind ~bytes ?maintain t g key build =
  memo_in ~kind ~bytes ~count:t.counters.tree_builds ?maintain ~cnt:t.counters ~epoch:t.epoch g
    key build

let encode t ?maintain ~order build =
  memo_in ~kind:"encode" ~bytes:Rank_encode.footprint_bytes ~count:t.counters.encode_builds
    ?maintain ~cnt:t.counters ~epoch:t.epoch t.encodes order build

let remap t ~qual build = memo ~kind:"remap" ~bytes:Remap.footprint_bytes t t.remaps qual build
let peers t ?maintain ~order build =
  memo ~kind:"peers" ~bytes:peers_bytes ?maintain t t.peers order build

(* Only the [Mst] backend builds these trees ([Mst_no_cascade] runs as
   [Mst] at sample 0), so the sample in each key tells them apart. *)
let count_tree t ?maintain ~cls ~order ~qual ~sample build =
  let kind = match cls with Rank_codes -> "mst.rank" | Row_codes -> "mst.row" | Select_perm -> "mst.select" in
  memo_tree ~kind ~bytes:Mstw.footprint_bytes ?maintain t t.count_trees (cls, order, qual, sample) build

let range_tree t ~order ~qual ~sample build =
  memo_tree ~kind:"range_tree" ~bytes:Range_tree.footprint_bytes t t.range_trees (order, qual, sample)
    build

let arg_ids t ~arg ~qual build = memo ~kind:"arg_ids" ~bytes:int_array_bytes t t.arg_ids (arg, qual) build
let prev_array t ~arg ~qual build = memo ~kind:"prev" ~bytes:int_array_bytes t t.prev_arrays (arg, qual) build

let distinct_tree t ?maintain ~arg ~qual ~sample build =
  memo_tree ~kind:"mst.distinct" ~bytes:Mstw.footprint_bytes ?maintain t t.distinct_trees
    (arg, qual, sample) build

let annotated_tree t ~arg ~qual ~sample build =
  memo_tree ~kind:"mst.annotated" ~bytes:Sum_count_mst.footprint_bytes t t.annotated_trees
    (arg, qual, sample) build

let seg_tree t ~cls ~arg ~qual build =
  memo_tree ~kind:"segment_tree" ~bytes:Seg.footprint_bytes t t.seg_trees (cls, arg, qual) build

let footprint_bytes t =
  let sum bytes g =
    Mutex.lock g.lock;
    let b = Hashtbl.fold (fun _ e acc -> acc + bytes e.v) g.tbl 0 in
    Mutex.unlock g.lock;
    b
  in
  sum Rank_encode.footprint_bytes t.encodes
  + sum Remap.footprint_bytes t.remaps
  + sum peers_bytes t.peers
  + sum Mstw.footprint_bytes t.count_trees
  + sum Range_tree.footprint_bytes t.range_trees
  + sum int_array_bytes t.arg_ids
  + sum int_array_bytes t.prev_arrays
  + sum Mstw.footprint_bytes t.distinct_trees
  + sum Sum_count_mst.footprint_bytes t.annotated_trees
  + sum Seg.footprint_bytes t.seg_trees
