open Holistic_storage
module Obs = Holistic_obs.Obs
module Json = Holistic_util.Json

let schema_version = "holiwin-qlog/1"

type t = {
  seq : int;
  unix_ms : int;
  sql : string;
  wall_ns : int;
  rows_in : int;
  rows_out : int;
  plan : Window_plan.stats option;
  structure_bytes : int;
  scratch_bytes : int;
  spill_runs : int;
  spill_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_maintained : int;
  cache_rebuilt : int;
  evaluators : (string * int) list;
  alloc_w : int;
  promoted_w : int;
  majors : int;
  session_epoch : int option;
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let query_hist =
  Obs.Histogram.make ~help:"SQL query wall times since process start (ns)" "sql.query_ns"

(* The serving-SLO primitive: p50/p90/p99 over the trailing 1024 queries,
   16 ring slices of 64 queries each, expired wholesale as the ring wraps. *)
let query_window =
  Obs.Windowed_histogram.make
    ~help:"SQL query wall times over the trailing 1024 queries (ns)"
    ~slots:16
    ~window:(Obs.Windowed_histogram.Last_events 1024)
    "sql.query_window_ns"

let note_latency_always ns =
  Obs.Histogram.add_always query_hist ns;
  Obs.Windowed_histogram.add_always query_window ns

let note_latency ns = if Obs.enabled () then note_latency_always ns

let evaluator_prefix = "plan.evaluator."

let delta snap0 snap1 name =
  let v l = match List.assoc_opt name l with Some v -> v | None -> 0 in
  v snap1 - v snap0

let measure ?(sql = "") ?session_epoch ~rows_in f =
  let was_enabled = Obs.enabled () in
  if not was_enabled then Obs.enable ();
  let before = Obs.Counter.snapshot () in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Obs.now_ns () in
  let finish () =
    if not was_enabled then begin
      Obs.disable ();
      (* the spans this query recorded are nobody's capture — drop them
         without touching the cumulative counter/histogram registries *)
      Obs.clear_spans ()
    end
  in
  match f () with
  | exception e ->
      finish ();
      raise e
  | result, plan ->
      let wall_ns = Obs.now_ns () - t0 in
      let minor = Gc.minor_words () -. m0 in
      let g1 = Gc.quick_stat () in
      let after = Obs.Counter.snapshot () in
      finish ();
      note_latency_always wall_ns;
      let d = delta before after in
      let major = g1.Gc.major_words -. g0.Gc.major_words in
      let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
      let evaluators =
        List.filter_map
          (fun (n, v1) ->
            if
              String.length n > String.length evaluator_prefix
              && String.sub n 0 (String.length evaluator_prefix) = evaluator_prefix
            then
              let dv = v1 - (match List.assoc_opt n before with Some v -> v | None -> 0) in
              if dv > 0 then
                Some (String.sub n (String.length evaluator_prefix)
                        (String.length n - String.length evaluator_prefix), dv)
              else None
            else None)
          after
      in
      let r =
        {
          seq = 0;
          unix_ms = int_of_float (Unix.gettimeofday () *. 1000.);
          sql;
          wall_ns;
          rows_in;
          rows_out = Table.nrows result;
          plan;
          structure_bytes = d "mem.structure_bytes";
          scratch_bytes = d "sort.scratch_bytes";
          spill_runs = d "sort.spill_runs";
          spill_bytes = d "sort.spill_bytes";
          cache_hits = d "cache.hit";
          cache_misses = d "cache.miss";
          cache_maintained = d "cache.maintained";
          cache_rebuilt = d "cache.rebuilt";
          evaluators;
          alloc_w = int_of_float (minor +. major -. promoted);
          promoted_w = int_of_float promoted;
          majors = g1.Gc.major_collections - g0.Gc.major_collections;
          session_epoch;
        }
      in
      (result, r)

(* ------------------------------------------------------------------ *)
(* holiwin-qlog/1 serialisation                                        *)
(* ------------------------------------------------------------------ *)

let to_json_line r =
  let open Json in
  let ints kvs = J_obj (List.map (fun (k, v) -> (k, J_int v)) kvs) in
  let int_opt = function None -> J_null | Some v -> J_int v in
  to_string
    (J_obj
       [
         ("schema", J_string schema_version);
         ("seq", J_int r.seq);
         ("unix_ms", J_int r.unix_ms);
         ("sql", J_string r.sql);
         ("wall_ns", J_int r.wall_ns);
         ("rows_in", J_int r.rows_in);
         ("rows_out", J_int r.rows_out);
         ( "plan",
           match r.plan with
           | None -> J_null
           | Some (p : Window_plan.stats) ->
               ints
                 [
                   ("stages", p.Window_plan.stages);
                   ("partition_passes", p.Window_plan.partition_passes);
                   ("full_sorts", p.Window_plan.full_sorts);
                   ("partial_sorts", p.Window_plan.partial_sorts);
                   ("reused_sorts", p.Window_plan.reused_sorts);
                   ("session_sorts", p.Window_plan.session_sorts);
                   ("comparator_sorts", p.Window_plan.comparator_sorts);
                   ("encode_builds", p.Window_plan.encode_builds);
                   ("tree_builds", p.Window_plan.tree_builds);
                 ] );
         ( "bytes",
           ints
             [ ("structure", r.structure_bytes); ("scratch", r.scratch_bytes); ("spill", r.spill_bytes) ]
         );
         ("spill_runs", J_int r.spill_runs);
         ( "cache",
           ints
             [
               ("hits", r.cache_hits);
               ("misses", r.cache_misses);
               ("maintained", r.cache_maintained);
               ("rebuilt", r.cache_rebuilt);
             ] );
         ("evaluators", ints r.evaluators);
         ("gc", ints [ ("alloc_w", r.alloc_w); ("promoted_w", r.promoted_w); ("majors", r.majors) ]);
         ("session_epoch", int_opt r.session_epoch);
       ])

let get_int ctx = function
  | Some (Json.J_int v) -> v
  | _ -> failwith (Printf.sprintf "qlog: missing or non-int %s" ctx)

let get_string ctx = function
  | Some (Json.J_string v) -> v
  | _ -> failwith (Printf.sprintf "qlog: missing or non-string %s" ctx)

let of_json_line line =
  let open Json in
  let j =
    try parse line
    with Parse_error (msg, off) -> failwith (Printf.sprintf "qlog json: %s at offset %d" msg off)
  in
  let schema = get_string "schema" (member "schema" j) in
  if schema <> schema_version then
    failwith (Printf.sprintf "qlog: unsupported schema %S (want %S)" schema schema_version);
  let plan =
    match member "plan" j with
    | Some J_null | None -> None
    | Some (J_obj _ as p) ->
        let f name = get_int ("plan." ^ name) (member name p) in
        Some
          {
            Window_plan.stages = f "stages";
            partition_passes = f "partition_passes";
            full_sorts = f "full_sorts";
            partial_sorts = f "partial_sorts";
            reused_sorts = f "reused_sorts";
            session_sorts = f "session_sorts";
            comparator_sorts = f "comparator_sorts";
            encode_builds = f "encode_builds";
            tree_builds = f "tree_builds";
          }
    | Some _ -> failwith "qlog: plan is not an object"
  in
  let bytes = match member "bytes" j with Some o -> o | None -> failwith "qlog: no bytes" in
  let cache = match member "cache" j with Some o -> o | None -> failwith "qlog: no cache" in
  let gc = match member "gc" j with Some o -> o | None -> failwith "qlog: no gc" in
  let evaluators =
    match member "evaluators" j with
    | Some (J_obj kvs) ->
        List.map (fun (k, v) -> (k, get_int ("evaluators." ^ k) (Some v))) kvs
    | _ -> failwith "qlog: no evaluators"
  in
  {
    seq = get_int "seq" (member "seq" j);
    unix_ms = get_int "unix_ms" (member "unix_ms" j);
    sql = get_string "sql" (member "sql" j);
    wall_ns = get_int "wall_ns" (member "wall_ns" j);
    rows_in = get_int "rows_in" (member "rows_in" j);
    rows_out = get_int "rows_out" (member "rows_out" j);
    plan;
    structure_bytes = get_int "bytes.structure" (member "structure" bytes);
    scratch_bytes = get_int "bytes.scratch" (member "scratch" bytes);
    spill_runs = get_int "spill_runs" (member "spill_runs" j);
    spill_bytes = get_int "bytes.spill" (member "spill" bytes);
    cache_hits = get_int "cache.hits" (member "hits" cache);
    cache_misses = get_int "cache.misses" (member "misses" cache);
    cache_maintained = get_int "cache.maintained" (member "maintained" cache);
    cache_rebuilt = get_int "cache.rebuilt" (member "rebuilt" cache);
    evaluators;
    alloc_w = get_int "gc.alloc_w" (member "alloc_w" gc);
    promoted_w = get_int "gc.promoted_w" (member "promoted_w" gc);
    majors = get_int "gc.majors" (member "majors" gc);
    session_epoch =
      (match member "session_epoch" j with
      | Some (J_int e) -> Some e
      | Some J_null | None -> None
      | Some _ -> failwith "qlog: session_epoch is not an int");
  }

(* ------------------------------------------------------------------ *)
(* The rotating sink                                                   *)
(* ------------------------------------------------------------------ *)

module Log = struct
  type sink = {
    s_path : string;
    max_bytes : int;
    mutable oc : out_channel;
    mutable size : int;
    mutable next_seq : int;
    mutable rotations : int;
    mutable closed : bool;
  }

  let open_ ?(max_bytes = 16 * 1024 * 1024) path =
    let max_bytes = max 4096 max_bytes in
    let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    { s_path = path; max_bytes; oc; size; next_seq = 0; rotations = 0; closed = false }

  let rotate s =
    close_out s.oc;
    let old = s.s_path ^ ".1" in
    if Sys.file_exists old then Sys.remove old;
    Sys.rename s.s_path old;
    s.oc <- open_out_gen [ Open_append; Open_creat ] 0o644 s.s_path;
    s.size <- 0;
    s.rotations <- s.rotations + 1

  let append s r =
    if s.closed then invalid_arg "Query_stats.Log.append: sink is closed";
    let line = to_json_line { r with seq = s.next_seq } ^ "\n" in
    s.next_seq <- s.next_seq + 1;
    if s.size > 0 && s.size + String.length line > s.max_bytes then rotate s;
    output_string s.oc line;
    s.size <- s.size + String.length line;
    flush s.oc

  let path s = s.s_path
  let rotations s = s.rotations

  let close s =
    if not s.closed then begin
      s.closed <- true;
      close_out s.oc
    end

  let load path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | "" -> go acc
      | line -> go (of_json_line line :: acc)
      | exception End_of_file -> List.rev acc
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])
end
