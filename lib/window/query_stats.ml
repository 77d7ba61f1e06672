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
  cache_probed_rows : int;
  cache_copied_rows : int;
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
  Obs.Histogram.add query_hist ns;
  Obs.Windowed_histogram.add_always query_window ns

let note_latency ns = if Obs.tracing () then note_latency_always ns

let evaluator_prefix = "plan.evaluator."

(* The record is a view of one captured run: wall time and GC figures from
   its root span, byte/cache/evaluator fields from the capture's counter
   deltas. *)
let of_trace ~sql ~session_epoch ~rows_in ~plan result (trace : Obs.trace) =
  let root =
    List.find_opt (fun (s : Obs.span) -> s.Obs.name = "sql.query") trace.Obs.spans
  in
  let from_root f = match root with Some s -> f s | None -> 0 in
  let d name = Option.value ~default:0 (List.assoc_opt name trace.Obs.counters) in
  let pl = String.length evaluator_prefix in
  let evaluators =
    List.filter_map
      (fun (n, v) ->
        if String.length n > pl && String.sub n 0 pl = evaluator_prefix && v > 0 then
          Some (String.sub n pl (String.length n - pl), v)
        else None)
      trace.Obs.counters
  in
  {
    seq = 0;
    unix_ms = int_of_float (Unix.gettimeofday () *. 1000.);
    sql;
    wall_ns = from_root (fun s -> s.Obs.dur_ns);
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
    cache_probed_rows = d "cache.probed_rows";
    cache_copied_rows = d "cache.copied_rows";
    evaluators;
    alloc_w = from_root (fun s -> s.Obs.alloc_w);
    promoted_w = from_root (fun s -> s.Obs.promoted_w);
    majors = from_root (fun s -> s.Obs.majors);
    session_epoch;
  }

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
               ("probed_rows", r.cache_probed_rows);
               ("copied_rows", r.cache_copied_rows);
             ] );
         ("evaluators", ints r.evaluators);
         ("gc", ints [ ("alloc_w", r.alloc_w); ("promoted_w", r.promoted_w); ("majors", r.majors) ]);
         ("session_epoch", int_opt r.session_epoch);
       ])

let get_int ctx = function
  | Some (Json.J_int v) -> v
  | _ -> failwith (Printf.sprintf "qlog: missing or non-int %s" ctx)

let opt_int ctx = function None -> 0 | v -> get_int ctx v

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
    (* added to holiwin-qlog/1 later: older lines read as 0 *)
    cache_probed_rows = opt_int "cache.probed_rows" (member "probed_rows" cache);
    cache_copied_rows = opt_int "cache.copied_rows" (member "copied_rows" cache);
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
    note_latency_always r.wall_ns;
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
