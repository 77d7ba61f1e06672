(* Tests for the observability layer: Obs spans/counters, per-capture
   counters, and golden EXPLAIN ANALYZE output (wall times masked). *)

open Holistic_storage
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Sql = Holistic_sql.Sql

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Obs unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_now_ns () =
  let t1 = Obs.now_ns () in
  let t2 = Obs.now_ns () in
  Alcotest.(check bool) "monotone" true (t2 >= t1 && t1 > 0)

let test_span_nesting () =
  let v, tr =
    Obs.with_capture (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span ~args:(fun () -> [ ("k", "v") ]) "inner" (fun () -> ());
            Obs.span "inner2" (fun () -> ());
            17))
  in
  Alcotest.(check int) "result" 17 v;
  Alcotest.(check (list string)) "start order"
    [ "outer"; "inner"; "inner2" ]
    (List.map (fun (s : Obs.span) -> s.name) tr.Obs.spans);
  let find name = List.find (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "outer is root" (-1) outer.Obs.parent;
  Alcotest.(check int) "inner under outer" outer.Obs.id inner.Obs.parent;
  Alcotest.(check (list (pair string string))) "args forced" [ ("k", "v") ] inner.Obs.args;
  Alcotest.(check bool) "durations set" true
    (List.for_all (fun (s : Obs.span) -> s.Obs.dur_ns >= 0) tr.Obs.spans)

let test_disabled_noop () =
  Obs.disable ();
  let c = Obs.Counter.make "test.noop" in
  let forced = ref false in
  let off () =
    Obs.span
      ~args:(fun () ->
        forced := true;
        [])
      "off"
      (fun () ->
        Obs.Counter.incr c;
        3)
  in
  let v0 = Obs.Counter.value c in
  Alcotest.(check int) "value passes through" 3 (off ());
  Alcotest.(check int) "gated counter untouched while disabled" v0 (Obs.Counter.value c);
  (* tracing on, but no capture open on this domain: the span records
     nothing *)
  Obs.enable ();
  ignore (off ());
  Obs.disable ();
  Alcotest.(check bool) "args thunk never forced" false !forced;
  let (), tr = Obs.with_capture (fun () -> ()) in
  Alcotest.(check int) "no spans reach a later capture" 0 (List.length tr.Obs.spans);
  Alcotest.(check (option int)) "nor counter increments" None
    (List.assoc_opt "test.noop" tr.Obs.counters)

let test_exception_closes_span () =
  let (), tr =
    Obs.with_capture (fun () ->
        (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
        Obs.span "after" (fun () -> ()))
  in
  let find name = List.find (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  Alcotest.(check bool) "boom recorded, closed" true ((find "boom").Obs.dur_ns >= 0);
  Alcotest.(check int) "stack not corrupted: after is a root" (-1) (find "after").Obs.parent

let test_annotate () =
  let (), tr =
    Obs.with_capture (fun () -> Obs.span "s" (fun () -> Obs.annotate [ ("note", "here") ]))
  in
  let s = List.hd tr.Obs.spans in
  Alcotest.(check bool) "annotation attached" true (List.mem_assoc "note" s.Obs.args)

let test_counters () =
  let c = Obs.Counter.make "test.gated" in
  Obs.disable ();
  let v0 = Obs.Counter.value c in
  Obs.Counter.add c 5;
  Alcotest.(check int) "gated add is a no-op when disabled" v0 (Obs.Counter.value c);
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.Counter.incr c;
        Obs.Counter.add c 2)
  in
  Alcotest.(check int) "gated add counts inside a capture" (v0 + 3) (Obs.Counter.value c);
  Alcotest.(check (option int)) "the trace holds the capture's count" (Some 3)
    (List.assoc_opt "test.gated" tr.Obs.counters);
  Alcotest.(check bool) "registered in snapshot" true
    (List.mem ("test.gated", v0 + 3) (Obs.Counter.snapshot ()));
  Alcotest.(check bool) "same name, same counter" true
    (Obs.Counter.value (Obs.Counter.make "test.gated") = v0 + 3);
  let (), tr = Obs.with_capture (fun () -> ()) in
  Alcotest.(check (option int)) "no increment, no entry" None
    (List.assoc_opt "test.gated" tr.Obs.counters);
  Alcotest.(check int) "captures never reset the registry" (v0 + 3) (Obs.Counter.value c)

let test_with_capture_restores () =
  Obs.disable ();
  let (), _ = Obs.with_capture (fun () -> Alcotest.(check bool) "on inside" true (Obs.tracing ())) in
  Alcotest.(check bool) "off restored" false (Obs.tracing ());
  Obs.enable ();
  let (), _ = Obs.with_capture (fun () -> ()) in
  Alcotest.(check bool) "on restored" true (Obs.tracing ());
  Obs.disable ()

(* ------------------------------------------------------------------ *)
(* Capture isolation                                                   *)
(* ------------------------------------------------------------------ *)

let span_names (tr : Obs.trace) = List.map (fun (s : Obs.span) -> s.Obs.name) tr.Obs.spans

(* Two domains hold overlapping captures: B opens after A, and A closes
   while B is still open.  Each trace holds exactly its own spans, and
   closing A does not switch tracing off under B. *)
let test_overlapping_captures () =
  Obs.disable ();
  let a_open = Atomic.make false and b_open = Atomic.make false and a_closed = Atomic.make false in
  let await flag = while not (Atomic.get flag) do Domain.cpu_relax () done in
  let b =
    Domain.spawn (fun () ->
        await a_open;
        Obs.with_capture (fun () ->
            Obs.span "b1" (fun () -> ());
            Atomic.set b_open true;
            await a_closed;
            let on = Obs.tracing () in
            Obs.span "b2" (fun () -> ());
            on))
  in
  let (), ta =
    Obs.with_capture (fun () ->
        Atomic.set a_open true;
        Obs.span "a1" (fun () -> ());
        await b_open;
        Obs.span "a2" (fun () -> ()))
  in
  Atomic.set a_closed true;
  let on, tb = Domain.join b in
  Alcotest.(check (list string)) "A holds its own spans" [ "a1"; "a2" ] (span_names ta);
  Alcotest.(check (list string)) "B holds its own spans" [ "b1"; "b2" ] (span_names tb);
  Alcotest.(check bool) "B kept tracing after A closed" true on;
  Alcotest.(check bool) "off once both closed" false (Obs.tracing ())

(* Pool workers record into the submitter's capture, under the span that
   submitted their task: every item span chains up to sql.query. *)
let test_worker_spans_parented () =
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 60_000 in
      let table =
        Table.create
          [
            ("g", Column.ints (Array.init n (fun i -> i mod 600)));
            ("x", Column.ints (Array.init n (fun i -> i * 7919 mod n)));
          ]
      in
      let _, tr =
        Sql.explain_analyze_trace ~pool ~tables:[ ("t", table) ]
          "select sum(x) over (partition by g order by x rows between 2 preceding and current row) from t"
      in
      let by_id = Hashtbl.create 256 in
      List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.Obs.id s) tr.Obs.spans;
      let rec reaches_query (s : Obs.span) =
        s.Obs.name = "sql.query"
        || match Hashtbl.find_opt by_id s.Obs.parent with Some p -> reaches_query p | None -> false
      in
      let items = List.filter (fun (s : Obs.span) -> s.Obs.name = "item") tr.Obs.spans in
      Alcotest.(check bool) "items traced" true (items <> []);
      Alcotest.(check bool) "some item ran on a worker domain" true
        (List.exists (fun (s : Obs.span) -> s.Obs.tid <> (Domain.self () :> int)) items);
      Alcotest.(check bool) "every item chains up to sql.query" true (List.for_all reaches_query items))

(* Fig. 14's phases are the engine's own spans: a traced MST
   COUNT(DISTINCT) must build its argument ids, previous-occurrence array
   and distinct tree, in that order, under the item span. *)
let test_distinct_build_spans () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 500 in
      let table =
        Table.create
          [
            ("d", Column.dates (Array.init n (fun i -> i / 3)));
            ("x", Column.ints (Array.init n (fun i -> i * 7 mod 40)));
          ]
      in
      let _, tr =
        Sql.explain_analyze_trace ~pool ~evaluator:Holistic_window.Evaluator_choice.Mst
          ~tables:[ ("t", table) ] "select count(distinct x) over (order by d) from t"
      in
      let item =
        match List.filter (fun (s : Obs.span) -> s.Obs.name = "item") tr.Obs.spans with
        | [ s ] -> s
        | l -> Alcotest.failf "expected one item span, got %d" (List.length l)
      in
      let kinds =
        List.filter_map
          (fun (s : Obs.span) ->
            if s.Obs.parent = item.Obs.id && s.Obs.name = "build" then
              List.assoc_opt "kind" s.Obs.args
            else None)
          tr.Obs.spans
      in
      let rec in_order want have =
        match (want, have) with
        | [], _ -> true
        | _, [] -> false
        | w :: ws, h :: hs -> if w = h then in_order ws hs else in_order want hs
      in
      Alcotest.(check bool)
        (Printf.sprintf "arg_ids, prev, mst.distinct in order among [%s]" (String.concat "; " kinds))
        true
        (in_order [ "arg_ids"; "prev"; "mst.distinct" ] kinds))

(* A LEAD with its own ORDER BY probes the selection tree alone: forced
   onto the MST, its item builds the [mst.select] tree and no [mst.row]
   count tree. *)
let test_lead_builds_one_tree () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 500 in
      let table =
        Table.create
          [
            ("ts", Column.ints (Array.init n (fun i -> i)));
            ("x", Column.ints (Array.init n (fun i -> i * 7 mod 40)));
          ]
      in
      let _, tr =
        Sql.explain_analyze_trace ~pool ~evaluator:Holistic_window.Evaluator_choice.Mst
          ~tables:[ ("t", table) ]
          "select lead(x order by x) over (order by ts rows between 5 preceding and 5 following) from t"
      in
      let trees =
        List.filter_map
          (fun (s : Obs.span) ->
            match List.assoc_opt "kind" s.Obs.args with
            | Some k when s.Obs.name = "build" && String.starts_with ~prefix:"mst." k -> Some k
            | _ -> None)
          tr.Obs.spans
      in
      Alcotest.(check (list string)) "one selection tree" [ "mst.select" ] trees)

let test_totals () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "a" (fun () -> ());
        Obs.span "b" (fun () -> ());
        Obs.span "a" (fun () -> ()))
  in
  match Obs.totals tr with
  | [ ("a", (2, sa)); ("b", (1, sb)) ] ->
      Alcotest.(check bool) "non-negative seconds" true (sa >= 0.0 && sb >= 0.0)
  | other ->
      Alcotest.failf "unexpected totals: %s"
        (String.concat "; " (List.map (fun (n, (c, _)) -> Printf.sprintf "%s/%d" n c) other))

let test_render_aggregates () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "p" (fun () ->
            Obs.span "c" (fun () -> ());
            Obs.span "c" (fun () -> ())))
  in
  let r = Obs.render tr in
  Alcotest.(check bool) "sibling aggregation" true (contains ~sub:"c x2" r);
  Alcotest.(check bool) "times as ms" true (contains ~sub:" ms" r)

let test_chrome_json () =
  let module Json = Holistic_util.Json in
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "alpha" (fun () ->
            Obs.span "beta" (fun () -> Obs.Counter.add (Obs.Counter.make "test.chrome") 3)))
  in
  let path = Filename.temp_file "holiwin_chrome" ".json" in
  Obs.write_chrome_trace path tr;
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "file holds to_chrome_json" (Obs.to_chrome_json tr) written;
  let events =
    match Json.member "traceEvents" (Json.parse written) with
    | Some (Json.J_list l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let str key e = match Json.member key e with Some (Json.J_string v) -> v | _ -> "?" in
  Alcotest.(check int) "one event per span and counter"
    (List.length tr.Obs.spans + List.length tr.Obs.counters)
    (List.length events);
  Alcotest.(check (list string)) "spans are complete events, counters counter events"
    ([ "X"; "X" ] @ List.map (fun _ -> "C") tr.Obs.counters)
    (List.map (str "ph") events);
  Alcotest.(check (list string)) "spans in start order" [ "alpha"; "beta" ]
    (List.map (str "name") (List.filteri (fun i _ -> i < 2) events));
  match List.find_opt (fun e -> str "name" e = "test.chrome") events with
  | Some e ->
      Alcotest.(check bool) "counter value" true
        (Option.bind (Json.member "args" e) (Json.member "value") = Some (Json.J_int 3))
  | None -> Alcotest.fail "counter event missing"

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist_buckets () =
  let module Hg = Obs.Histogram in
  (* values below 16 are exact: bucket = value = lower bound *)
  for v = 0 to 15 do
    Alcotest.(check int) "exact bucket" v (Hg.bucket_of_value v);
    Alcotest.(check int) "exact lower bound" v (Hg.bucket_lower_bound v)
  done;
  (* the first octave above 15 is still exact (16 sub-buckets of width 1) *)
  Alcotest.(check int) "16" 16 (Hg.bucket_of_value 16);
  Alcotest.(check int) "31" 31 (Hg.bucket_of_value 31);
  Alcotest.(check int) "lb 16" 16 (Hg.bucket_lower_bound 16);
  Alcotest.(check int) "lb 31" 31 (Hg.bucket_lower_bound 31);
  (* from 32 on, sub-buckets widen: 32 and 33 coincide, 32 and 34 differ *)
  Alcotest.(check int) "32/33 share" (Hg.bucket_of_value 32) (Hg.bucket_of_value 33);
  Alcotest.(check bool) "32/34 differ" true (Hg.bucket_of_value 32 <> Hg.bucket_of_value 34);
  (* bucket index and lower bound are monotone, lower bound never exceeds
     the value, and relative quantisation error stays below 1/16 *)
  let prev = ref (-1) in
  let v = ref 0 in
  while !v < 1 lsl 40 do
    let b = Hg.bucket_of_value !v in
    Alcotest.(check bool) "bucket in range" true (b >= 0 && b < Hg.bucket_count);
    Alcotest.(check bool) "monotone" true (b >= !prev);
    let lb = Hg.bucket_lower_bound b in
    Alcotest.(check bool) "lower bound <= v" true (lb <= !v);
    Alcotest.(check bool) "error < 1/16" true
      (float_of_int (!v - lb) < (1.0 /. 16.0) *. float_of_int (max 1 !v));
    prev := b;
    v := (!v * 17 / 16) + 1
  done;
  Alcotest.(check bool) "max_int maps" true
    (Hg.bucket_lower_bound (Hg.bucket_of_value max_int) <= max_int)

let test_hist_quantiles () =
  let h = Obs.Histogram.make "test.hist.q" in
  Obs.Histogram.reset h;
  for v = 1 to 1000 do
    Obs.Histogram.add h v
  done;
  let s = Obs.Histogram.summary h in
  Alcotest.(check int) "count" 1000 s.Obs.Histogram.count;
  Alcotest.(check int) "min" 1 s.Obs.Histogram.min;
  Alcotest.(check int) "max" 1000 s.Obs.Histogram.max;
  Alcotest.(check int) "sum" 500_500 s.Obs.Histogram.sum;
  let { Obs.Histogram.p50; p90; p99; _ } = s in
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p90 && p90 <= p99 && p99 <= s.Obs.Histogram.max);
  (* conservative estimates: never above the true quantile, within one
     1/16-wide sub-bucket below it *)
  Alcotest.(check bool) "p50 near 500" true (p50 <= 500 && p50 > 460);
  Alcotest.(check bool) "p90 near 900" true (p90 <= 900 && p90 > 830);
  Alcotest.(check bool) "p99 near 990" true (p99 <= 990 && p99 > 920);
  let q100 = Obs.Histogram.quantile h 1.0 in
  Alcotest.(check bool) "q=1.0 lands in the max bucket" true (q100 >= p99 && q100 <= s.Obs.Histogram.max);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset clears" 0 (Obs.Histogram.count h)

let test_hist_registry () =
  let h = Obs.Histogram.make "test.hist.gate" in
  Obs.Histogram.reset h;
  Obs.disable ();
  Obs.Histogram.add h 5;
  Alcotest.(check int) "add records with tracing disabled" 1 (Obs.Histogram.count h);
  let (), tr = Obs.with_capture (fun () -> Obs.Histogram.add h 7) in
  Alcotest.(check int) "and inside a capture" 2 (Obs.Histogram.count h);
  (match List.assoc_opt "test.hist.gate" tr.Obs.hists with
  | Some s ->
      Alcotest.(check (list int)) "the trace holds only the capture's record" [ 1; 7; 7; 7 ]
        [ s.Obs.Histogram.count; s.Obs.Histogram.min; s.Obs.Histogram.max; s.Obs.Histogram.sum ]
  | None -> Alcotest.fail "histogram delta missing from trace");
  Obs.Histogram.add h (-3);
  Alcotest.(check int) "negative clamps to 0" 0 (Obs.Histogram.summary h).Obs.Histogram.min;
  Alcotest.(check bool) "in snapshot" true
    (List.mem_assoc "test.hist.gate" (Obs.Histogram.snapshot ()));
  Obs.Histogram.reset h;
  Alcotest.(check bool) "reset drops it from the snapshot" false
    (List.mem_assoc "test.hist.gate" (Obs.Histogram.snapshot ()))

let test_hists_in_trace () =
  let (), tr =
    Obs.with_capture (fun () ->
        let h = Obs.Histogram.make "test.hist.trace_ns" in
        Obs.Histogram.add h 100;
        Obs.Histogram.add h 200)
  in
  (match List.assoc_opt "test.hist.trace_ns" tr.Obs.hists with
  | Some s -> Alcotest.(check int) "captured count" 2 s.Obs.Histogram.count
  | None -> Alcotest.fail "histogram missing from trace");
  let r = Obs.render tr in
  Alcotest.(check bool) "rendered" true (contains ~sub:"test.hist.trace_ns" r)

(* ------------------------------------------------------------------ *)
(* Memory accounting: record_bytes, GC sampling, self-times            *)
(* ------------------------------------------------------------------ *)

let test_record_bytes () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "outer" (fun () ->
            Obs.record_bytes (fun () -> 123);
            Obs.span "inner" (fun () -> Obs.record_bytes (fun () -> 1000));
            Obs.record_bytes (fun () -> 77)))
  in
  let find name = List.find (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  Alcotest.(check int) "bytes attributed to the innermost open span" 200 (find "outer").Obs.bytes;
  Alcotest.(check int) "nested span gets its own" 1000 (find "inner").Obs.bytes;
  Obs.disable ();
  let forced = ref false in
  Obs.record_bytes (fun () ->
      forced := true;
      1);
  Alcotest.(check bool) "thunk not forced when disabled" false !forced;
  (* outside any span, attribution silently drops *)
  let (), tr = Obs.with_capture (fun () -> Obs.record_bytes (fun () -> 55)) in
  Alcotest.(check int) "no span to attribute to" 0 (List.length tr.Obs.spans)

let test_gc_sampling () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "alloc" (fun () ->
            (* a 100k-float array: ~100_001 words, allocated directly on
               the major heap *)
            ignore (Sys.opaque_identity (Array.make 100_000 0.0))))
  in
  let s = List.hd tr.Obs.spans in
  Alcotest.(check bool) "allocated words counted" true (s.Obs.alloc_w >= 100_000);
  Alcotest.(check bool) "non-negative GC fields" true
    (s.Obs.promoted_w >= 0 && s.Obs.majors >= 0)

(* A span's GC deltas are this domain's: another domain allocating on the
   major heap (and collecting) meanwhile must not leak into them, so the
   same work always reports the same words. *)
let test_gc_sampling_domain_local () =
  let stop = Atomic.make false in
  let busy =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Sys.opaque_identity (Array.make 10_000 0))
        done)
  in
  let measure () =
    let (), tr =
      Obs.with_capture (fun () ->
          Obs.span "alloc" (fun () ->
              (* 100 blocks of 1001 words, each past the minor-heap limit *)
              for _ = 1 to 100 do
                ignore (Sys.opaque_identity (Array.make 1_000 0))
              done))
    in
    (List.hd tr.Obs.spans).Obs.alloc_w
  in
  let words = List.init 20 (fun _ -> measure ()) in
  Atomic.set stop true;
  Domain.join busy;
  let first = List.hd words in
  Alcotest.(check bool) "the blocks are counted" true (first >= 100_100);
  List.iter (fun w -> Alcotest.(check int) "the same words every time" first w) words

let test_self_totals () =
  let mk ?(args = []) id parent name dur_ns =
    {
      Obs.id;
      parent;
      name;
      tid = 0;
      t0_ns = 0;
      dur_ns;
      args;
      alloc_w = 0;
      promoted_w = 0;
      majors = 0;
      bytes = 0;
    }
  in
  (* root (100) > child (60) > grandchild (25); sibling child (15);
     kind-tagged sibling builds (7 and 3) *)
  let tr =
    {
      Obs.spans =
        [
          mk 0 (-1) "root" 100;
          mk 1 0 "child" 60;
          mk 2 1 "grand" 25;
          mk 3 0 "child" 15;
          mk ~args:[ ("kind", "prev"); ("cache", "reused(epoch=1)") ] 4 0 "build" 7;
          mk ~args:[ ("kind", "peers") ] 5 0 "build" 3;
        ];
      counters = [];
      hists = [];
      dropped = 0;
    }
  in
  let self = Obs.self_totals tr in
  let get name = List.assoc name self in
  Alcotest.(check int) "root self = 100 - 60 - 15 - 7 - 3" 15
    (int_of_float (snd (get "root") *. 1e9 +. 0.5));
  Alcotest.(check int) "build{kind=prev} keyed by its kind" 7
    (int_of_float (snd (get "build{kind=prev}") *. 1e9 +. 0.5));
  Alcotest.(check int) "build{kind=peers} keyed by its kind" 3
    (int_of_float (snd (get "build{kind=peers}") *. 1e9 +. 0.5));
  Alcotest.(check bool) "no untagged build row" false (List.mem_assoc "build" self);
  Alcotest.(check int) "child self = (60 - 25) + 15" 50
    (int_of_float (snd (get "child") *. 1e9 +. 0.5));
  Alcotest.(check int) "child count" 2 (fst (get "child"));
  Alcotest.(check int) "grand self = 25" 25 (int_of_float (snd (get "grand") *. 1e9 +. 0.5));
  (* a child longer than its parent (dropped spans, clock skew) clamps at 0 *)
  let tr2 =
    { Obs.spans = [ mk 0 (-1) "p" 10; mk 1 0 "c" 50 ]; counters = []; hists = []; dropped = 0 }
  in
  Alcotest.(check int) "negative self clamps to 0" 0
    (int_of_float (snd (List.assoc "p" (Obs.self_totals tr2)) *. 1e9 +. 0.5))

(* The footprint contract: [footprint_bytes] of a built structure must
   track what the heap actually holds.  Build a 64-bit MST (all-boxed
   OCaml arrays — the 32/16-bit widths keep their buffers in malloc'd
   bigarrays outside the OCaml heap) and compare against the live-word
   delta across construction. *)
let test_footprint_parity () =
  let module Mst = Holistic_core.Mst in
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 50_000 in
      let keys = Array.init n (fun i -> i * 7919 mod n) in
      (* warm up any lazy one-time allocations on this path *)
      ignore (Sys.opaque_identity (Mst.create ~pool keys));
      Gc.full_major ();
      Gc.full_major ();
      let before = (Gc.stat ()).Gc.live_words in
      let t = Mst.create ~pool keys in
      Gc.full_major ();
      let after = (Gc.stat ()).Gc.live_words in
      let measured = 8 * (after - before) in
      let fp = Mst.footprint_bytes t in
      Alcotest.(check bool)
        (Printf.sprintf "footprint %d B within 10%% of measured %d B" fp measured)
        true
        (float_of_int (abs (fp - measured)) <= 0.10 *. float_of_int measured);
      ignore (Sys.opaque_identity t);
      ignore (Sys.opaque_identity keys))

(* ------------------------------------------------------------------ *)
(* Per-capture counters                                                *)
(* ------------------------------------------------------------------ *)

(* A spin barrier for [parties] domains. *)
let barrier parties =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    while Atomic.get arrived < parties do
      Domain.cpu_relax ()
    done

let counter name (tr : Obs.trace) = List.assoc_opt name tr.Obs.counters

let test_pool_stats () =
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let tasks = Obs.Counter.make "pool.tasks" in
      Obs.disable ();
      let v0 = Obs.Counter.value tasks in
      Task_pool.run_list pool (List.init 8 (fun _ () -> ignore (Sys.opaque_identity 1)));
      Alcotest.(check int) "no counting while disabled" v0 (Obs.Counter.value tasks);
      let (), tr =
        Obs.with_capture (fun () ->
            Task_pool.run_list pool (List.init 8 (fun _ () -> ignore (Sys.opaque_identity 1)));
            Task_pool.parallel_for pool ~lo:0 ~hi:40 ~chunk:10 (fun _ _ -> ()))
      in
      Alcotest.(check (option int)) "tasks counted while tracing" (Some 12) (counter "pool.tasks" tr);
      Alcotest.(check bool) "busy time accumulated" true
        (Option.value ~default:0 (counter "pool.busy_ns" tr) >= 0))

(* Each capture sees the tasks it submitted, whichever domain ran them,
   and only those: A submits 12 tasks to a 2-domain pool while B, on
   another domain and overlapping A, submits 5 to the same pool. *)
let test_pool_attribution () =
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let opened = barrier 2 and ran = barrier 2 in
      let captured n () =
        snd
          (Obs.with_capture (fun () ->
               opened ();
               Task_pool.run_list pool
                 (List.init n (fun _ () -> ignore (Sys.opaque_identity (Array.make 1000 0))));
               ran ()))
      in
      let b = Domain.spawn (captured 5) in
      let ta = captured 12 () in
      let tb = Domain.join b in
      Alcotest.(check (option int)) "A counts its own tasks" (Some 12) (counter "pool.tasks" ta);
      Alcotest.(check bool) "A has busy time" true (counter "pool.busy_ns" ta <> None);
      Alcotest.(check (option int)) "B counts only its own" (Some 5) (counter "pool.tasks" tb))

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE goldens                                             *)
(* ------------------------------------------------------------------ *)

let table () =
  Table.create
    [
      ("g", Column.ints [| 1; 1; 2; 2; 1; 2 |]);
      ("x", Column.ints [| 3; 1; 2; 5; 4; 1 |]);
      ("s", Column.strings [| "a"; "b"; "a"; "c"; "b"; "a" |]);
    ]

let q1 =
  "select rank() over (partition by g order by x) as r, sum(x) over (partition by g order by x \
   rows between 1 preceding and current row) as s1, count(*) over (partition by g order by x, s) \
   as c from t"

let q2 =
  "select x + 1 as y, row_number() over (order by x desc) as rn from t where g = 1 order by rn \
   limit 2"

(* Masks wall times ("<float> ms" -> "# ms") and allocation counts
   ("<float> kw" -> "# kw"), and collapses the alignment padding (interior
   runs of spaces), keeping the indentation that carries the span tree
   structure.  Structure bytes (the "B"/"KB" memory column) are
   deterministic and stay unmasked. *)
let mask_report s =
  let mask_line line =
    let n = String.length line in
    let ind = ref 0 in
    while !ind < n && line.[!ind] = ' ' do
      incr ind
    done;
    let buf = Buffer.create n in
    Buffer.add_string buf (String.sub line 0 !ind);
    let is_num c = (c >= '0' && c <= '9') || c = '.' in
    let i = ref !ind in
    while !i < n do
      let c = line.[!i] in
      if is_num c then begin
        let j = ref !i in
        while !j < n && is_num line.[!j] do
          incr j
        done;
        if !j + 2 < n && line.[!j] = ' ' && line.[!j + 1] = 'm' && line.[!j + 2] = 's' then begin
          Buffer.add_string buf "# ms";
          i := !j + 3
        end
        else if !j + 2 < n && line.[!j] = ' ' && line.[!j + 1] = 'k' && line.[!j + 2] = 'w' then begin
          Buffer.add_string buf "# kw";
          i := !j + 3
        end
        else begin
          Buffer.add_string buf (String.sub line !i (!j - !i));
          i := !j
        end
      end
      else if c = ' ' then begin
        let j = ref !i in
        while !j < n && line.[!j] = ' ' do
          incr j
        done;
        Buffer.add_char buf ' ';
        i := !j
      end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    done;
    Buffer.contents buf
  in
  String.concat "\n" (List.map mask_line (String.split_on_char '\n' s))

let golden1 =
  {|from: t
select window: rank() over (partition by g order by x) as r
select window: sum(x) over (partition by g order by x rows between 1 preceding and current row) as s1
select window: count(*) over (partition by g order by x, s) as c
rows: 6 (504 B)
sql.query # ms - # kw
  sql.window # ms - # kw
    window_plan {rows=6, clauses=3} # ms - # kw
      partition_ids {by=g} # ms - # kw
      sort {order=x, s, kind=full, path=encoded, rows=6} # ms 88 B # kw
        sort.runs {n=6, runs=1} # ms - # kw
      choose {item=r, evaluator=mst, cost=mst=2.9us, rejected=naive=0.0us,ost=0.2us} # ms - # kw
      choose {item=s1, evaluator=segment-tree, cost=segment-tree=0.1us, rejected=naive=0.0us} # ms - # kw
      eval {order=x, s, partitions=2} # ms - # kw
        frame {order=x} x4 # ms - # kw
          build {kind=peers} x2 # ms 176 B # kw
        item {name=r, func=rank, evaluator=mst} x2 # ms - # kw
          build {kind=encode} x2 # ms 240 B # kw
          build {kind=mst.rank} x2 # ms 152 B # kw
        item {name=s1, func=sum, evaluator=segment-tree} x2 # ms - # kw
          build {kind=segment_tree} x2 # ms 272 B # kw
        frame {order=x, s} x2 # ms - # kw
          build {kind=peers} x2 # ms 176 B # kw
        item {name=c, func=count(*)} x2 # ms - # kw
    materialize {columns=3} # ms 288 B # kw
  sql.project {columns=3} # ms - # kw
counters
  cache.hit 4
  cache.miss 10
  mem.structure_bytes 1016
  plan.evaluator.mst 1
  plan.evaluator.segment-tree 1
  plan.full_sorts 1
  plan.partition_passes 1
  plan.reused_sorts 2
  plan.stages 1
  pool.busy_ns # ms
  pool.tasks 7
|}

let golden2 =
  {|from: t
where: (g = 1)
select expr: (x + 1) as y
select window: row_number() over (order by x desc) as rn
order by: rn
limit: 2
rows: 2 (280 B)
sql.query # ms - # kw
  sql.where {in=6, out=3} # ms 464 B # kw
  sql.window # ms - # kw
    window_plan {rows=3, clauses=1} # ms - # kw
      partition_ids {by=} # ms - # kw
      sort {order=x desc, kind=full, path=encoded, rows=3} # ms 56 B # kw
        sort.runs {n=3, runs=1} # ms - # kw
      choose {item=rn, evaluator=mst, cost=mst=1.4us, rejected=naive=0.0us,ost=0.1us} # ms - # kw
      eval {order=x desc, partitions=1} # ms - # kw
        frame {order=x desc} # ms - # kw
          build {kind=peers} # ms 88 B # kw
        item {name=rn, func=row_number, evaluator=mst} # ms - # kw
          build {kind=encode} # ms 120 B # kw
          build {kind=mst.row} # ms 76 B # kw
    materialize {columns=1} # ms 72 B # kw
  sql.project {columns=2} # ms 72 B # kw
  sql.order_by {rows=3} # ms - # kw
    sort.runs {n=3, runs=1} # ms - # kw
counters
  cache.hit 1
  cache.miss 3
  mem.structure_bytes 284
  plan.evaluator.mst 1
  plan.full_sorts 1
  plan.partition_passes 1
  plan.stages 1
  pool.busy_ns # ms
  pool.tasks 3
|}

let golden_case query golden () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let run = Sql.explain_analyze_trace ~pool ~tables:[ ("t", table ()) ] query in
      Alcotest.(check string) "masked report" golden (mask_report (Sql.render_analyze query run)))

(* Which encodes sort: an item ordered by (a prefix of) its window order
   reads its encoding off the peer groups, with no sort under the encode's
   build span; an item with its own ORDER BY still sorts, unboxed even on a
   nullable column. *)
let test_encode_sorts () =
  let n = 40 in
  let mask = Holistic_util.Bitset.create n in
  List.iter (Holistic_util.Bitset.set mask) [ 3; 17; 29 ];
  let t =
    Table.create
      [
        ("ts", Column.ints (Array.init n (fun i -> (i * 7) mod n)));
        ("x", Column.make ~nulls:mask (Column.Ints (Array.init n (fun i -> (i * 5) mod 11))));
      ]
  in
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (item, sorts) ->
          let q = Printf.sprintf "select %s over (order by ts) as v from t" item in
          let _, tr = Sql.explain_analyze_trace ~pool ~tables:[ ("t", t) ] q in
          let spans = tr.Obs.spans in
          let encodes =
            List.filter
              (fun (s : Obs.span) ->
                s.Obs.name = "build" && List.assoc_opt "kind" s.Obs.args = Some "encode")
              spans
          in
          Alcotest.(check int) (item ^ ": one encode build") 1 (List.length encodes);
          let under (e : Obs.span) =
            List.exists
              (fun (s : Obs.span) -> s.Obs.parent = e.Obs.id && s.Obs.name = "sort.runs")
              spans
          in
          Alcotest.(check bool) (item ^ ": encode sorts") sorts (List.exists under encodes))
        [ ("rank()", false); ("lead(x)", false); ("median(x)", true) ])

(* With tracing disabled, EXPLAIN ANALYZE and a plain query agree cell for
   cell, and explain_analyze_trace leaves tracing in the state it found it. *)
let test_disabled_parity () =
  Obs.disable ();
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun q ->
          let plain = Sql.query ~pool ~tables:[ ("t", table ()) ] q in
          let traced, _ = Sql.explain_analyze_trace ~pool ~tables:[ ("t", table ()) ] q in
          Alcotest.(check bool) "tracing left disabled" false (Obs.tracing ());
          Alcotest.(check (list string)) "columns"
            (Table.column_names plain) (Table.column_names traced);
          List.iter
            (fun name ->
              let cp = Table.column plain name and ct = Table.column traced name in
              for r = 0 to Table.nrows plain - 1 do
                if not (Value.equal (Column.get cp r) (Column.get ct r)) then
                  Alcotest.failf "query %s: row %d col %s differs" q r name
              done)
            (Table.column_names plain))
        [ q1; q2 ])

(* A logged query inside an outer capture leaves its spans in the outer
   trace, under the outer span. *)
let test_query_log_in_outer_capture () =
  let path = Filename.temp_file "holiwin_qlog_outer" ".jsonl" in
  let sink = Sql.Query_stats.Log.open_ path in
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "outer" (fun () -> ignore (Sql.query ~pool:Shared_pool.pool ~query_log:sink ~tables:[ ("t", table ()) ] q1)))
  in
  Sql.Query_stats.Log.close sink;
  Sys.remove path;
  let find name = List.find_opt (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  match (find "outer", find "sql.query") with
  | Some outer, Some query ->
      Alcotest.(check int) "sql.query under the outer span" outer.Obs.id query.Obs.parent;
      Alcotest.(check bool) "the plan's spans too" true (find "window_plan" <> None)
  | _ -> Alcotest.failf "outer trace lacks the query's spans: %s" (String.concat ", " (span_names tr))

let untimed counters =
  List.filter (fun (n, _) -> not (String.ends_with ~suffix:"_ns" n)) counters

(* Two domains, each with its own pool, run different windowed queries
   under captures that are open at the same time.  Each trace counts
   exactly what its statement counts when run alone, and together they
   account for every increment of the process-wide registry (idle
   pool.wait_ns belongs to no capture).  Each run gets a fresh table: a
   sort of all of a table's rows leaves order codes in its column, so a
   second run over the same table would count less work. *)
let test_concurrent_captures () =
  let n = 3000 in
  let big () =
    Table.create
      [
        ("g", Column.ints (Array.init n (fun i -> i mod 5)));
        ("x", Column.ints (Array.init n (fun i -> i * 7919 mod n)));
      ]
  in
  let qb =
    "select median(x) over (partition by g order by x rows between 5 preceding and current row) \
     as m, count(*) over (order by x) as c from t"
  in
  let statements = [| ((fun () -> [ ("t", table ()) ]), q1); ((fun () -> [ ("t", big ()) ]), qb) |] in
  let with_own_pool f =
    let pool = Task_pool.create 1 in
    Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) (fun () -> f pool)
  in
  let alone =
    Array.map
      (fun (tables, q) ->
        with_own_pool (fun pool ->
            let tables = tables () in
            (snd (Obs.with_capture (fun () -> ignore (Sql.query ~pool ~tables q)))).Obs.counters))
      statements
  in
  let opened = barrier 2 and ran = barrier 2 in
  let captured i () =
    let tables, q = statements.(i) in
    let tables = tables () in
    with_own_pool (fun pool ->
        snd
          (Obs.with_capture (fun () ->
               opened ();
               ignore (Sql.query ~pool ~tables q);
               ran ())))
  in
  let before = Obs.Counter.snapshot () in
  let b = Domain.spawn (captured 1) in
  let ta = captured 0 () in
  let tb = Domain.join b in
  let after = Obs.Counter.snapshot () in
  let counts = Alcotest.(list (pair string int)) in
  Alcotest.check counts "A counts what its statement counts alone" (untimed alone.(0))
    (untimed ta.Obs.counters);
  Alcotest.check counts "B counts what its statement counts alone" (untimed alone.(1))
    (untimed tb.Obs.counters);
  let global =
    List.filter_map
      (fun (name, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt name before) in
        if d = 0 || name = "pool.wait_ns" then None else Some (name, d))
      after
  in
  let summed =
    List.sort_uniq String.compare (List.map fst (ta.Obs.counters @ tb.Obs.counters))
    |> List.filter_map (fun name ->
           let get tr = Option.value ~default:0 (counter name tr) in
           let v = get ta + get tb in
           if v = 0 then None else Some (name, v))
  in
  Alcotest.check counts "the captures sum to the registry's delta" global summed

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "monotonic clock" `Quick test_now_ns;
          Alcotest.test_case "span nesting and args" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
          Alcotest.test_case "annotate" `Quick test_annotate;
          Alcotest.test_case "counters: gating, registry, deltas" `Quick test_counters;
          Alcotest.test_case "with_capture restores state" `Quick test_with_capture_restores;
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "render aggregates siblings" `Quick test_render_aggregates;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
        ] );
      ( "capture",
        [
          Alcotest.test_case "overlapping captures on two domains" `Quick test_overlapping_captures;
          Alcotest.test_case "worker spans under their submitter" `Quick test_worker_spans_parented;
          Alcotest.test_case "distinct builds under the item span" `Quick test_distinct_build_spans;
          Alcotest.test_case "lead builds one tree" `Quick test_lead_builds_one_tree;
          Alcotest.test_case "query log inside an outer capture" `Quick
            test_query_log_in_outer_capture;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket layout" `Quick test_hist_buckets;
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "registry, captures, reset" `Quick test_hist_registry;
          Alcotest.test_case "histograms in traces" `Quick test_hists_in_trace;
        ] );
      ( "memory",
        [
          Alcotest.test_case "record_bytes attribution" `Quick test_record_bytes;
          Alcotest.test_case "GC sampling per span" `Quick test_gc_sampling;
          Alcotest.test_case "GC sampling is domain-local" `Quick test_gc_sampling_domain_local;
          Alcotest.test_case "self_totals" `Quick test_self_totals;
          Alcotest.test_case "footprint parity (64-bit MST)" `Quick test_footprint_parity;
        ] );
      ( "per-capture counters",
        [
          Alcotest.test_case "pool tasks" `Quick test_pool_stats;
          Alcotest.test_case "pool tasks follow their submitter" `Quick test_pool_attribution;
          Alcotest.test_case "concurrent captures" `Quick test_concurrent_captures;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "golden: multi-OVER sharing" `Quick (golden_case q1 golden1);
          Alcotest.test_case "golden: where/project/order by" `Quick (golden_case q2 golden2);
          Alcotest.test_case "disabled-tracing parity" `Quick test_disabled_parity;
          Alcotest.test_case "encodes sort only off the window order" `Quick test_encode_sorts;
        ] );
    ]
