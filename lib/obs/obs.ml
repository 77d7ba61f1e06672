external now_ns : unit -> int = "holistic_obs_now_ns" [@@noalloc]

module Json = Holistic_util.Json

type span = {
  id : int;
  parent : int;
  name : string;
  tid : int;
  t0_ns : int;
  mutable dur_ns : int;
  mutable args : (string * string) list;
  mutable alloc_w : int;
  mutable promoted_w : int;
  mutable majors : int;
  mutable bytes : int;
}

(* The enabled flag is the whole fast-path contract: every tracing entry
   point loads it first and bails, so a disabled build pays one atomic
   read (a plain load on x86/arm) and whatever closures the call site
   itself allocates. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* Bounded global buffer of finished-or-running spans, newest first.  A
   mutex (not a lock-free structure) is fine here: spans are recorded at
   partition/stage granularity, never per row. *)
let buf_mutex = Mutex.create ()
let buf : span list ref = ref []
let buf_len = ref 0
let buf_dropped = ref 0
let max_spans = 1 lsl 18
let next_id = Atomic.make 0

let record s =
  Mutex.lock buf_mutex;
  if !buf_len >= max_spans then incr buf_dropped
  else begin
    buf := s :: !buf;
    incr buf_len
  end;
  Mutex.unlock buf_mutex

(* Per-domain stack of open spans, for parent links and [annotate]. *)
let stack_key : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let span ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> -1 | p :: _ -> p.id in
    let s =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent;
        name;
        tid = (Domain.self () :> int);
        t0_ns = now_ns ();
        dur_ns = 0;
        args = [];
        alloc_w = 0;
        promoted_w = 0;
        majors = 0;
        bytes = 0;
      }
    in
    (* Recorded at start so nesting order in the buffer is start order
       (parents strictly before children), which [render] relies on. *)
    record s;
    stack := s :: !stack;
    (* GC deltas are sampled only inside the enabled branch, keeping the
       one-atomic-load disabled contract.  [Gc.minor_words] reads the
       domain's precise allocation pointer ([Gc.quick_stat]'s minor tally
       only advances at minor collections, which would attribute whole
       minor heaps to whichever span a collection lands in); the major
       and promotion tallies come from [quick_stat].  Neither forces a
       collection.  Work that the span offloads to pool workers on other
       domains is attributed to those workers' spans, not to this one. *)
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let finish () =
      s.dur_ns <- now_ns () - s.t0_ns;
      let minor = Gc.minor_words () -. m0 in
      let g1 = Gc.quick_stat () in
      let major = g1.Gc.major_words -. g0.Gc.major_words in
      let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
      (* words freshly allocated: minor + direct-to-major, not counting
         promotions twice (promoted words appear in both tallies) *)
      s.alloc_w <- int_of_float (minor +. major -. promoted);
      s.promoted_w <- int_of_float promoted;
      s.majors <- g1.Gc.major_collections - g0.Gc.major_collections;
      (match args with None -> () | Some g -> s.args <- s.args @ g ());
      match !stack with _ :: tl -> stack := tl | [] -> ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let annotate kvs =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get stack_key) with
    | s :: _ -> s.args <- s.args @ kvs
    | [] -> ()

let record_bytes f =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get stack_key) with
    | s :: _ -> s.bytes <- s.bytes + f ()
    | [] -> ()

module Counter = struct
  type t = { name : string; mutable help : string; cell : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let reg_mutex = Mutex.create ()

  let make ?(help = "") name =
    Mutex.lock reg_mutex;
    let c =
      match Hashtbl.find_opt registry name with
      | Some c ->
          if help <> "" then c.help <- help;
          c
      | None ->
          let c = { name; help; cell = Atomic.make 0 } in
          Hashtbl.add registry name c;
          c
    in
    Mutex.unlock reg_mutex;
    c

  let name c = c.name
  let help c = c.help
  let add_always c n = if n <> 0 then ignore (Atomic.fetch_and_add c.cell n)
  let add c n = if Atomic.get enabled_flag then add_always c n
  let incr c = add c 1
  let value c = Atomic.get c.cell
  let set c v = Atomic.set c.cell v

  let snapshot () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun n c acc -> (n, Atomic.get c.cell) :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.sort (fun (a, _) (b, _) -> String.compare a b) all

  let reset_all () =
    Mutex.lock reg_mutex;
    Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry;
    Mutex.unlock reg_mutex

  let inventory () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun n c acc -> (n, c.help, Atomic.get c.cell) :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) all
end

(* Pull-model gauges: a registered name plus a sampling callback, read
   only at snapshot time.  Unlike counters and histograms nothing in the
   query path ever touches a gauge, so their disabled-mode cost is
   exactly zero.  Re-registering a name replaces the callback — a fresh
   [Session] takes over the session.* gauges from a previous one (the CLI
   runs one session per process; with several, the scrape reflects the
   most recently created). *)
module Gauge = struct
  type t = { name : string; mutable help : string; mutable read : unit -> int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let reg_mutex = Mutex.create ()

  let register ?(help = "") name read =
    Mutex.lock reg_mutex;
    let g =
      match Hashtbl.find_opt registry name with
      | Some g ->
          if help <> "" then g.help <- help;
          g.read <- read;
          g
      | None ->
          let g = { name; help; read } in
          Hashtbl.add registry name g;
          g
    in
    Mutex.unlock reg_mutex;
    g

  let name g = g.name
  let help g = g.help

  (* A gauge whose callback raises reads as 0 rather than poisoning the
     whole scrape (e.g. a callback closed over a resource that has since
     been torn down). *)
  let value g = try g.read () with _ -> 0

  let entries () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun _ g acc -> g :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.sort (fun a b -> String.compare a.name b.name) all

  (* Callbacks are sampled outside the registry mutex so a callback that
     itself registers a gauge cannot deadlock. *)
  let snapshot () = List.map (fun g -> (g.name, value g)) (entries ())

  let inventory () = List.map (fun g -> (g.name, g.help, value g)) (entries ())
end

module Histogram = struct
  (* Log-bucketed histogram, HDR-style with 16 sub-buckets per octave:
     values 0..15 are exact; a value v >= 16 with most-significant bit p
     lands in bucket 16*(p-3) + the next four bits below the MSB.  The
     relative quantisation error is therefore < 1/16 ≈ 6%, buckets are
     computed with two shifts and a mask, and 960 buckets cover the whole
     non-negative [int] range.  Quantiles are reported as the *lower
     bound* of the bucket the quantile falls in, so they never
     over-report. *)
  let bucket_count = 960

  let bucket_of_value v =
    if v < 16 then if v < 0 then 0 else v
    else begin
      let p = ref 4 in
      while v lsr (!p + 1) > 0 do
        incr p
      done;
      (16 * (!p - 3)) + ((v lsr (!p - 4)) land 15)
    end

  let bucket_lower_bound b =
    if b < 16 then b
    else begin
      let p = (b / 16) + 3 and sub = b mod 16 in
      (16 + sub) lsl (p - 4)
    end

  type t = {
    name : string;
    mutable help : string;
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
    lock : Mutex.t;
  }

  type summary = {
    count : int;
    sum : int;
    min : int;
    max : int;
    p50 : int;
    p90 : int;
    p99 : int;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let reg_mutex = Mutex.create ()

  let make ?(help = "") name =
    Mutex.lock reg_mutex;
    let h =
      match Hashtbl.find_opt registry name with
      | Some h ->
          if help <> "" then h.help <- help;
          h
      | None ->
          let h =
            {
              name;
              help;
              counts = Array.make bucket_count 0;
              n = 0;
              sum = 0;
              min_v = max_int;
              max_v = min_int;
              lock = Mutex.create ();
            }
          in
          Hashtbl.add registry name h;
          h
    in
    Mutex.unlock reg_mutex;
    h

  let name h = h.name
  let help h = h.help

  let add_always h v =
    let v = if v < 0 then 0 else v in
    Mutex.lock h.lock;
    let b = bucket_of_value v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v;
    Mutex.unlock h.lock

  let add h v = if Atomic.get enabled_flag then add_always h v

  let count h = h.n

  (* Smallest recorded value whose cumulative count reaches [q * n],
     reported as its bucket's lower bound (exact for values < 16).
     Factored over raw bucket state so the windowed variant below can
     reuse the exact same arithmetic on merged slot counts. *)
  let quantile_of ~counts ~n ~min_v ~max_v q =
    if n = 0 then 0
    else begin
      let target =
        let t = int_of_float (ceil (q *. float_of_int n)) in
        if t < 1 then 1 else if t > n then n else t
      in
      let acc = ref 0 and b = ref 0 and found = ref (bucket_count - 1) in
      (try
         while !b < bucket_count do
           acc := !acc + counts.(!b);
           if !acc >= target then begin
             found := !b;
             raise Exit
           end;
           incr b
         done
       with Exit -> ());
      let lo = bucket_lower_bound !found in
      if lo > max_v then max_v else if lo < min_v then min_v else lo
    end

  let quantile_locked h q = quantile_of ~counts:h.counts ~n:h.n ~min_v:h.min_v ~max_v:h.max_v q

  let quantile h q =
    Mutex.lock h.lock;
    let v = quantile_locked h q in
    Mutex.unlock h.lock;
    v

  let summary_of ~counts ~n ~sum ~min_v ~max_v =
    {
      count = n;
      sum;
      min = (if n = 0 then 0 else min_v);
      max = (if n = 0 then 0 else max_v);
      p50 = quantile_of ~counts ~n ~min_v ~max_v 0.50;
      p90 = quantile_of ~counts ~n ~min_v ~max_v 0.90;
      p99 = quantile_of ~counts ~n ~min_v ~max_v 0.99;
    }

  let summarise_locked h = summary_of ~counts:h.counts ~n:h.n ~sum:h.sum ~min_v:h.min_v ~max_v:h.max_v

  let summary h =
    Mutex.lock h.lock;
    let s = summarise_locked h in
    Mutex.unlock h.lock;
    s

  let merge ~into src =
    if into != src then begin
      Mutex.lock src.lock;
      let counts = Array.copy src.counts in
      let n = src.n and sum = src.sum and min_v = src.min_v and max_v = src.max_v in
      Mutex.unlock src.lock;
      Mutex.lock into.lock;
      Array.iteri (fun b c -> into.counts.(b) <- into.counts.(b) + c) counts;
      into.n <- into.n + n;
      into.sum <- into.sum + sum;
      if min_v < into.min_v then into.min_v <- min_v;
      if max_v > into.max_v then into.max_v <- max_v;
      Mutex.unlock into.lock
    end

  let reset h =
    Mutex.lock h.lock;
    Array.fill h.counts 0 bucket_count 0;
    h.n <- 0;
    h.sum <- 0;
    h.min_v <- max_int;
    h.max_v <- min_int;
    Mutex.unlock h.lock

  let snapshot () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun n h acc -> (n, h) :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.filter_map
      (fun (n, h) -> if h.n = 0 then None else Some (n, summary h))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) all)

  let reset_all () =
    Mutex.lock reg_mutex;
    Hashtbl.iter (fun _ h -> reset h) registry;
    Mutex.unlock reg_mutex

  let inventory () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun n h acc -> (n, h) :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.map
      (fun (n, h) -> (n, h.help, summary h))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) all)
end

(* Sliding-window histograms: a ring of [slots] log-bucketed histograms,
   each covering one fixed slice of the window (a span of nanoseconds or
   of recorded events).  Recording lands in the slice the sample belongs
   to; when the ring wraps onto an expired slice, that slice's buckets
   are zeroed in one O(bucket_count) pass — the same wholesale-eviction
   idea the engine's own sliding frames use (bulk evictions instead of
   per-sample deletions), applied to its latency stream.  Summaries merge
   only the slices still inside the window, so quantiles cover "the last
   N seconds" / "the last k queries" with at most one slice of slack.
   [add] keeps the one-atomic-load disabled contract of {!Counter.add}. *)
module Windowed_histogram = struct
  type window = Last_ns of int | Last_events of int

  type t = {
    name : string;
    mutable help : string;
    window : window;
    slots : int;
    per_slot : int;  (* ns or events covered by one slot *)
    counts : int array;  (* slots * bucket_count, flattened *)
    slot_n : int array;
    slot_sum : int array;
    slot_min : int array;
    slot_max : int array;
    slot_gen : int array;  (* absolute slice index held by each ring slot, -1 empty *)
    mutable events : int;  (* total adds ever; drives event-based windows *)
    mutable evicted : int;  (* expired slices bulk-zeroed so far *)
    lock : Mutex.t;
  }

  let bucket_count = Histogram.bucket_count

  let registry : (string, t) Hashtbl.t = Hashtbl.create 8
  let reg_mutex = Mutex.create ()

  let make ?(help = "") ?(slots = 16) ~window name =
    Mutex.lock reg_mutex;
    let w =
      match Hashtbl.find_opt registry name with
      | Some w ->
          if help <> "" then w.help <- help;
          w
      | None ->
          let slots = max 2 slots in
          let span = match window with Last_ns n -> n | Last_events n -> n in
          let w =
            {
              name;
              help;
              window;
              slots;
              per_slot = max 1 (span / slots);
              counts = Array.make (slots * bucket_count) 0;
              slot_n = Array.make slots 0;
              slot_sum = Array.make slots 0;
              slot_min = Array.make slots max_int;
              slot_max = Array.make slots min_int;
              slot_gen = Array.make slots (-1);
              events = 0;
              evicted = 0;
              lock = Mutex.create ();
            }
          in
          Hashtbl.add registry name w;
          w
    in
    Mutex.unlock reg_mutex;
    w

  let name w = w.name
  let help w = w.help
  let window w = w.window

  let window_label w =
    match w.window with
    | Last_events n -> Printf.sprintf "%dev" n
    | Last_ns n ->
        if n mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (n / 1_000_000_000)
        else Printf.sprintf "%dms" (n / 1_000_000)

  (* Absolute slice index a new sample belongs to, given the clock (time
     windows) or the running event count (event windows). *)
  let slice_of_add w ~now_ns = match w.window with
    | Last_ns _ -> now_ns / w.per_slot
    | Last_events _ -> w.events / w.per_slot

  (* Newest slice that can still hold live data at summary time.  For
     event windows time does not age data out: the newest slice is the
     one of the most recent add. *)
  let slice_of_now w ~now_ns = match w.window with
    | Last_ns _ -> now_ns / w.per_slot
    | Last_events _ -> if w.events = 0 then -1 else (w.events - 1) / w.per_slot

  let evict_slot w ring =
    Array.fill w.counts (ring * bucket_count) bucket_count 0;
    w.slot_n.(ring) <- 0;
    w.slot_sum.(ring) <- 0;
    w.slot_min.(ring) <- max_int;
    w.slot_max.(ring) <- min_int;
    w.evicted <- w.evicted + 1

  let add_always_at w ~now_ns v =
    let v = if v < 0 then 0 else v in
    Mutex.lock w.lock;
    let slice = slice_of_add w ~now_ns in
    let ring = slice mod w.slots in
    if w.slot_gen.(ring) <> slice then begin
      if w.slot_gen.(ring) >= 0 then evict_slot w ring;
      w.slot_gen.(ring) <- slice
    end;
    let b = Histogram.bucket_of_value v in
    w.counts.((ring * bucket_count) + b) <- w.counts.((ring * bucket_count) + b) + 1;
    w.slot_n.(ring) <- w.slot_n.(ring) + 1;
    w.slot_sum.(ring) <- w.slot_sum.(ring) + v;
    if v < w.slot_min.(ring) then w.slot_min.(ring) <- v;
    if v > w.slot_max.(ring) then w.slot_max.(ring) <- v;
    w.events <- w.events + 1;
    Mutex.unlock w.lock

  let add_always w v = add_always_at w ~now_ns:(now_ns ()) v
  let add w v = if Atomic.get enabled_flag then add_always w v

  (* Merge the live slices into one flat bucket array under the lock. *)
  let merge_live w ~now_ns =
    Mutex.lock w.lock;
    let newest = slice_of_now w ~now_ns in
    let oldest_live = newest - w.slots + 1 in
    let merged = Array.make bucket_count 0 in
    let n = ref 0 and sum = ref 0 and min_v = ref max_int and max_v = ref min_int in
    for ring = 0 to w.slots - 1 do
      let gen = w.slot_gen.(ring) in
      if gen >= oldest_live && gen <= newest && w.slot_n.(ring) > 0 then begin
        let base = ring * bucket_count in
        for b = 0 to bucket_count - 1 do
          merged.(b) <- merged.(b) + w.counts.(base + b)
        done;
        n := !n + w.slot_n.(ring);
        sum := !sum + w.slot_sum.(ring);
        if w.slot_min.(ring) < !min_v then min_v := w.slot_min.(ring);
        if w.slot_max.(ring) > !max_v then max_v := w.slot_max.(ring)
      end
    done;
    Mutex.unlock w.lock;
    (merged, !n, !sum, !min_v, !max_v)

  let summary_at w ~now_ns =
    let counts, n, sum, min_v, max_v = merge_live w ~now_ns in
    Histogram.summary_of ~counts ~n ~sum ~min_v ~max_v

  let summary w = summary_at w ~now_ns:(now_ns ())

  let quantile_at w ~now_ns q =
    let counts, n, _, min_v, max_v = merge_live w ~now_ns in
    Histogram.quantile_of ~counts ~n ~min_v ~max_v q

  let quantile w q = quantile_at w ~now_ns:(now_ns ()) q
  let events w = w.events
  let evictions w = w.evicted

  let reset w =
    Mutex.lock w.lock;
    Array.fill w.counts 0 (w.slots * bucket_count) 0;
    Array.fill w.slot_n 0 w.slots 0;
    Array.fill w.slot_sum 0 w.slots 0;
    Array.fill w.slot_min 0 w.slots max_int;
    Array.fill w.slot_max 0 w.slots min_int;
    Array.fill w.slot_gen 0 w.slots (-1);
    w.events <- 0;
    w.evicted <- 0;
    Mutex.unlock w.lock

  let entries () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun _ w acc -> w :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.sort (fun a b -> String.compare a.name b.name) all

  let snapshot () =
    List.filter_map
      (fun w ->
        let s = summary w in
        if s.Histogram.count = 0 then None else Some (w.name, s))
      (entries ())

  let inventory () = List.map (fun w -> (w.name, w.help, window_label w, summary w)) (entries ())

  let reset_all () = List.iter reset (entries ())
end

type trace = {
  spans : span list;
  counters : (string * int) list;
  hists : (string * Histogram.summary) list;
  dropped : int;
}

let capture () =
  Mutex.lock buf_mutex;
  let spans = List.rev !buf and dropped = !buf_dropped in
  Mutex.unlock buf_mutex;
  let counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ()) in
  { spans; counters; hists = Histogram.snapshot (); dropped }

let reset () =
  Mutex.lock buf_mutex;
  buf := [];
  buf_len := 0;
  buf_dropped := 0;
  Mutex.unlock buf_mutex;
  Counter.reset_all ();
  Histogram.reset_all ()

let with_capture f =
  let was = enabled () in
  reset ();
  enable ();
  let restore () = if not was then disable () in
  match f () with
  | v ->
      let t = capture () in
      restore ();
      (v, t)
  | exception e ->
      restore ();
      raise e

let totals tr =
  let order = ref [] in
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.add tbl s.name (1, s.dur_ns)
      | Some (c, d) -> Hashtbl.replace tbl s.name (c + 1, d + s.dur_ns))
    tr.spans;
  List.rev_map
    (fun n ->
      let c, d = Hashtbl.find tbl n in
      (n, (c, float_of_int d *. 1e-9)))
    !order

let self_totals tr =
  (* Duration of each span's *direct* children, by parent id; a span's
     self time is its duration minus that, clamped at zero (clock skew
     between nested reads can make the sum overshoot by a few ns). *)
  let child_ns : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = match Hashtbl.find_opt child_ns s.parent with Some d -> d | None -> 0 in
        Hashtbl.replace child_ns s.parent (prev + s.dur_ns))
    tr.spans;
  let order = ref [] in
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let nested = match Hashtbl.find_opt child_ns s.id with Some d -> d | None -> 0 in
      let self = max 0 (s.dur_ns - nested) in
      match Hashtbl.find_opt tbl s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.add tbl s.name (1, self)
      | Some (c, d) -> Hashtbl.replace tbl s.name (c + 1, d + self))
    tr.spans;
  List.rev_map
    (fun n ->
      let c, d = Hashtbl.find tbl n in
      (n, (c, float_of_int d *. 1e-9)))
    !order

(* --- rendering ------------------------------------------------------- *)

let ms ns = Printf.sprintf "%.3f ms" (float_of_int ns /. 1e6)

let human_bytes b =
  if b < 1024 then Printf.sprintf "%d B" b
  else if b < 1024 * 1024 then Printf.sprintf "%.1f KB" (float_of_int b /. 1024.0)
  else if b < 1024 * 1024 * 1024 then Printf.sprintf "%.1f MB" (float_of_int b /. (1024.0 *. 1024.0))
  else Printf.sprintf "%.1f GB" (float_of_int b /. (1024.0 *. 1024.0 *. 1024.0))

let args_to_string = function
  | [] -> ""
  | kvs -> " {" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"

let render tr =
  let b = Buffer.create 1024 in
  (* children grouped under their parent, in start order; a parent always
     precedes its children in [tr.spans], so one pass suffices.  Spans
     whose parent fell out of the bounded buffer render as roots. *)
  let known = Hashtbl.create 64 in
  let children : (int, span list ref) Hashtbl.t = Hashtbl.create 64 in
  let kids id = match Hashtbl.find_opt children id with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add children id r;
        r
  in
  List.iter
    (fun s ->
      Hashtbl.replace known s.id ();
      let parent = if s.parent >= 0 && Hashtbl.mem known s.parent then s.parent else -1 in
      let r = kids parent in
      r := s :: !r)
    tr.spans;
  let children_of id = List.rev !(kids id) in
  (* Sibling spans with the same (name, args) — e.g. one span per
     partition — aggregate into a single line with a xN multiplicity, so
     the rendering is deterministic whatever the partition count. *)
  let rec emit depth spans =
    let seen = ref [] in
    let groups : (string, span list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let key = s.name ^ "\x00" ^ String.concat "\x00" (List.concat_map (fun (k, v) -> [ k; v ]) s.args) in
        match Hashtbl.find_opt groups key with
        | Some r -> r := s :: !r
        | None ->
            Hashtbl.add groups key (ref [ s ]);
            seen := key :: !seen)
      spans;
    List.iter
      (fun key ->
        let members = List.rev !(Hashtbl.find groups key) in
        let head = List.hd members in
        let count = List.length members in
        let total = List.fold_left (fun acc s -> acc + s.dur_ns) 0 members in
        let bytes = List.fold_left (fun acc s -> acc + s.bytes) 0 members in
        let alloc = List.fold_left (fun acc s -> acc + s.alloc_w) 0 members in
        let label =
          head.name ^ args_to_string head.args
          ^ if count > 1 then Printf.sprintf " x%d" count else ""
        in
        let indent = String.make (2 * depth) ' ' in
        let line = indent ^ label in
        let pad = max 1 (56 - String.length line) in
        (* memory columns: structure bytes are deterministic (exact
           arithmetic or reachable-word counts of built structures, via
           [record_bytes]); allocated words are maskable like times. *)
        let mem = if bytes = 0 then "-" else human_bytes bytes in
        let alloc_s = Printf.sprintf "%.1f kw" (float_of_int alloc /. 1e3) in
        Buffer.add_string b
          (line ^ String.make pad ' '
          ^ Printf.sprintf "%12s %10s %12s" (ms total) mem alloc_s
          ^ "\n");
        emit (depth + 1) (List.concat_map (fun s -> children_of s.id) members))
      (List.rev !seen)
  in
  emit 0 (children_of (-1));
  if tr.counters <> [] then begin
    Buffer.add_string b "counters\n";
    List.iter
      (fun (n, v) ->
        let shown =
          (* nanosecond-valued counters render in the same maskable
             millisecond format as span times *)
          if String.length n > 3 && String.sub n (String.length n - 3) 3 = "_ns" then
            Printf.sprintf "%12s" (ms v)
          else Printf.sprintf "%12d" v
        in
        let line = "  " ^ n in
        let pad = max 1 (56 - String.length line) in
        Buffer.add_string b (line ^ String.make pad ' ' ^ shown ^ "\n"))
      tr.counters
  end;
  if tr.hists <> [] then begin
    Buffer.add_string b "histograms\n";
    List.iter
      (fun (n, (s : Histogram.summary)) ->
        let is_ns = String.length n > 3 && String.sub n (String.length n - 3) 3 = "_ns" in
        let v x = if is_ns then ms x else string_of_int x in
        let line = "  " ^ n in
        let pad = max 1 (56 - String.length line) in
        Buffer.add_string b
          (line ^ String.make pad ' '
          ^ Printf.sprintf "n=%d p50=%s p90=%s p99=%s max=%s" s.Histogram.count
              (v s.Histogram.p50) (v s.Histogram.p90) (v s.Histogram.p99) (v s.Histogram.max)
          ^ "\n"))
      tr.hists
  end;
  if tr.dropped > 0 then
    Buffer.add_string b (Printf.sprintf "(%d spans dropped: buffer full)\n" tr.dropped);
  Buffer.contents b

(* --- Chrome trace_event export --------------------------------------- *)

let to_chrome_json tr =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ',' in
  let t_base = match tr.spans with [] -> 0 | s :: _ -> s.t0_ns in
  let last_ts = ref 0.0 in
  List.iter
    (fun s ->
      sep ();
      let ts = float_of_int (s.t0_ns - t_base) /. 1e3 in
      let dur = float_of_int s.dur_ns /. 1e3 in
      if ts +. dur > !last_ts then last_ts := ts +. dur;
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"holistic\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
           (Json.escape s.name) s.tid ts dur);
      let args =
        s.args
        @ (if s.alloc_w > 0 then [ ("alloc_kw", Printf.sprintf "%.1f" (float_of_int s.alloc_w /. 1e3)) ] else [])
        @ (if s.bytes > 0 then [ ("bytes", string_of_int s.bytes) ] else [])
        @ if s.majors > 0 then [ ("major_gcs", string_of_int s.majors) ] else []
      in
      if args <> [] then begin
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
          args;
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}')
    tr.spans;
  List.iter
    (fun (n, v) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{\"value\":%d}}"
           (Json.escape n) !last_ts v))
    tr.counters;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome_trace path tr =
  let oc = open_out path in
  output_string oc (to_chrome_json tr);
  close_out oc

(* Clear only the span buffer, leaving cumulative counters, histograms and
   windowed histograms untouched — the query-log collector enables tracing
   per query and must not wipe the process-lifetime registries the metrics
   endpoint exports (unlike [reset]). *)
let clear_spans () =
  Mutex.lock buf_mutex;
  buf := [];
  buf_len := 0;
  buf_dropped := 0;
  Mutex.unlock buf_mutex

(* Live memory gauge: major-heap size sampled at scrape time.  Cheap
   ([Gc.quick_stat] reads tallies, no heap walk) and genuinely current,
   unlike the cumulative [mem.structure_bytes] counter. *)
let _heap_gauge =
  Gauge.register ~help:"Major heap bytes currently held by the runtime" "mem.heap_bytes"
    (fun () -> (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))

(* --- metrics snapshot & export --------------------------------------- *)

module Metrics = struct
  type t = {
    counters : (string * string * int) list;
    gauges : (string * string * int) list;
    histograms : (string * string * Histogram.summary) list;
    windows : (string * string * string * Histogram.summary) list;
  }

  let snapshot () =
    {
      counters = Counter.inventory ();
      gauges = Gauge.inventory ();
      histograms = Histogram.inventory ();
      windows = Windowed_histogram.inventory ();
    }

  let filter pred s =
    {
      counters = List.filter (fun (n, _, _) -> pred n) s.counters;
      gauges = List.filter (fun (n, _, _) -> pred n) s.gauges;
      histograms = List.filter (fun (n, _, _) -> pred n) s.histograms;
      windows = List.filter (fun (n, _, _, _) -> pred n) s.windows;
    }

  (* Every (kind, name, help) in the snapshot — the help-string lint
     iterates this. *)
  let inventory s =
    List.map (fun (n, h, _) -> ("counter", n, h)) s.counters
    @ List.map (fun (n, h, _) -> ("gauge", n, h)) s.gauges
    @ List.map (fun (n, h, _) -> ("histogram", n, h)) s.histograms
    @ List.map (fun (n, h, _, _) -> ("windowed_histogram", n, h)) s.windows

  (* Dotted registry names become a legal Prometheus metric name under a
     common prefix: [cache.hit] -> [holiwin_cache_hit]. *)
  let prom_name n =
    "holiwin_"
    ^ String.map
        (fun c ->
          match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
        n

  let prom_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_prometheus ?stamp_ms s =
    let b = Buffer.create 4096 in
    (match stamp_ms with
    | Some ms -> Buffer.add_string b (Printf.sprintf "# holiwin metrics snapshot unix_ms=%d\n" ms)
    | None -> ());
    let header name help ty =
      if help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (prom_escape help));
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty)
    in
    List.iter
      (fun (n, h, v) ->
        let pn = prom_name n in
        header pn h "counter";
        Buffer.add_string b (Printf.sprintf "%s %d\n" pn v))
      s.counters;
    List.iter
      (fun (n, h, v) ->
        let pn = prom_name n in
        header pn h "gauge";
        Buffer.add_string b (Printf.sprintf "%s %d\n" pn v))
      s.gauges;
    let summary_lines pn labels (sm : Histogram.summary) =
      let lbl extra =
        match labels @ extra with
        | [] -> ""
        | kvs ->
            "{"
            ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
            ^ "}"
      in
      List.iter
        (fun (q, v) ->
          Buffer.add_string b (Printf.sprintf "%s%s %d\n" pn (lbl [ ("quantile", q) ]) v))
        [ ("0.5", sm.Histogram.p50); ("0.9", sm.Histogram.p90); ("0.99", sm.Histogram.p99) ];
      Buffer.add_string b (Printf.sprintf "%s_sum%s %d\n" pn (lbl []) sm.Histogram.sum);
      Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" pn (lbl []) sm.Histogram.count)
    in
    List.iter
      (fun (n, h, sm) ->
        let pn = prom_name n in
        header pn h "summary";
        summary_lines pn [] sm)
      s.histograms;
    List.iter
      (fun (n, h, wl, sm) ->
        let pn = prom_name n in
        header pn h "summary";
        summary_lines pn [ ("window", wl) ] sm)
      s.windows;
    Buffer.contents b

  let to_json ?stamp_ms s =
    let open Json in
    let scalar (n, h, v) = (n, J_obj [ ("help", J_string h); ("value", J_int v) ]) in
    let summary window (n, h, (sm : Histogram.summary)) =
      ( n,
        J_obj
          ((("help", J_string h) :: Option.to_list (Option.map (fun w -> ("window", J_string w)) window))
          @ List.map
              (fun (k, v) -> (k, J_int v))
              Histogram.
                [
                  ("count", sm.count);
                  ("sum", sm.sum);
                  ("min", sm.min);
                  ("max", sm.max);
                  ("p50", sm.p50);
                  ("p90", sm.p90);
                  ("p99", sm.p99);
                ]) )
    in
    to_string
      (J_obj
         ((("schema", J_string "holiwin-metrics/1")
          :: Option.to_list (Option.map (fun ms -> ("taken_unix_ms", J_int ms)) stamp_ms))
         @ [
             ("counters", J_obj (List.map scalar s.counters));
             ("gauges", J_obj (List.map scalar s.gauges));
             ("histograms", J_obj (List.map (summary None) s.histograms));
             ( "windows",
               J_obj (List.map (fun (n, h, wl, sm) -> summary (Some wl) (n, h, sm)) s.windows) );
           ]))
end
