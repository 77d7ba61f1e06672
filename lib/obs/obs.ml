external now_ns : unit -> int = "holistic_obs_now_ns" [@@noalloc]
external major_words : unit -> int = "holistic_obs_major_words" [@@noalloc]
external promoted_words : unit -> int = "holistic_obs_promoted_words" [@@noalloc]

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

(* Tracing is on while [enable] is set or any capture is open: bit 0 of
   [state] is the [enable] flag, the rest counts open captures (2 per
   capture), so overlapping captures never switch each other off and the
   whole fast-path contract stays one atomic load: every tracing entry
   point reads [state] first and bails, so a disabled build pays one
   atomic read (a plain load on x86/arm) and whatever closures the call
   site itself allocates. *)
let state = Atomic.make 0
let tracing () = Atomic.get state <> 0

let rec set_flag on =
  let s = Atomic.get state in
  let s' = if on then s lor 1 else s land lnot 1 in
  if s' <> s && not (Atomic.compare_and_set state s s') then set_flag on

let enable () = set_flag true
let disable () = set_flag false

(* Histogram cells, HDR-style log buckets with 16 sub-buckets per octave:
   values 0..15 are exact; a value v >= 16 with most-significant bit p
   lands in bucket 16*(p-3) + the next four bits below the MSB.  The
   relative quantisation error is therefore < 1/16 ≈ 6%, buckets are
   computed with two shifts and a mask, and 960 buckets cover the whole
   non-negative [int] range.  A registered histogram owns one set of
   cells; every capture that sees it record owns another. *)
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

type cells = {
  counts : int array;
  mutable n : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

let new_cells () =
  { counts = Array.make bucket_count 0; n = 0; total = 0; min_v = max_int; max_v = min_int }

let clear_cells c =
  Array.fill c.counts 0 bucket_count 0;
  c.n <- 0;
  c.total <- 0;
  c.min_v <- max_int;
  c.max_v <- min_int

let record_value c v =
  let b = bucket_of_value v in
  c.counts.(b) <- c.counts.(b) + 1;
  c.n <- c.n + 1;
  c.total <- c.total + v;
  if v < c.min_v then c.min_v <- v;
  if v > c.max_v then c.max_v <- v

(* A capture: its bounded span list, newest first, and its own counter and
   histogram cells, by name.  A mutex (not a lock-free structure) is fine
   here: pool workers handed the capture record into it too, but spans,
   counters and histograms are recorded at partition/stage granularity,
   never per row. *)
type capture = {
  lock : Mutex.t;
  mutable recorded : span list;
  mutable len : int;
  mutable lost : int;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, cells) Hashtbl.t;
  outer : capture option;  (* the capture this one nests in, which records everything it does too *)
}

let max_spans = 1 lsl 18
let next_id = Atomic.make 0

(* Per domain: the capture spans go to (opened here, or handed over with a
   pool task), the stack of open spans for parent links and [annotate],
   and the parent of a span opened on an empty stack (the submitting
   span, for a handed-over task). *)
type domain_state = { mutable cap : capture option; mutable stack : span list; mutable base : int }

let state_key = Domain.DLS.new_key (fun () -> { cap = None; stack = []; base = -1 })

(* [f cap], under [cap]'s lock, for every capture on this domain's chain:
   the one opened here or handed over with a pool task, and the captures
   it nests in. *)
let into_captures f =
  let rec go = function
    | None -> ()
    | Some cap ->
        Mutex.lock cap.lock;
        f cap;
        Mutex.unlock cap.lock;
        go cap.outer
  in
  go (Domain.DLS.get state_key).cap

(* A span records only with tracing on and a capture open on its domain. *)
let capturing () = Atomic.get state <> 0 && (Domain.DLS.get state_key).cap <> None

let span ?args name f =
  if not (capturing ()) then f ()
  else begin
    let st = Domain.DLS.get state_key in
    let parent = match st.stack with [] -> st.base | p :: _ -> p.id in
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
    (* Recorded at start so nesting order in the capture is start order
       (parents strictly before children), which [render] relies on. *)
    into_captures (fun cap ->
        if cap.len >= max_spans then cap.lost <- cap.lost + 1
        else begin
          cap.recorded <- s :: cap.recorded;
          cap.len <- cap.len + 1
        end);
    st.stack <- s :: st.stack;
    (* GC deltas are sampled only inside the enabled branch, keeping the
       one-atomic-load disabled contract.  [Gc.minor_words] reads the
       domain's precise allocation pointer ([Gc.quick_stat]'s minor tally
       only advances at minor collections, which would attribute whole
       minor heaps to whichever span a collection lands in);
       [major_words]/[promoted_words] likewise read this domain's own
       tallies ([quick_stat] sums every domain's, so another domain's
       allocations and promotions would land in this span); the
       major-collection count comes from [quick_stat].  None forces a collection.  Work that the span
       offloads to pool workers on other domains is attributed to those
       workers' spans, not to this one. *)
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let j0 = major_words () and p0 = promoted_words () in
    let finish () =
      s.dur_ns <- now_ns () - s.t0_ns;
      let minor = Gc.minor_words () -. m0 in
      let major = major_words () - j0 and promoted = promoted_words () - p0 in
      let g1 = Gc.quick_stat () in
      (* words freshly allocated: minor + direct-to-major, not counting
         promotions twice (promoted words appear in both tallies) *)
      s.alloc_w <- int_of_float minor + major - promoted;
      s.promoted_w <- promoted;
      s.majors <- g1.Gc.major_collections - g0.Gc.major_collections;
      (match args with None -> () | Some g -> s.args <- s.args @ g ());
      match st.stack with _ :: tl -> st.stack <- tl | [] -> ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let handoff task =
  if Atomic.get state = 0 then task
  else
    let st = Domain.DLS.get state_key in
    match st.cap with
    | None -> task
    | Some _ as cap ->
        let parent = match st.stack with [] -> st.base | p :: _ -> p.id in
        fun () ->
          let w = Domain.DLS.get state_key in
          let cap0 = w.cap and stack0 = w.stack and base0 = w.base in
          w.cap <- cap;
          w.stack <- [];
          w.base <- parent;
          Fun.protect task ~finally:(fun () ->
              w.cap <- cap0;
              w.stack <- stack0;
              w.base <- base0)

let innermost () =
  if Atomic.get state = 0 then None
  else match (Domain.DLS.get state_key).stack with s :: _ -> Some s | [] -> None

let annotate kvs = match innermost () with Some s -> s.args <- s.args @ kvs | None -> ()
let record_bytes f = match innermost () with Some s -> s.bytes <- s.bytes + f () | None -> ()

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

  (* The process-wide cell, then the cell of every capture on this
     domain's chain. *)
  let add c n =
    if Atomic.get state <> 0 && n <> 0 then begin
      ignore (Atomic.fetch_and_add c.cell n);
      into_captures (fun cap ->
          match Hashtbl.find_opt cap.counters c.name with
          | Some r -> r := !r + n
          | None -> Hashtbl.add cap.counters c.name (ref n))
    end

  let incr c = add c 1
  let value c = Atomic.get c.cell

  let entries () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun _ c acc -> c :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.sort (fun a b -> String.compare a.name b.name) all

  let snapshot () = List.map (fun c -> (c.name, value c)) (entries ())
  let inventory () = List.map (fun c -> (c.name, c.help, value c)) (entries ())
end

(* Pull-model gauges: a registered name plus a sampling callback, read
   only at snapshot time.  Unlike counters and histograms nothing in the
   query path ever touches a gauge, so their disabled-mode cost is
   exactly zero.  Re-registering a name replaces the callback, so a gauge
   over per-owner state (the CLI's session and pool) is registered by
   that owner, once. *)
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
  (* Quantiles are reported as the *lower bound* of the bucket the
     quantile falls in, so they never over-report. *)
  let bucket_count = bucket_count
  let bucket_of_value = bucket_of_value
  let bucket_lower_bound = bucket_lower_bound

  type t = { name : string; mutable help : string; cells : cells; lock : Mutex.t }

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
          let h = { name; help; cells = new_cells (); lock = Mutex.create () } in
          Hashtbl.add registry name h;
          h
    in
    Mutex.unlock reg_mutex;
    h

  let name h = h.name
  let help h = h.help

  (* Always into the process-wide cells; with tracing on, also into the
     cells of every capture on this domain's chain. *)
  let add h v =
    let v = if v < 0 then 0 else v in
    Mutex.lock h.lock;
    record_value h.cells v;
    Mutex.unlock h.lock;
    if Atomic.get state <> 0 then
      into_captures (fun cap ->
          let c =
            match Hashtbl.find_opt cap.hists h.name with
            | Some c -> c
            | None ->
                let c = new_cells () in
                Hashtbl.add cap.hists h.name c;
                c
          in
          record_value c v)

  let count h = h.cells.n

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

  let quantile h q =
    Mutex.lock h.lock;
    let c = h.cells in
    let v = quantile_of ~counts:c.counts ~n:c.n ~min_v:c.min_v ~max_v:c.max_v q in
    Mutex.unlock h.lock;
    v

  let summary_of_cells c =
    let q = quantile_of ~counts:c.counts ~n:c.n ~min_v:c.min_v ~max_v:c.max_v in
    {
      count = c.n;
      sum = c.total;
      min = (if c.n = 0 then 0 else c.min_v);
      max = (if c.n = 0 then 0 else c.max_v);
      p50 = q 0.50;
      p90 = q 0.90;
      p99 = q 0.99;
    }

  let summary h =
    Mutex.lock h.lock;
    let s = summary_of_cells h.cells in
    Mutex.unlock h.lock;
    s

  let reset h =
    Mutex.lock h.lock;
    clear_cells h.cells;
    Mutex.unlock h.lock

  let entries () =
    Mutex.lock reg_mutex;
    let all = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
    Mutex.unlock reg_mutex;
    List.sort (fun a b -> String.compare a.name b.name) all

  let snapshot () =
    List.filter_map (fun h -> if count h = 0 then None else Some (h.name, summary h)) (entries ())

  let inventory () = List.map (fun h -> (h.name, h.help, summary h)) (entries ())
end

(* Sliding-window histograms: a ring of [slots] histogram cells, each
   covering one fixed slice of the window's trailing events.  Recording
   lands in the slice of the current event count; when the ring wraps onto
   the oldest slice, its buckets are zeroed in one O(bucket_count) pass —
   the same wholesale-eviction idea the engine's own sliding frames use
   (bulk evictions instead of per-sample deletions), applied to its latency
   stream.  Summaries merge the ring, so quantiles cover "the last k
   queries" with at most one slice of slack.  [add] keeps the
   one-atomic-load disabled contract of {!Counter.add}. *)
module Windowed_histogram = struct
  type window = Last_events of int

  type t = {
    name : string;
    mutable help : string;
    span : int;  (* events the window covers *)
    per_slot : int;  (* events covered by one slice *)
    ring : cells array;
    mutable events : int;  (* total adds ever *)
    lock : Mutex.t;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 8
  let reg_mutex = Mutex.create ()

  let make ?(help = "") ?(slots = 16) ~window:(Last_events span) name =
    Mutex.lock reg_mutex;
    let w =
      match Hashtbl.find_opt registry name with
      | Some w ->
          if help <> "" then w.help <- help;
          w
      | None ->
          let slots = max 2 slots in
          let w =
            {
              name;
              help;
              span;
              per_slot = max 1 (span / slots);
              ring = Array.init slots (fun _ -> new_cells ());
              events = 0;
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
  let window_label w = Printf.sprintf "%dev" w.span

  let add_always w v =
    let v = if v < 0 then 0 else v in
    Mutex.lock w.lock;
    let slot = w.ring.(w.events / w.per_slot mod Array.length w.ring) in
    (* the first record of a slice evicts whatever the slot held *)
    if w.events mod w.per_slot = 0 then clear_cells slot;
    record_value slot v;
    w.events <- w.events + 1;
    Mutex.unlock w.lock

  let add w v = if Atomic.get state <> 0 then add_always w v

  (* The ring merged into one set of cells, under the lock. *)
  let merged w =
    let m = new_cells () in
    Mutex.lock w.lock;
    Array.iter
      (fun c ->
        if c.n > 0 then begin
          Array.iteri (fun b k -> m.counts.(b) <- m.counts.(b) + k) c.counts;
          m.n <- m.n + c.n;
          m.total <- m.total + c.total;
          m.min_v <- min m.min_v c.min_v;
          m.max_v <- max m.max_v c.max_v
        end)
      w.ring;
    Mutex.unlock w.lock;
    m

  let summary w = Histogram.summary_of_cells (merged w)

  let quantile w q =
    let m = merged w in
    Histogram.quantile_of ~counts:m.counts ~n:m.n ~min_v:m.min_v ~max_v:m.max_v q

  let events w = w.events

  let reset w =
    Mutex.lock w.lock;
    Array.iter clear_cells w.ring;
    w.events <- 0;
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
end

type trace = {
  spans : span list;
  counters : (string * int) list;
  hists : (string * Histogram.summary) list;
  dropped : int;
}

let with_capture f =
  let st = Domain.DLS.get state_key in
  let cap =
    {
      lock = Mutex.create ();
      recorded = [];
      len = 0;
      lost = 0;
      counters = Hashtbl.create 32;
      hists = Hashtbl.create 4;
      outer = st.cap;
    }
  in
  ignore (Atomic.fetch_and_add state 2);
  st.cap <- Some cap;
  let close () =
    st.cap <- cap.outer;
    ignore (Atomic.fetch_and_add state (-2))
  in
  let v = Fun.protect ~finally:close f in
  let by_name tbl keep =
    Hashtbl.fold (fun n x acc -> match keep x with Some y -> (n, y) :: acc | None -> acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Mutex.lock cap.lock;
  let tr =
    {
      spans = List.rev cap.recorded;
      counters = by_name cap.counters (fun r -> if !r = 0 then None else Some !r);
      hists = by_name cap.hists (fun c -> Some (Histogram.summary_of_cells c));
      dropped = cap.lost;
    }
  in
  Mutex.unlock cap.lock;
  (v, tr)

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
      let key =
        match List.assoc_opt "kind" s.args with
        | Some k -> Printf.sprintf "%s{kind=%s}" s.name k
        | None -> s.name
      in
      match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key (1, self)
      | Some (c, d) -> Hashtbl.replace tbl key (c + 1, d + self))
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
     whose parent is not in the trace (dropped at the capture's bound, or
     opened before the capture) render as roots. *)
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
  let open Json in
  let t_base = match tr.spans with [] -> 0 | s :: _ -> s.t0_ns in
  let us ns = J_float (float_of_int ns /. 1e3) in
  let event name ph ~tid ~ts more =
    J_obj
      ([ ("name", J_string name); ("ph", J_string ph); ("pid", J_int 1); ("tid", J_int tid); ("ts", us ts) ]
      @ more)
  in
  let complete s =
    let args =
      s.args
      @ (if s.alloc_w > 0 then [ ("alloc_kw", Printf.sprintf "%.1f" (float_of_int s.alloc_w /. 1e3)) ] else [])
      @ (if s.bytes > 0 then [ ("bytes", string_of_int s.bytes) ] else [])
      @ if s.majors > 0 then [ ("major_gcs", string_of_int s.majors) ] else []
    in
    event s.name "X" ~tid:s.tid ~ts:(s.t0_ns - t_base)
      (("cat", J_string "holistic") :: ("dur", us s.dur_ns)
      :: (if args = [] then [] else [ ("args", J_obj (List.map (fun (k, v) -> (k, J_string v)) args)) ]))
  in
  (* counters land at the end of the last span *)
  let t_end = List.fold_left (fun acc s -> max acc (s.t0_ns - t_base + s.dur_ns)) 0 tr.spans in
  let counter (n, v) = event n "C" ~tid:0 ~ts:t_end [ ("args", J_obj [ ("value", J_int v) ]) ] in
  to_string
    (J_obj
       [
         ("displayTimeUnit", J_string "ms");
         ("traceEvents", J_list (List.map complete tr.spans @ List.map counter tr.counters));
       ])

let write_chrome_trace path tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_chrome_json tr);
      flush oc)

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
