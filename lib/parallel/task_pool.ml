module Obs = Holistic_obs.Obs

let default_task_size = 20_000

(* Registered observability counters (process-wide, shared by all pools).
   [Obs.Counter.add] is gated on tracing being enabled, so the disabled
   path pays nothing beyond the branch inside [exec]. *)
let c_tasks = Obs.Counter.make ~help:"Tasks executed by the shared worker pool" "pool.tasks"
let c_busy = Obs.Counter.make ~help:"Nanoseconds pool workers spent running tasks" "pool.busy_ns"
let c_wait = Obs.Counter.make ~help:"Nanoseconds pool workers spent idle waiting for work" "pool.wait_ns"
let c_queue_wait = Obs.Counter.make ~help:"Nanoseconds tasks spent queued before a worker picked them up" "pool.queue_wait_ns"

type worker_stat = { mutable tasks : int; mutable busy_ns : int; mutable wait_ns : int }

(* A batch is one unit of submission: its own task queue, its own pending
   count and its own first-error slot.  Several batches may be in flight on
   one pool at a time (the morsel-driven window plan submits partition
   morsels while later sort stages still run their own [parallel_for]
   batches), and each waiter only waits for — and preferentially helps —
   its own batch. *)
type batch = {
  bq : (unit -> unit) Queue.t;
  mutable pending : int; (* queued or running tasks of this batch *)
  mutable first_error : exn option;
}

type shared = {
  mutex : Mutex.t;
  (* One condition for every state change: work arriving, a batch
     completing, shutdown.  Wakeups are coarse but task granularity is
     thousands of rows, so spurious broadcasts are noise. *)
  cond : Condition.t;
  mutable active : batch list; (* batches with queued tasks, FIFO *)
  mutable stop : bool;
}

type t = {
  id : int;
  shared : shared;
  workers : unit Domain.t array;
  n : int;
  stats : worker_stat array; (* index 0 = the caller, 1..n-1 = worker domains *)
  mutable alive : bool;
}

let next_pool_id = Atomic.make 0

(* Stack of pool ids whose tasks are executing on this domain.  A nested
   [run_list]/[parallel_for] on a pool that is already running one of its
   tasks here executes inline: the pool's workers are busy by construction
   (they are running the enclosing batch), and blocking a worker on a
   sub-batch of the same pool could deadlock a fully-loaded pool. *)
let in_task_key : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let inside t = List.memq t.id !(Domain.DLS.get in_task_key)

let record_error b e = if b.first_error = None then b.first_error <- Some e

(* Run one task of [b], capturing its error into the batch; with tracing
   on, also charge its wall time to the executing worker's stat record and
   the global pool counters.  The pool id is pushed on the domain's
   in-task stack for the duration so nested submissions run inline.
   Errors are recorded under [mutex]. *)
let exec pool b stat task =
  let stack = Domain.DLS.get in_task_key in
  stack := pool.id :: !stack;
  let fin () = match !stack with _ :: tl -> stack := tl | [] -> () in
  let run () =
    try task ()
    with e ->
      Mutex.lock pool.shared.mutex;
      record_error b e;
      Mutex.unlock pool.shared.mutex
  in
  (if Obs.enabled () then begin
     let t0 = Obs.now_ns () in
     run ();
     let d = Obs.now_ns () - t0 in
     stat.tasks <- stat.tasks + 1;
     stat.busy_ns <- stat.busy_ns + d;
     Obs.Counter.add c_tasks 1;
     Obs.Counter.add c_busy d
   end
   else run ());
  fin ()

(* Pop one task from the first active batch, under [mutex].  Returns the
   batch alongside the task so completion can be accounted to it. *)
let pop_task shared =
  let rec find = function
    | [] -> None
    | b :: rest ->
        if Queue.is_empty b.bq then begin
          (* stale entry: every task was already claimed *)
          shared.active <- rest;
          find rest
        end
        else begin
          let task = Queue.pop b.bq in
          if Queue.is_empty b.bq then shared.active <- rest;
          Some (b, task)
        end
  in
  find shared.active

let finish_task shared b =
  Mutex.lock shared.mutex;
  b.pending <- b.pending - 1;
  if b.pending = 0 then Condition.broadcast shared.cond;
  Mutex.unlock shared.mutex

let worker_loop pool stat =
  let shared = pool.shared in
  let rec loop () =
    Mutex.lock shared.mutex;
    let rec next () =
      match pop_task shared with
      | Some bt -> Some bt
      | None ->
          if shared.stop then None
          else begin
            (if Obs.enabled () then begin
               let t0 = Obs.now_ns () in
               Condition.wait shared.cond shared.mutex;
               let d = Obs.now_ns () - t0 in
               stat.wait_ns <- stat.wait_ns + d;
               Obs.Counter.add c_wait d
             end
             else Condition.wait shared.cond shared.mutex);
            next ()
          end
    in
    match next () with
    | None -> Mutex.unlock shared.mutex
    | Some (b, task) ->
        Mutex.unlock shared.mutex;
        exec pool b stat task;
        finish_task shared b;
        loop ()
  in
  loop ()

let create n =
  if n < 1 then invalid_arg "Task_pool.create";
  let shared =
    { mutex = Mutex.create (); cond = Condition.create (); active = []; stop = false }
  in
  let stats = Array.init n (fun _ -> { tasks = 0; busy_ns = 0; wait_ns = 0 }) in
  let pool =
    {
      id = Atomic.fetch_and_add next_pool_id 1;
      shared;
      workers = [||];
      n;
      stats;
      alive = true;
    }
  in
  let workers =
    if n = 1 then [||]
    else Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool stats.(i + 1)))
  in
  { pool with workers }

let size t = t.n

let worker_stats t =
  Array.map (fun s -> { tasks = s.tasks; busy_ns = s.busy_ns; wait_ns = s.wait_ns }) t.stats

let reset_stats t =
  Array.iter
    (fun s ->
      s.tasks <- 0;
      s.busy_ns <- 0;
      s.wait_ns <- 0)
    t.stats

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    let s = t.shared in
    Mutex.lock s.mutex;
    s.stop <- true;
    Condition.broadcast s.cond;
    Mutex.unlock s.mutex;
    Array.iter Domain.join t.workers
  end

(* With tracing on, tasks are wrapped at submission so the delay between
   enqueue and first instruction is charged to pool.queue_wait_ns. *)
let stamp_queue_wait task =
  if not (Obs.enabled ()) then task
  else begin
    let t_enq = Obs.now_ns () in
    fun () ->
      Obs.Counter.add c_queue_wait (Obs.now_ns () - t_enq);
      task ()
  end

(* Inline execution on the caller: the n=1 pool and every nested
   submission from inside a pool task.  Same error contract as a real
   batch — every task runs, the first exception is re-raised at the
   end. *)
let exec_inline t b task =
  let stat = if inside t then { tasks = 0; busy_ns = 0; wait_ns = 0 } else t.stats.(0) in
  exec t b stat task

let raise_batch_error b =
  match b.first_error with
  | None -> ()
  | Some e ->
      b.first_error <- None;
      raise e

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

let new_batch () = { bq = Queue.create (); pending = 0; first_error = None }

let submit t b task =
  if t.n = 1 || inside t then exec_inline t b task
  else begin
    let s = t.shared in
    Mutex.lock s.mutex;
    b.pending <- b.pending + 1;
    let was_empty = Queue.is_empty b.bq in
    Queue.push (stamp_queue_wait task) b.bq;
    if was_empty then s.active <- s.active @ [ b ];
    Condition.broadcast s.cond;
    Mutex.unlock s.mutex
  end

(* Wait for [b] to drain, helping with [b]'s own queued tasks (never other
   batches': stealing unrelated work here would couple this waiter's
   latency to arbitrary foreign tasks). *)
let wait t b =
  (if not (t.n = 1 || inside t) then begin
     let s = t.shared in
     Mutex.lock s.mutex;
     let rec help () =
       if not (Queue.is_empty b.bq) then begin
         let task = Queue.pop b.bq in
         if Queue.is_empty b.bq then s.active <- List.filter (fun x -> x != b) s.active;
         Mutex.unlock s.mutex;
         exec t b t.stats.(0) task;
         Mutex.lock s.mutex;
         b.pending <- b.pending - 1;
         if b.pending = 0 then Condition.broadcast s.cond;
         help ()
       end
       else if b.pending > 0 then begin
         Condition.wait s.cond s.mutex;
         help ()
       end
     in
     help ();
     Mutex.unlock s.mutex
   end);
  raise_batch_error b

let run_list t tasks =
  if t.n = 1 || inside t then begin
    let b = new_batch () in
    List.iter (fun task -> exec_inline t b task) tasks;
    raise_batch_error b
  end
  else begin
    let b = new_batch () in
    List.iter (fun task -> submit t b task) tasks;
    wait t b
  end

(* ------------------------------------------------------------------ *)
(* Parallel for                                                        *)
(* ------------------------------------------------------------------ *)

(* Derived chunk size: aim for several tasks per domain so small ranges
   still spread across the pool (a fixed 20k-tuple chunk serialises any
   range below 20k on one worker), capped at [max] (the paper's fixed
   morsel size by default) so huge ranges keep cache-sized tasks. *)
let tasks_per_domain = 4

let auto_chunk t ~lo ~hi ~max:max_chunk =
  let range = hi - lo in
  if range <= 0 then 1
  else begin
    let target = (range + (tasks_per_domain * t.n) - 1) / (tasks_per_domain * t.n) in
    max 1 (min max_chunk target)
  end

let parallel_for t ?chunk ?(chunk_max = default_task_size) ~lo ~hi f =
  let chunk =
    match chunk with
    | Some c ->
        if c <= 0 then invalid_arg "Task_pool.parallel_for: chunk must be positive";
        c
    | None -> auto_chunk t ~lo ~hi ~max:chunk_max
  in
  if hi > lo then begin
    let tasks = ref [] in
    let pos = ref lo in
    while !pos < hi do
      let chunk_lo = !pos in
      let chunk_hi = min hi (chunk_lo + chunk) in
      tasks := (fun () -> f chunk_lo chunk_hi) :: !tasks;
      pos := chunk_hi
    done;
    run_list t (List.rev !tasks)
  end

(* ------------------------------------------------------------------ *)
(* Default pool                                                        *)
(* ------------------------------------------------------------------ *)

(* HOLIWIN_DOMAINS overrides the default pool's size (clamped to [1,128]);
   unset or unparsable falls back to the runtime's recommendation.  This is
   the one knob threaded through every entry point that defaults its pool
   ([Window_plan.run], [Sql.query], the benches). *)
let domains_from_env () =
  match Sys.getenv_opt "HOLIWIN_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (min n 128)
      | _ -> None)

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let n =
        match domains_from_env () with
        | Some n -> n
        | None -> Domain.recommended_domain_count ()
      in
      let p = create n in
      default_pool := Some p;
      p

(* Sampled at metrics-snapshot time only; reports the size the default
   pool has (or would be created with), without forcing its creation. *)
let _domains_gauge =
  Obs.Gauge.register ~help:"Worker domains of the default task pool" "pool.domains" (fun () ->
      match !default_pool with
      | Some p -> p.n
      | None -> (
          match domains_from_env () with
          | Some n -> n
          | None -> Domain.recommended_domain_count ()))
