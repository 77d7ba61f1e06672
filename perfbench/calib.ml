(* Host-speed calibration.  The machines this benchmark runs on are shared
   virtual machines whose speed drifts by tens of percent within a run, in
   phases as short as a few statements, which no statistic over the run's
   samples can remove.  A fixed kernel, built from nothing in the code
   under test — random increments over a 4 MB array, twice the L2 of a
   2-vCPU Xeon VM, so it moves with the cache and memory contention that
   moves the engine — is timed right before each set-up repetition and
   each statement, and that sample's wall time is reported scaled by
   [reference_ns] / (the kernel's time), i.e. as it would read on a host
   running the kernel in [reference_ns].  A register-only kernel timed
   once per pass tracked these phases worse on the same runs.  The raw
   figures are printed alongside.

   The array is a bigarray: outside the OCaml heap it adds its own 4 MB to
   peak_rss_bytes and nothing to the heap the GC paces. *)

open Bigarray

let reference_ns = 10_000_000.
let size = 1 lsl 19

let factor_on (a : (int, int_elt, c_layout) Array1.t) =
  let t0 = Holistic_obs.Obs.now_ns () in
  let x = ref 12345 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land (size - 1);
    Array1.unsafe_set a !x (Array1.unsafe_get a !x + 1)
  done;
  reference_ns /. float_of_int (Holistic_obs.Obs.now_ns () - t0)

let create () =
  let a = Array1.create int c_layout size in
  Array1.fill a 0;
  a

(* Statements run on one resident array, allocated at the first sample. *)
let resident = lazy (create ())
let factor () = factor_on (Lazy.force resident)

(* Set-up repetitions allocate their tables afresh, and a kernel over a
   fresh array, page faults included, tracks them best. *)
let fresh_factor () = factor_on (create ())
