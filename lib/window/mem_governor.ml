(* Memory governor: accounted-footprint tracking plus per-sort spill
   decisions. The accounting covers encoded key words and sort transients,
   so decisions are deterministic for a given query and budget, independent
   of GC state. *)

exception Budget_too_small of string

type policy = Auto | Always_spill

type sort_plan = Sort_in_memory | Sort_spill of { run_rows : int; read_entries : int }

type t = {
  g_budget : int option;
  g_policy : policy;
  g_dir : string option;
  mutable g_live : int;
  mutable g_peak : int;
  mutable g_spill_dir : string option;
  mutable g_total_runs : int;
  mutable g_total_bytes : int;
}

let create ?budget ?(policy = Auto) ?dir () =
  (match budget with
  | Some b when b <= 0 -> invalid_arg "Mem_governor.create: budget must be positive"
  | _ -> ());
  {
    g_budget = budget;
    g_policy = policy;
    g_dir = dir;
    g_live = 0;
    g_peak = 0;
    g_spill_dir = None;
    g_total_runs = 0;
    g_total_bytes = 0;
  }

let policy g = g.g_policy
let budget g = g.g_budget

let charge g b =
  g.g_live <- g.g_live + b;
  if g.g_live > g.g_peak then g.g_peak <- g.g_live

let release g b = g.g_live <- max 0 (g.g_live - b)
let live g = g.g_live
let peak g = g.g_peak

(* Working-set model of the two sort paths, in bytes (the key words,
   8*nwords*n, are assumed charged already in [live]):
     in-memory: key0 copy (8n) + perm (8n) + merge scratch (16n when the
       run/merge split is active)
     spill, formation: chunk key + chunk payload (16 bytes/run row) plus
       IO buffer slack, ~24 bytes per run row, words still held
     spill, merge: words released, perm (8n) + per-run read buffers
       (8 * (nwords + 1) * read_entries each). *)
let plan_sort g ~n ~nwords ~multi_run =
  if n = 0 then Sort_in_memory
  else
    match g.g_policy with
    | Always_spill ->
        (* differential-testing mode: force several runs even on tiny
           inputs so the merge path is really exercised *)
        Sort_spill { run_rows = max 2 ((n + 3) / 4); read_entries = 64 }
    | Auto -> (
        match g.g_budget with
        | None -> Sort_in_memory
        | Some b ->
            let need = (16 * n) + if multi_run then 16 * n else 0 in
            if g.g_live + need <= b then Sort_in_memory
            else begin
              let avail_form = b - g.g_live in
              let run_rows = avail_form / 24 in
              if run_rows < 16 then
                raise
                  (Budget_too_small
                     (Printf.sprintf
                        "memory budget %d B cannot sort %d rows: %d B live leaves no room to form \
                         even a 16-row spill run (24 B/row)"
                        b n g.g_live));
              let run_rows = min run_rows n in
              let nruns = ((n - 1) / run_rows) + 1 in
              let per_entry = 8 * (nwords + 1) in
              let merge_live = g.g_live - (8 * nwords * n) in
              let merge_avail = b - merge_live - (8 * n) in
              let read_entries = merge_avail * 9 / 10 / (max 1 nruns * per_entry) in
              if read_entries < 16 then
                raise
                  (Budget_too_small
                     (Printf.sprintf
                        "memory budget %d B cannot merge %d spill runs of %d rows: the output \
                         permutation (%d B) plus 16-entry read buffers (%d B) do not fit"
                        b nruns n (8 * n) (nruns * 16 * per_entry)));
              Sort_spill { run_rows; read_entries = min read_entries 65536 }
            end)

let spill_dir g =
  match g.g_spill_dir with
  | Some d -> d
  | None ->
      let d =
        match g.g_dir with
        | Some parent -> Filename.temp_dir ~temp_dir:parent "holiwin_spill" ""
        | None -> Filename.temp_dir "holiwin_spill" ""
      in
      g.g_spill_dir <- Some d;
      d

let cleanup g =
  match g.g_spill_dir with
  | None -> ()
  | Some d ->
      g.g_spill_dir <- None;
      (try
         Array.iter (fun f -> try Sys.remove (Filename.concat d f) with _ -> ()) (Sys.readdir d);
         Sys.rmdir d
       with _ -> ())

let note_spill g ~runs ~bytes =
  g.g_total_runs <- g.g_total_runs + runs;
  g.g_total_bytes <- g.g_total_bytes + bytes

let totals g = (g.g_total_runs, g.g_total_bytes)

let parse_limit s =
  let s = String.trim s in
  let fail () =
    invalid_arg
      (Printf.sprintf
         "invalid memory limit %S: use a byte count, a K/M/G-suffixed count (64K, 512M, 1G), or \
          \"spill\" to force-spill every stage"
         s)
  in
  if String.lowercase_ascii s = "spill" then (None, Always_spill)
  else begin
    let len = String.length s in
    if len = 0 then fail ();
    let mult, digits =
      match Char.uppercase_ascii s.[len - 1] with
      | 'K' -> (1024, String.sub s 0 (len - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some v when v > 0 -> (Some (v * mult), Auto)
    | _ -> fail ()
  end
