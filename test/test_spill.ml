(* Out-of-core execution: run-file format and fault injection, the memory
   governor's budget arithmetic, spilled sorts vs the in-memory sorter, and
   the governed no-op path's golden equivalence.

   The run-file fault hooks (ENOSPC, short write, checksum corruption) are
   process-wide; every test that arms one resets it in a finally. *)

open Holistic_storage
open Holistic_window
module Rng = Holistic_util.Rng
module Task_pool = Holistic_parallel.Task_pool
module Parallel_sort = Holistic_sort.Parallel_sort
module Multiway = Holistic_sort.Multiway
module Obs = Holistic_obs.Obs
module Sql = Holistic_sql.Sql

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_tmp_dir f =
  let dir = Filename.temp_dir "holiwin_test_spill" "" in
  Fun.protect
    ~finally:(fun () ->
      (try Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let dir_entries dir = Array.length (Sys.readdir dir)

let with_faults_reset f = Fun.protect ~finally:Run_file.Fault.reset f

(* ------------------------------------------------------------------ *)
(* Run files                                                           *)
(* ------------------------------------------------------------------ *)

let gen_entries rng ~n ~nwords =
  Array.init n (fun _ ->
      (Array.init nwords (fun _ -> Rng.int_in rng (-1000) 1000), Rng.int rng 1_000_000))

let write_run dir ~nwords entries =
  let w = Run_file.create ~dir ~nwords in
  Array.iter (fun (key, payload) -> Run_file.append w ~key ~koff:0 ~payload) entries;
  Run_file.finish w

let read_all t =
  let nwords = Run_file.nwords t in
  let stride = nwords + 1 in
  let r = Run_file.open_reader t in
  Fun.protect
    ~finally:(fun () -> Run_file.close_reader r)
    (fun () ->
      let buf = Array.make (7 * stride) 0 in
      let out = ref [] in
      let rec loop () =
        let k = Run_file.read r ~buf in
        if k > 0 then begin
          for i = 0 to k - 1 do
            out :=
              (Array.sub buf (i * stride) nwords, buf.((i * stride) + nwords)) :: !out
          done;
          loop ()
        end
      in
      loop ();
      Array.of_list (List.rev !out))

let test_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 42 in
  List.iter
    (fun (n, nwords) ->
      let entries = gen_entries rng ~n ~nwords in
      let t = write_run dir ~nwords entries in
      Alcotest.(check int) "entries" n (Run_file.entries t);
      Alcotest.(check int) "nwords" nwords (Run_file.nwords t);
      Alcotest.(check int) "bytes" (32 + (n * (nwords + 1) * 8)) (Run_file.bytes t);
      let got = read_all t in
      Alcotest.(check int) "read count" n (Array.length got);
      Array.iteri
        (fun i (key, payload) ->
          let gkey, gpayload = got.(i) in
          Alcotest.(check (array int)) "key words" key gkey;
          Alcotest.(check int) "payload" payload gpayload)
        entries;
      Run_file.remove t)
    [ (0, 1); (1, 1); (5, 3); (1000, 2); (10_000, 1) ];
  Alcotest.(check int) "dir empty after removes" 0 (dir_entries dir)

let test_reader_validation () =
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 7 in
  (* truncation: chop the last 8 bytes off a finished file *)
  let t = write_run dir ~nwords:2 (gen_entries rng ~n:50 ~nwords:2) in
  let truncate_by path bytes =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let content = really_input_string ic (len - bytes) in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  truncate_by (Run_file.path t) 8;
  (match read_all t with
  | exception Run_file.Error msg ->
      Alcotest.(check bool) "names truncation" true (contains "truncated" msg)
  | _ -> Alcotest.fail "reader accepted a truncated file");
  Run_file.remove t;
  (* bad magic, size intact *)
  let t = write_run dir ~nwords:1 (gen_entries rng ~n:3 ~nwords:1) in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o600 (Run_file.path t) in
  output_string oc "XX";
  close_out oc;
  (match read_all t with
  | exception Run_file.Error msg ->
      Alcotest.(check bool) "names the magic" true (contains "magic" msg)
  | _ -> Alcotest.fail "reader accepted a corrupt magic");
  Run_file.remove t;
  (* undersized read buffer *)
  let t = write_run dir ~nwords:3 (gen_entries rng ~n:4 ~nwords:3) in
  let r = Run_file.open_reader t in
  (match Run_file.read r ~buf:(Array.make 3 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read accepted a buffer smaller than one entry");
  Run_file.close_reader r;
  Run_file.remove t;
  Alcotest.(check int) "dir empty" 0 (dir_entries dir)

let test_fault_enospc () =
  with_faults_reset @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 11 in
  Run_file.Fault.enospc_after 0;
  let w = Run_file.create ~dir ~nwords:1 in
  let entries = gen_entries rng ~n:10 ~nwords:1 in
  (match
     Array.iter (fun (key, payload) -> Run_file.append w ~key ~koff:0 ~payload) entries;
     Run_file.finish w
   with
  | exception Run_file.Error msg ->
      Alcotest.(check bool) "mentions no space" true (contains "No space left" msg)
  | _ -> Alcotest.fail "writer survived injected ENOSPC");
  Run_file.Fault.reset ();
  Run_file.abort w;
  (* abort after a failed finish must still delete the temp file *)
  Alcotest.(check int) "no files left after abort" 0 (dir_entries dir)

let test_fault_short_write () =
  with_faults_reset @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 13 in
  Run_file.Fault.short_write ();
  let t = write_run dir ~nwords:2 (gen_entries rng ~n:100 ~nwords:2) in
  (* the lost tail is invisible to the writer: only the reader's size
     validation catches it *)
  (match read_all t with
  | exception Run_file.Error msg ->
      Alcotest.(check bool) "names truncation" true (contains "truncated" msg)
  | _ -> Alcotest.fail "reader accepted a short-written file");
  Run_file.remove t;
  Alcotest.(check int) "no files left" 0 (dir_entries dir)

let test_fault_checksum () =
  with_faults_reset @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 17 in
  Run_file.Fault.flip_checksum ();
  let t = write_run dir ~nwords:1 (gen_entries rng ~n:200 ~nwords:1) in
  (* size and header are plausible: only draining the file catches it *)
  (match read_all t with
  | exception Run_file.Error msg ->
      Alcotest.(check bool) "names the checksum" true (contains "checksum" msg)
  | _ -> Alcotest.fail "reader accepted a corrupted checksum");
  Run_file.remove t

(* ------------------------------------------------------------------ *)
(* Spilled sort vs the in-memory sorter                                *)
(* ------------------------------------------------------------------ *)

let gen_words rng ~n ~nwords ~dup =
  Array.init nwords (fun _ -> Array.init n (fun _ -> Rng.int rng dup))

let test_sort_spill_identity () =
  with_tmp_dir @@ fun dir ->
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 23 in
      List.iter
        (fun (n, nwords, dup, run_rows, read_entries) ->
          let words = gen_words rng ~n ~nwords ~dup in
          let perm_mem, key0_mem = Parallel_sort.sort_encoded pool ~n ~words () in
          let streamed = ref [] in
          let perm_spill, nruns, bytes =
            Parallel_sort.sort_encoded_spill ~n ~words ~run_rows ~read_entries ~dir
              ~on_key0:(fun rank k0 -> streamed := (rank, k0) :: !streamed)
              ()
          in
          Alcotest.(check (array int))
            (Printf.sprintf "perm identical (n=%d w=%d rr=%d)" n nwords run_rows)
            perm_mem perm_spill;
          let expected_runs = if n = 0 then 0 else ((n - 1) / min run_rows n) + 1 in
          Alcotest.(check int) "run count" expected_runs nruns;
          if n > 0 then
            Alcotest.(check bool) "bytes written" true (bytes >= n * (nwords + 1) * 8);
          List.iter
            (fun (rank, k0) ->
              Alcotest.(check int)
                (Printf.sprintf "streamed key0 at %d" rank)
                key0_mem.(rank) k0)
            !streamed;
          Alcotest.(check int) "one key0 per row" n (List.length !streamed);
          Alcotest.(check int) "spill files deleted" 0 (dir_entries dir))
        [
          (0, 1, 5, 4, 16);
          (1, 1, 5, 4, 16);
          (100, 1, 7, 9, 16);
          (1000, 2, 20, 64, 16);
          (1000, 3, 3, 128, 32);
          (5000, 1, 100, 333, 64);
          (5000, 2, 2, 1024, 256);
        ])

let test_sort_spill_tie () =
  (* residual comparator: sort by one coarse word, tie-break by a side
     array descending — both paths must agree including the tie order *)
  with_tmp_dir @@ fun dir ->
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 29 in
      let n = 2000 in
      let words = gen_words rng ~n ~nwords:1 ~dup:4 in
      let side = Array.init n (fun _ -> Rng.int rng 10) in
      let tie a b = compare side.(b) side.(a) in
      let perm_mem, _ = Parallel_sort.sort_encoded pool ~n ~words ~tie () in
      let perm_spill, _, _ =
        Parallel_sort.sort_encoded_spill ~n ~words ~tie ~run_rows:171 ~read_entries:16 ~dir ()
      in
      Alcotest.(check (array int)) "tie order identical" perm_mem perm_spill)

let test_sort_spill_fault_cleanup () =
  (* an IO failure mid-spill must clean every temp file up and surface as
     Run_file.Error *)
  with_faults_reset @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 31 in
  let n = 2000 in
  let words = gen_words rng ~n ~nwords:2 ~dup:50 in
  Run_file.Fault.enospc_after 2;
  (match Parallel_sort.sort_encoded_spill ~n ~words ~run_rows:100 ~read_entries:16 ~dir () with
  | exception Run_file.Error _ -> ()
  | _ -> Alcotest.fail "spilled sort survived injected ENOSPC");
  Alcotest.(check int) "no spill files left after failure" 0 (dir_entries dir);
  Run_file.Fault.reset ();
  (* corruption detected at merge time cleans up too *)
  Run_file.Fault.flip_checksum ();
  (match Parallel_sort.sort_encoded_spill ~n ~words ~run_rows:500 ~read_entries:16 ~dir () with
  | exception Run_file.Error _ -> ()
  | _ -> Alcotest.fail "spilled sort survived a corrupted run");
  Alcotest.(check int) "no spill files left after corruption" 0 (dir_entries dir)

let test_merge_sources_mixed () =
  (* one disk-backed source, one in-memory source, merged by the OVC
     loser tree: the output must be the fully sorted union — and the same
     two runs merged as in-memory runs must give the same permutation and
     the same code-decided / scanned comparison counts *)
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 37 in
  let nwords = 2 in
  let gen_sorted ~base n =
    let rows = Array.init n (fun i -> (Rng.int rng 50, Rng.int rng 50, base + i)) in
    Array.sort compare rows;
    rows
  in
  let a = gen_sorted ~base:0 400 and b = gen_sorted ~base:400 300 in
  (* a goes to disk *)
  let w = Run_file.create ~dir ~nwords in
  Array.iter (fun (w0, w1, p) -> Run_file.append w ~key:[| w0; w1 |] ~koff:0 ~payload:p) a;
  let t = Run_file.finish w in
  let rd = Run_file.open_reader t in
  let disk =
    Multiway.make_source ~nwords ~buf_entries:16
      ~refill:(fun buf -> Run_file.read rd ~buf)
      ~close:(fun () -> Run_file.close_reader rd)
  in
  (* b stays in memory, streamed in small chunks *)
  let pos = ref 0 in
  let mem =
    Multiway.make_source ~nwords ~buf_entries:7
      ~close:(fun () -> ())
      ~refill:(fun buf ->
        let stride = nwords + 1 in
        let k = min (Array.length buf / stride) (Array.length b - !pos) in
        for i = 0 to k - 1 do
          let w0, w1, p = b.(!pos + i) in
          buf.(i * stride) <- w0;
          buf.((i * stride) + 1) <- w1;
          buf.((i * stride) + 2) <- p
        done;
        pos := !pos + k;
        k)
  in
  let out = ref [] in
  let (), streamed =
    Obs.with_capture (fun () ->
        Multiway.merge_sources ~sources:[| disk; mem |]
          ~emit:(fun k0 payload -> out := (k0, payload) :: !out)
          ())
  in
  Multiway.source_close disk;
  Multiway.source_close mem;
  Run_file.remove t;
  let got = Array.of_list (List.rev !out) in
  let all = Array.append a b in
  Array.sort compare all;
  Alcotest.(check int) "entry count" (Array.length all) (Array.length got);
  Array.iteri
    (fun i (w0, _, p) ->
      let gk0, gp = got.(i) in
      Alcotest.(check int) (Printf.sprintf "key0 at %d" i) w0 gk0;
      Alcotest.(check int) (Printf.sprintf "payload at %d" i) p gp)
    all;
  (* the same runs in memory: positions 0..399 hold run a, 400..699 run
     b, and the second word is row-indexed *)
  let runs = Array.append a b in
  let n = Array.length runs in
  let w1 = Array.make n 0 in
  Array.iter (fun (_, x, p) -> w1.(p) <- x) runs;
  let mw =
    {
      Multiway.key0 = Array.map (fun (x, _, _) -> x) runs;
      payload = Array.map (fun (_, _, p) -> p) runs;
      deep = [| w1 |];
      tie = None;
    }
  in
  let dst_key0 = Array.make n 0 and dst_payload = Array.make n 0 in
  let (), in_memory =
    Obs.with_capture (fun () ->
        Multiway.merge_multiword ~mw
          ~runs:[| { Multiway.lo = 0; hi = 400 }; { Multiway.lo = 400; hi = n } |]
          ~dst_key0 ~dst_payload ~dst_pos:0)
  in
  Alcotest.(check (array int)) "in-memory merge = streamed merge" (Array.map snd got) dst_payload;
  let count trace name = Option.value ~default:0 (List.assoc_opt name trace.Obs.counters) in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ ": in memory = streamed") (count streamed name)
        (count in_memory name))
    [ "sort.ovc_decided"; "sort.ovc_scanned" ];
  Alcotest.(check bool) "codes decided some comparisons" true (count streamed "sort.ovc_decided" > 0)

(* ------------------------------------------------------------------ *)
(* Governor units                                                      *)
(* ------------------------------------------------------------------ *)

let test_governor_accounting () =
  let g = Mem_governor.create ~budget:1000 () in
  Alcotest.(check (option int)) "budget" (Some 1000) (Mem_governor.budget g);
  Alcotest.(check int) "live 0" 0 (Mem_governor.live g);
  Mem_governor.charge g 300;
  Mem_governor.charge g 500;
  Alcotest.(check int) "live 800" 800 (Mem_governor.live g);
  Alcotest.(check int) "peak 800" 800 (Mem_governor.peak g);
  Mem_governor.release g 500;
  Alcotest.(check int) "live 300" 300 (Mem_governor.live g);
  Alcotest.(check int) "peak sticks" 800 (Mem_governor.peak g);
  Mem_governor.charge g 100;
  Alcotest.(check int) "peak unmoved below" 800 (Mem_governor.peak g);
  Mem_governor.note_spill g ~runs:3 ~bytes:4096;
  Alcotest.(check (pair int int)) "totals" (3, 4096) (Mem_governor.totals g);
  Mem_governor.note_spill g ~runs:2 ~bytes:1000;
  Alcotest.(check (pair int int)) "totals accumulate" (5, 5096) (Mem_governor.totals g)

let test_governor_plan_sort () =
  (* no budget, Auto: never spills *)
  let g = Mem_governor.create () in
  (match Mem_governor.plan_sort g ~n:1_000_000 ~nwords:4 ~multi_run:true with
  | Mem_governor.Sort_in_memory -> ()
  | Mem_governor.Sort_spill _ -> Alcotest.fail "budget-less Auto governor spilled");
  (* Always_spill: spills even trivially small sorts, with >= 2 runs *)
  let g = Mem_governor.create ~policy:Mem_governor.Always_spill () in
  (match Mem_governor.plan_sort g ~n:10 ~nwords:1 ~multi_run:false with
  | Mem_governor.Sort_spill { run_rows; read_entries } ->
      Alcotest.(check bool) "multiple runs" true (run_rows < 10);
      Alcotest.(check bool) "buffers sized" true (read_entries >= 1)
  | Mem_governor.Sort_in_memory -> Alcotest.fail "Always_spill stayed in memory");
  (* Auto with a budget: in-memory while it fits, spill when it does not *)
  let n = 10_000 in
  let fits = Mem_governor.create ~budget:(16 * n * 10) () in
  Mem_governor.charge fits (8 * n);
  (match Mem_governor.plan_sort fits ~n ~nwords:1 ~multi_run:false with
  | Mem_governor.Sort_in_memory -> ()
  | Mem_governor.Sort_spill _ -> Alcotest.fail "roomy budget spilled");
  let tight = Mem_governor.create ~budget:(12 * n) () in
  Mem_governor.charge tight (8 * n) (* the key words *);
  (match Mem_governor.plan_sort tight ~n ~nwords:1 ~multi_run:false with
  | Mem_governor.Sort_spill { run_rows; read_entries } ->
      (* formation chunks must fit the leftover budget at 24 B/row *)
      Alcotest.(check bool) "run_rows bounded" true
        (run_rows >= 16 && run_rows * 24 <= (12 * n) - (8 * n));
      Alcotest.(check bool) "read_entries bounded" true
        (read_entries >= 16 && read_entries <= 65536)
  | Mem_governor.Sort_in_memory -> Alcotest.fail "overcommitted budget stayed in memory");
  (* budget below the minimum spill working set: a clear error, not a hang *)
  let hopeless = Mem_governor.create ~budget:100 () in
  Mem_governor.charge hopeless 90;
  match Mem_governor.plan_sort hopeless ~n:100_000 ~nwords:1 ~multi_run:false with
  | exception Mem_governor.Budget_too_small msg ->
      Alcotest.(check bool) "message names the budget" true (contains "memory budget" msg)
  | _ -> Alcotest.fail "impossible budget produced a plan"

let test_governor_parse_limit () =
  let check_parse s expected_budget expected_policy =
    let budget, policy = Mem_governor.parse_limit s in
    Alcotest.(check (option int)) (s ^ " budget") expected_budget budget;
    Alcotest.(check bool) (s ^ " policy") true (policy = expected_policy)
  in
  check_parse "spill" None Mem_governor.Always_spill;
  check_parse "1024" (Some 1024) Mem_governor.Auto;
  check_parse "64K" (Some (64 * 1024)) Mem_governor.Auto;
  check_parse "64k" (Some (64 * 1024)) Mem_governor.Auto;
  check_parse "512M" (Some (512 * 1024 * 1024)) Mem_governor.Auto;
  check_parse "2G" (Some (2 * 1024 * 1024 * 1024)) Mem_governor.Auto;
  List.iter
    (fun bad ->
      match Mem_governor.parse_limit bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "parse_limit accepted %S" bad)
    [ ""; "abc"; "12Q"; "-5"; "0"; "K" ]

let test_governor_spill_dir () =
  let g = Mem_governor.create () in
  let dir = Mem_governor.spill_dir g in
  Alcotest.(check bool) "dir exists" true (Sys.is_directory dir);
  Alcotest.(check string) "dir stable" dir (Mem_governor.spill_dir g);
  let probe = Filename.concat dir "leftover" in
  let oc = open_out probe in
  output_string oc "x";
  close_out oc;
  Mem_governor.cleanup g;
  Alcotest.(check bool) "dir removed with contents" false (Sys.file_exists dir);
  Mem_governor.cleanup g (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Governed no-op path: goldens unchanged                              *)
(* ------------------------------------------------------------------ *)

(* Masks "<float> ms" wall times and "<float> kw" allocation counts: the
   governed no-op run may allocate a few extra words for its accounting,
   but every structural line — spans, rows, kinds, counters — must be
   byte-identical to the ungoverned run. *)
let mask_volatile s =
  let is_numch c = (c >= '0' && c <= '9') || c = '.' in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_numch s.[!i] then begin
      let j = ref !i in
      while !j < n && is_numch s.[!j] do
        incr j
      done;
      let unit_of k = if k + 3 <= n then String.sub s k 3 else "" in
      if unit_of !j = " ms" || unit_of !j = " kw" then begin
        Buffer.add_char b '#';
        Buffer.add_string b (unit_of !j);
        i := !j + 3
      end
      else begin
        Buffer.add_string b (String.sub s !i (!j - !i));
        i := !j
      end
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let sample_table rng n =
  Table.create
    [
      ("k", Column.ints (Array.init n (fun _ -> Rng.int rng 50)));
      ("g", Column.ints (Array.init n (fun _ -> Rng.int rng 4)));
      ("v", Column.floats (Array.init n (fun _ -> float_of_int (Rng.int rng 100) /. 2.0)));
    ]

let sample_query =
  "select sum(v) over (partition by g order by k rows between 5 preceding and current row) as s, \
   rank(order by v) over (partition by g order by k) as r from t"

let check_bits_identical expected actual =
  List.iter
    (fun (name, c0) ->
      let c = Table.column actual name in
      for r = 0 to Table.nrows expected - 1 do
        let v0 = Column.get c0 r and v = Column.get c r in
        let same =
          match (v0, v) with
          | Value.Float x, Value.Float y ->
              Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          | _ -> compare v0 v = 0
        in
        if not same then
          Alcotest.failf "row %d col %s: %s vs %s" r name (Value.to_string v0)
            (Value.to_string v)
      done)
    (Table.columns expected)

let test_noop_golden () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 47 in
      let table = sample_table rng 500 in
      let analyze ?governor () =
        let ((result, _) as run) =
          Sql.explain_analyze_trace ~pool ?governor ~tables:[ ("t", table) ] sample_query
        in
        (result, Sql.render_analyze sample_query run)
      in
      let plain, report_plain = analyze () in
      (* a budget far above the working set: every decision is in-memory *)
      let governed, report_gov = analyze ~governor:(Mem_governor.create ~budget:(1 lsl 30) ()) () in
      Alcotest.(check string) "masked reports identical" (mask_volatile report_plain)
        (mask_volatile report_gov);
      Alcotest.(check bool) "no spill provenance" false (contains "spilled" report_gov);
      check_bits_identical plain governed)

let test_spilled_golden () =
  (* under forced spilling the sort span carries spilled=(runs=…, …) and
     the result is still bit-identical *)
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 53 in
      let table = sample_table rng 500 in
      let plain = Sql.query ~pool ~tables:[ ("t", table) ] sample_query in
      let governor = Mem_governor.create ~policy:Mem_governor.Always_spill () in
      let spilled, report =
        Fun.protect
          ~finally:(fun () -> Mem_governor.cleanup governor)
          (fun () ->
            let ((result, _) as run) =
              Sql.explain_analyze_trace ~pool ~governor ~tables:[ ("t", table) ] sample_query
            in
            (result, Sql.render_analyze sample_query run))
      in
      Alcotest.(check bool) "spill provenance on the sort span" true
        (contains "spilled=(runs=" report);
      Alcotest.(check bool) "spill counters" true (contains "sort.spill_bytes" report);
      check_bits_identical plain spilled)

let test_spilled_mst_golden () =
  (* forced spilling governs the sorts only: merge sort trees are still
     built in memory, charged nothing, and give the ungoverned bits *)
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 67 in
      let table = sample_table rng 500 in
      let query =
        "select percentile_disc(0.5 order by v) over (partition by g order by k rows between 7 \
         preceding and 3 following) as m, lead(v order by v) over (partition by g order by k rows \
         between 4 preceding and 4 following) as l, rank(order by v) over (partition by g order \
         by k) as r from t"
      in
      let evaluator = Holistic_window.Evaluator_choice.Mst in
      let plain = Sql.query ~pool ~evaluator ~tables:[ ("t", table) ] query in
      let governor = Mem_governor.create ~policy:Mem_governor.Always_spill () in
      let spilled, tr =
        Fun.protect
          ~finally:(fun () -> Mem_governor.cleanup governor)
          (fun () ->
            Sql.explain_analyze_trace ~pool ~evaluator ~governor ~tables:[ ("t", table) ] query)
      in
      let trees =
        List.filter
          (fun (s : Obs.span) ->
            s.Obs.name = "build"
            && match List.assoc_opt "kind" s.Obs.args with
               | Some k -> String.starts_with ~prefix:"mst." k
               | None -> false)
          tr.Obs.spans
      in
      Alcotest.(check bool) "trees built" true (trees <> []);
      Alcotest.(check bool) "sorts spilled" true (fst (Mem_governor.totals governor) > 0);
      Alcotest.(check int) "nothing left charged" 0 (Mem_governor.live governor);
      check_bits_identical plain spilled)

let test_budget_too_small_sql () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 59 in
      let table = sample_table rng 10_000 in
      let governor = Mem_governor.create ~budget:100 () in
      (match Sql.query ~pool ~governor ~tables:[ ("t", table) ] sample_query with
      | exception Mem_governor.Budget_too_small msg ->
          Alcotest.(check bool) "explains the floor" true (contains "memory budget" msg)
      | _ -> Alcotest.fail "100-byte budget executed a 10k-row sort");
      Alcotest.(check int) "key words released after the refusal" 0 (Mem_governor.live governor))

(* A one-key stage sort that a column's order codes serve (every string
   column; a numeric one once a sort of all its rows left codes) is
   governed like any other: a tiny budget refuses it, and forced spilling
   spills it and gives the ungoverned bits. *)
let test_code_sort_governed () =
  let pool = Task_pool.create 1 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  let rng = Rng.create 71 in
  let n = 10_000 in
  let table =
    Table.create
      [
        ("s", Column.strings (Array.init n (fun _ -> Printf.sprintf "s%03d" (Rng.int rng 300))));
        ("k", Column.ints (Array.init n (fun _ -> Rng.int rng 500)));
      ]
  in
  List.iter
    (fun (col, query) ->
      (* the ungoverned run leaves [k]'s codes behind; [s] has them anyway *)
      let plain = Sql.query ~pool ~tables:[ ("t", table) ] query in
      let order = [ Sort_spec.desc (Expr.Col col) ] in
      Alcotest.(check bool) (col ^ ": served by codes") true (Key_codec.code_slots table order <> None);
      let tight = Mem_governor.create ~budget:100 () in
      (match Sql.query ~pool ~governor:tight ~tables:[ ("t", table) ] query with
      | exception Mem_governor.Budget_too_small _ -> ()
      | _ -> Alcotest.failf "%s: 100-byte budget executed a 10k-row sort" col);
      Alcotest.(check int) (col ^ ": released after the refusal") 0 (Mem_governor.live tight);
      let governor = Mem_governor.create ~policy:Mem_governor.Always_spill () in
      Fun.protect ~finally:(fun () -> Mem_governor.cleanup governor) @@ fun () ->
      let spilled = Sql.query ~pool ~governor ~tables:[ ("t", table) ] query in
      Alcotest.(check bool) (col ^ ": spilled") true (fst (Mem_governor.totals governor) > 0);
      Alcotest.(check int) (col ^ ": nothing left charged") 0 (Mem_governor.live governor);
      check_bits_identical plain spilled)
    [
      ("s", "select rank() over (order by s desc) as r from t");
      ("k", "select rank() over (order by k desc) as r from t");
    ]

(* A sort reports its own spill: after a spilled [Session.full_sort]
   under a governor, a plan under the same governor whose one sort fits
   in memory tags no sort span as spilled. *)
let test_spill_not_stale () =
  let pool = Task_pool.create 1 in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) @@ fun () ->
  let rng = Rng.create 73 in
  (* 20 000 rows overrun a 400 kB budget in memory; 100 rows fit *)
  let governor = Mem_governor.create ~budget:400_000 () in
  Fun.protect ~finally:(fun () -> Mem_governor.cleanup governor) @@ fun () ->
  let large = sample_table rng 20_000 and small = sample_table rng 100 in
  ignore
    (Session.full_sort ~gov:governor pool large ~pids:None ~order:[ Sort_spec.asc (Expr.Col "k") ]);
  Alcotest.(check bool) "the large sort spilled" true (fst (Mem_governor.totals governor) > 0);
  let totals = Mem_governor.totals governor in
  let query = "select rank() over (order by k) as r from t" in
  let _, tr = Sql.explain_analyze_trace ~pool ~governor ~tables:[ ("t", small) ] query in
  let sorts = List.filter (fun (s : Obs.span) -> s.Obs.name = "sort") tr.Obs.spans in
  Alcotest.(check int) "one sort" 1 (List.length sorts);
  List.iter
    (fun (s : Obs.span) ->
      Alcotest.(check (option string)) "no spilled arg" None (List.assoc_opt "spilled" s.Obs.args))
    sorts;
  Alcotest.(check (pair int int)) "the small sort spilled nothing" totals (Mem_governor.totals governor)

(* An IO fault inside a governed spilled sort surfaces as Run_file.Error
   and leaves the caller's governor with nothing charged, so the next
   statement under the same governor plans from a clean slate. *)
let test_spill_fault_releases () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 61 in
      let table = sample_table rng 500 in
      let plain = Sql.query ~pool ~tables:[ ("t", table) ] sample_query in
      let governor = Mem_governor.create ~policy:Mem_governor.Always_spill () in
      Fun.protect ~finally:(fun () -> Mem_governor.cleanup governor) @@ fun () ->
      let query () = Sql.query ~pool ~governor ~tables:[ ("t", table) ] sample_query in
      (with_faults_reset @@ fun () ->
       Run_file.Fault.enospc_after 0;
       match query () with
       | exception Run_file.Error _ -> ()
       | _ -> Alcotest.fail "spilled sort survived injected ENOSPC");
      Alcotest.(check int) "charges released after the fault" 0 (Mem_governor.live governor);
      check_bits_identical plain (query ());
      Alcotest.(check int) "and after the next statement" 0 (Mem_governor.live governor))

let () =
  Alcotest.run "spill"
    [
      ( "run-file",
        [
          Alcotest.test_case "roundtrip across sizes and widths" `Quick test_roundtrip;
          Alcotest.test_case "reader validation" `Quick test_reader_validation;
        ] );
      ( "faults",
        [
          Alcotest.test_case "ENOSPC propagates, abort cleans up" `Quick test_fault_enospc;
          Alcotest.test_case "short write detected" `Quick test_fault_short_write;
          Alcotest.test_case "checksum corruption detected" `Quick test_fault_checksum;
          Alcotest.test_case "spilled sort cleans up on failure" `Quick
            test_sort_spill_fault_cleanup;
        ] );
      ( "sort",
        [
          Alcotest.test_case "spilled sort = in-memory sort" `Quick test_sort_spill_identity;
          Alcotest.test_case "residual tie order preserved" `Quick test_sort_spill_tie;
          Alcotest.test_case "mixed memory/disk source merge" `Quick test_merge_sources_mixed;
        ] );
      ( "governor",
        [
          Alcotest.test_case "charge/release/peak" `Quick test_governor_accounting;
          Alcotest.test_case "plan_sort decisions" `Quick test_governor_plan_sort;
          Alcotest.test_case "parse_limit" `Quick test_governor_parse_limit;
          Alcotest.test_case "spill dir lifecycle" `Quick test_governor_spill_dir;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "no-op governed run keeps goldens" `Quick test_noop_golden;
          Alcotest.test_case "forced spill tags spans, same bits" `Quick test_spilled_golden;
          Alcotest.test_case "forced spill builds trees in memory, same bits" `Quick
            test_spilled_mst_golden;
          Alcotest.test_case "budget below working set errors" `Quick test_budget_too_small_sql;
          Alcotest.test_case "code-served sorts are governed" `Quick test_code_sort_governed;
          Alcotest.test_case "a sort reports only its own spill" `Quick test_spill_not_stale;
          Alcotest.test_case "spill fault releases governor charges" `Quick
            test_spill_fault_releases;
        ] );
    ]
