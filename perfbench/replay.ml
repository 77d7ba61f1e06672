(* The traced replay: one statement's window work re-driven layer by layer
   through each layer's public function, every call wrapped in a benchmark
   span and timed from outside.  The replay follows the plan the engine
   runs — [Window_plan.schedule]'s stages, a full sort per partition group
   and partial re-sorts inside inherited boundaries after it, one frame per
   clause and one structure cache per (stage, partition) — with every item
   pinned to the backend the engine picked, so it measures the same work.
   Two layers have no public entry point of their own, so their times come
   from the engine's own spans instead: the plan's partial re-sort (its
   [sort kind=partial] spans in the traced statement, which include that
   stage's key compile) and the evaluators' rank encoding (the
   [build kind=encode] spans [Build_cache.encode] opens inside
   [Evaluators.eval_item], moved out of the item's build time). *)

open Holistic_storage
open Holistic_window
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Parallel_sort = Holistic_sort.Parallel_sort
module Wf = Window_func

let classes = [ "percentile"; "distinct"; "rank"; "value"; "sum" ]

type cls = { mutable build_ns : int; mutable probe_ns : int; mutable rows : int }

(* Per-layer totals over every replayed statement: ns and the rows the
   layer processed, plus the layers' work counts. *)
type acc = {
  mutable partition_ns : int;
  mutable partition_rows : int;
  mutable codec_ns : int;
  mutable codec_rows : int;
  mutable codec_keys : int;
  mutable codec_words : int;
  mutable residual_sorts : int;
  mutable sort_ns : int;
  mutable sort_rows : int;
  mutable spill_ns : int;
  mutable spill_rows : int;
  mutable spill_runs : int;
  mutable spill_bytes : int;
  mutable spill_input_bytes : int;
  mutable frame_ns : int;
  mutable frame_rows : int;
  mutable encode_ns : int;
  mutable encode_rows : int;
  per_class : (string * cls) list;
  mutable parity_failures : int;
}

let create () =
  {
    partition_ns = 0;
    partition_rows = 0;
    codec_ns = 0;
    codec_rows = 0;
    codec_keys = 0;
    codec_words = 0;
    residual_sorts = 0;
    sort_ns = 0;
    sort_rows = 0;
    spill_ns = 0;
    spill_rows = 0;
    spill_runs = 0;
    spill_bytes = 0;
    spill_input_bytes = 0;
    frame_ns = 0;
    frame_rows = 0;
    encode_ns = 0;
    encode_rows = 0;
    per_class = List.map (fun c -> (c, { build_ns = 0; probe_ns = 0; rows = 0 })) classes;
    parity_failures = 0;
  }

(* The layer time the statement actually spends: what [trace.coverage]
   sums.  An item's first evaluation (build + probe) counts; the second
   one exists only to split it. *)
let covered_ns a =
  a.partition_ns + a.codec_ns + a.frame_ns + a.encode_ns
  + (if a.spill_rows > 0 then a.spill_ns else a.sort_ns)
  + List.fold_left (fun s (_, c) -> s + c.build_ns + c.probe_ns) 0 a.per_class

let timed ?args name f =
  let t0 = Obs.now_ns () in
  let r = Obs.span ?args name f in
  (r, Obs.now_ns () - t0)

let class_of (it : Wf.t) =
  match it.Wf.func with
  | Wf.Percentile_disc _ | Wf.Percentile_cont _ -> "percentile"
  | Wf.Aggregate { distinct = true; _ } -> "distinct"
  | Wf.Rank _ | Wf.Dense_rank _ | Wf.Row_number _ | Wf.Percent_rank _ | Wf.Cume_dist _ | Wf.Ntile _ -> "rank"
  | Wf.First_value _ | Wf.Last_value _ | Wf.Nth_value _ | Wf.Lead _ | Wf.Lag _ | Wf.Mode _ -> "value"
  | Wf.Aggregate _ -> "sum"

let pin picks (c : Window_plan.clause) =
  {
    c with
    Window_plan.items =
      List.map
        (fun (it : Wf.t) ->
          match Option.bind (List.assoc_opt it.Wf.name picks) Evaluator_choice.of_string with
          | Some nm -> { it with Wf.algorithm = Evaluator_choice.to_algorithm nm }
          | None -> it)
        c.Window_plan.items;
  }

(* [run] replays the statement's clauses over [table] (its input after
   WHERE) and returns the item columns the evaluators wrote, in original
   row order.  [spill] is the governor budget and spill directory of a
   capped statement.  [partial] is the (ns, rows) of the engine's partial
   re-sorts in the traced run of the statement.  Parity failures (a
   replayed sort that differs from [Session.full_sort] or
   [Window_plan.order_permutation]) are counted in [acc]. *)
let run acc ~pool ?spill ~picks ~partial table clauses =
  let n = Table.nrows table in
  let outputs =
    List.concat_map
      (fun (c : Window_plan.clause) ->
        List.map (fun (it : Wf.t) -> (it.Wf.name, Array.make n Value.Null)) c.Window_plan.items)
      clauses
  in
  let gov = Option.map (fun (budget, dir) -> Mem_governor.create ~budget ~dir ()) spill in
  Fun.protect ~finally:(fun () -> Option.iter Mem_governor.cleanup gov) @@ fun () ->
  List.iter
    (fun (g : Window_plan.group) ->
      let pids, ns = timed "layer.partition" (fun () -> Session.partition_ids pool table g.Window_plan.partition_by) in
      acc.partition_ns <- acc.partition_ns + ns;
      acc.partition_rows <- acc.partition_rows + n;
      let base = ref None in
      List.iter
        (fun (st : Window_plan.stage) ->
          let order = st.Window_plan.order in
          let compile pids =
            let kc, ns = timed "layer.key_codec" (fun () -> Key_codec.compile ?pids table order) in
            acc.codec_ns <- acc.codec_ns + ns;
            acc.codec_rows <- acc.codec_rows + n;
            acc.codec_keys <- acc.codec_keys + 1;
            acc.codec_words <- acc.codec_words + Array.length kc.Key_codec.words;
            if kc.Key_codec.residual <> None then acc.residual_sorts <- acc.residual_sorts + 1;
            kc
          in
          let full_sort () =
            let kc = compile pids in
            let words = kc.Key_codec.words and tie = kc.Key_codec.residual in
            let (perm, key0), ns = timed "layer.sort" (fun () -> Parallel_sort.sort_encoded pool ~n ~words ?tie ()) in
            acc.sort_ns <- acc.sort_ns + ns;
            acc.sort_rows <- acc.sort_rows + n;
            (match gov with
            | Some g when Array.length words > 0 ->
                let nwords = Array.length words in
                let c_words = 8 * nwords * n in
                let multi_run = Task_pool.size pool > 1 && n > Task_pool.default_task_size in
                Mem_governor.charge g c_words;
                (match Mem_governor.plan_sort g ~n ~nwords ~multi_run with
                | Mem_governor.Sort_in_memory -> ()
                | Mem_governor.Sort_spill { run_rows; read_entries } ->
                    let (sperm, runs, bytes), ns =
                      timed "layer.spill_sort" (fun () ->
                          Parallel_sort.sort_encoded_spill ~n ~words ?tie ~run_rows ~read_entries
                            ~dir:(Mem_governor.spill_dir g) ())
                    in
                    if sperm <> perm then acc.parity_failures <- acc.parity_failures + 1;
                    acc.spill_ns <- acc.spill_ns + ns;
                    acc.spill_rows <- acc.spill_rows + n;
                    acc.spill_runs <- acc.spill_runs + runs;
                    acc.spill_bytes <- acc.spill_bytes + bytes;
                    acc.spill_input_bytes <- acc.spill_input_bytes + c_words);
                Mem_governor.release g c_words
            | _ -> ());
            let boundaries =
              match kc.Key_codec.pid_divisor with
              | None -> [| 0; n |]
              | Some divisor -> Session.boundaries_of_key0 ~key0 ~divisor n
            in
            (perm, boundaries)
          in
          let perm, boundaries =
            match !base with
            | None ->
                let ((perm, _) as r) = full_sort () in
                let over = Window_spec.over ~partition_by:g.Window_plan.partition_by ~order_by:order () in
                let engine, _, _ = Session.full_sort pool table ~pids ~order in
                let planned, _ = Window_plan.order_permutation ~pool table ~over in
                if engine <> perm || planned <> perm then acc.parity_failures <- acc.parity_failures + 1;
                base := Some r;
                r
            | Some (_, bnds) when pids = None -> (fst (full_sort ()), bnds)
            | Some (_, bnds) ->
                (* a partial re-sort: its time is the engine's (see
                   [partial]), which includes this compile, so the compile
                   only counts key words here; the permutation it must
                   produce is the full (PARTITION BY, ORDER BY) sort's *)
                let kc = Key_codec.compile table order in
                acc.codec_keys <- acc.codec_keys + 1;
                acc.codec_words <- acc.codec_words + Array.length kc.Key_codec.words;
                if kc.Key_codec.residual <> None then acc.residual_sorts <- acc.residual_sorts + 1;
                let over = Window_spec.over ~partition_by:g.Window_plan.partition_by ~order_by:order () in
                (fst (Window_plan.order_permutation ~pool table ~over), bnds)
          in
          for p = 0 to Array.length boundaries - 2 do
            let lo = boundaries.(p) and hi = boundaries.(p + 1) in
            if hi > lo then begin
              let rows = if lo = 0 && hi = n then perm else Array.sub perm lo (hi - lo) in
              let len = hi - lo in
              let cache = Build_cache.create () in
              let peers = Hashtbl.create 4 in
              List.iter
                (fun (c : Window_plan.clause) ->
                  let c = pin picks c in
                  let spec = c.Window_plan.spec in
                  let worder = spec.Window_spec.order_by in
                  let frame, ns =
                    timed "layer.frame" (fun () ->
                        let pr =
                          match Hashtbl.find_opt peers worder with
                          | Some pr -> pr
                          | None ->
                              let pr = Frame.peers table worder rows in
                              Hashtbl.add peers worder pr;
                              pr
                        in
                        Frame.compute ~peers:pr table ~spec ~rows)
                  in
                  acc.frame_ns <- acc.frame_ns + ns;
                  acc.frame_rows <- acc.frame_rows + len;
                  List.iter
                    (fun (it : Wf.t) ->
                      let ctx =
                        {
                          Evaluators.table;
                          pool;
                          rows;
                          frame;
                          window_order = worder;
                          fanout = 32;
                          sample = 32;
                          task_size = Task_pool.default_task_size;
                          width = Holistic_core.Mst_width.Auto;
                          cache;
                          gov;
                        }
                      in
                      let out = List.assoc it.Wf.name outputs in
                      let cls = class_of it in
                      let (), first =
                        timed "layer.build_probe"
                          ~args:(fun () -> [ ("class", cls); ("rows", string_of_int len) ])
                          (fun () -> Evaluators.eval_item ctx it ~out)
                      in
                      let (), again = timed "layer.probe" (fun () -> Evaluators.eval_item ctx it ~out) in
                      let k = List.assoc cls acc.per_class in
                      k.build_ns <- k.build_ns + max 0 (first - again);
                      k.probe_ns <- k.probe_ns + min first again;
                      k.rows <- k.rows + len)
                    c.Window_plan.items)
                st.Window_plan.members
            end
          done)
        g.Window_plan.stages)
    (Window_plan.schedule clauses);
  acc.sort_ns <- acc.sort_ns + fst partial;
  acc.sort_rows <- acc.sort_rows + snd partial;
  outputs

(* Rank encoding, from the engine's [build kind=encode] spans in a replay's
   capture: each one's time moves from the enclosing item's build (the
   [layer.build_probe] span above it on the calling domain) to the encode
   layer, with that partition's rows. *)
let attribute_encodes acc (spans : Obs.span list) =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.Obs.id s) spans;
  let rec item (s : Obs.span) =
    match Hashtbl.find_opt by_id s.Obs.parent with
    | Some p when p.Obs.name = "layer.build_probe" -> Some p
    | Some p -> item p
    | None -> None
  in
  List.iter
    (fun (s : Obs.span) ->
      if s.Obs.name = "build" && List.assoc_opt "kind" s.Obs.args = Some "encode" then
        Option.iter
          (fun (p : Obs.span) ->
            let k = List.assoc (List.assoc "class" p.Obs.args) acc.per_class in
            k.build_ns <- k.build_ns - s.Obs.dur_ns;
            acc.encode_ns <- acc.encode_ns + s.Obs.dur_ns;
            acc.encode_rows <- acc.encode_rows + int_of_string (List.assoc "rows" p.Obs.args))
          (item s))
    spans
