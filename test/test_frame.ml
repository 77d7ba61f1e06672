(* Direct unit tests of per-row frame-bound computation (Frame module);
   end-to-end frame semantics are additionally covered by the window oracle
   in test_window.ml. *)

open Holistic_storage
open Holistic_window

let mk_table () =
  Table.create
    [
      ("t", Column.ints [| 10; 20; 20; 30; 40; 50 |]);
      ("v", Column.of_values [| Value.Int 1; Value.Int 2; Value.Null; Value.Int 4; Value.Null; Value.Int 6 |]);
      ("off", Column.ints [| 0; 1; 2; 3; 0; 1 |]);
    ]

let rows = [| 0; 1; 2; 3; 4; 5 |] (* already in t order *)

let bounds frame_spec order =
  let table = mk_table () in
  let spec = Window_spec.over ~order_by:order ~frame:frame_spec () in
  let f = Frame.compute table ~spec ~rows in
  Array.init 6 (fun r -> (Frame.start_ f r, Frame.end_ f r))

let t_asc = [ Sort_spec.asc (Expr.Col "t") ]

let ip = Alcotest.(pair int int)

let test_rows_constant () =
  let b = bounds (Window_spec.rows_between (Window_spec.preceding 1) (Window_spec.following 1)) t_asc in
  Alcotest.(check (array ip)) "sliding rows"
    [| (0, 2); (0, 3); (1, 4); (2, 5); (3, 6); (4, 6) |]
    b

let test_rows_expression_bounds () =
  (* start = r - off(r): per-row offsets *)
  let b =
    bounds (Window_spec.rows_between (Window_spec.Preceding (Expr.Col "off")) Window_spec.Current_row) t_asc
  in
  Alcotest.(check (array ip)) "per-row offsets"
    [| (0, 1); (0, 2); (0, 3); (0, 4); (4, 5); (4, 6) |]
    b

let test_rows_negative_offset_rejected () =
  let table = mk_table () in
  let spec =
    Window_spec.over ~order_by:t_asc
      ~frame:
        (Window_spec.rows_between
           (Window_spec.Preceding (Expr.Const (Value.Int (-1))))
           Window_spec.Current_row)
      ()
  in
  Alcotest.check_raises "negative offset" (Invalid_argument "Frame: negative frame offset")
    (fun () -> ignore (Frame.compute table ~spec ~rows))

let test_range_value_bounds () =
  (* t values: 10 20 20 30 40 50; RANGE 10 preceding .. current row *)
  let b = bounds (Window_spec.range_between (Window_spec.preceding 10) Window_spec.Current_row) t_asc in
  Alcotest.(check (array ip)) "value windows"
    [| (0, 1); (0, 3); (0, 3); (1, 4); (3, 5); (4, 6) |]
    b

let test_range_current_row_peers () =
  (* CURRENT ROW end includes the whole peer group (the two 20s) *)
  let b = bounds (Window_spec.range_between Window_spec.Unbounded_preceding Window_spec.Current_row) t_asc in
  Alcotest.(check (array ip)) "peer-extended frames"
    [| (0, 1); (0, 3); (0, 3); (0, 4); (0, 5); (0, 6) |]
    b

let test_range_desc () =
  let t_desc = [ Sort_spec.desc (Expr.Col "t") ] in
  let rows_desc = [| 5; 4; 3; 2; 1; 0 |] in
  let table = mk_table () in
  let spec =
    Window_spec.over ~order_by:t_desc
      ~frame:(Window_spec.range_between (Window_spec.preceding 10) Window_spec.Current_row)
      ()
  in
  let f = Frame.compute table ~spec ~rows:rows_desc in
  (* order: 50 40 30 20 20 10; "10 preceding" = values up to 10 larger *)
  Alcotest.(check (array ip)) "descending range"
    [| (0, 1); (0, 2); (1, 3); (2, 5); (2, 5); (3, 6) |]
    (Array.init 6 (fun r -> (Frame.start_ f r, Frame.end_ f r)))

let test_range_nulls_peer_group () =
  (* order by v asc: values 1 2 4 6 NULL NULL (nulls last); offset bounds on
     the null rows frame their peer group *)
  let table = mk_table () in
  let v_asc = [ Sort_spec.asc (Expr.Col "v") ] in
  let rows_v = [| 0; 1; 3; 5; 2; 4 |] in
  let spec =
    Window_spec.over ~order_by:v_asc
      ~frame:(Window_spec.range_between (Window_spec.preceding 1) Window_spec.Current_row)
      ()
  in
  let f = Frame.compute table ~spec ~rows:rows_v in
  Alcotest.(check ip) "null row frames its null peers" (4, 6)
    (Frame.start_ f 4, Frame.end_ f 4);
  Alcotest.(check ip) "non-null row ignores nulls" (0, 2) (Frame.start_ f 1, Frame.end_ f 1)

let test_groups_mode () =
  let b =
    bounds (Window_spec.groups_between (Window_spec.preceding 1) Window_spec.Current_row) t_asc
  in
  (* groups: {10} {20,20} {30} {40} {50} *)
  Alcotest.(check (array ip)) "group windows"
    [| (0, 1); (0, 3); (0, 3); (1, 4); (3, 5); (4, 6) |]
    b

let test_exclusion_ranges () =
  let table = mk_table () in
  let mk exclusion =
    let spec =
      Window_spec.over ~order_by:t_asc
        ~frame:
          (Window_spec.rows_between ~exclusion Window_spec.Unbounded_preceding
             Window_spec.Unbounded_following)
        ()
    in
    Frame.compute table ~spec ~rows
  in
  let f = mk Window_spec.Exclude_current_row in
  Alcotest.(check (array ip)) "current row excluded" [| (0, 2); (3, 6) |] (Frame.ranges f 2);
  Alcotest.(check int) "covered" 5 (Frame.covered f 2);
  let f = mk Window_spec.Exclude_group in
  (* rows 1 and 2 are peers (t=20) *)
  Alcotest.(check (array ip)) "group excluded" [| (0, 1); (3, 6) |] (Frame.ranges f 1);
  let f = mk Window_spec.Exclude_ties in
  (* peers of row 1 are {1, 2}; dropping the ties leaves 0,1,3,4,5 with the
     pieces around the kept row coalescing into (0,2) *)
  Alcotest.(check (array ip)) "ties excluded, self kept" [| (0, 2); (3, 6) |] (Frame.ranges f 1);
  let f = mk Window_spec.Exclude_no_others in
  Alcotest.(check (array ip)) "no exclusion" [| (0, 6) |] (Frame.ranges f 1)

let test_exclusion_at_edges () =
  let table = mk_table () in
  let spec =
    Window_spec.over ~order_by:t_asc
      ~frame:
        (Window_spec.rows_between ~exclusion:Window_spec.Exclude_current_row
           Window_spec.Current_row (Window_spec.following 2))
      ()
  in
  let f = Frame.compute table ~spec ~rows in
  (* frame [r, r+3) minus r = [r+1, r+3) — a hole at the edge leaves one range *)
  Alcotest.(check (array ip)) "edge hole" [| (1, 3) |] (Frame.ranges f 0);
  Alcotest.(check (array ip)) "last row: empty" [||] (Frame.ranges f 5)

(* Every exclusion mode against a position-set oracle: per-row offsets
   (so frames jump and may be empty) over tables with long peer groups.
   [ranges] must be the maximal runs of the frame's positions outside its
   holes, and [covered] their count. *)
let test_exclusion_oracle () =
  let rng = Holistic_util.Rng.create 23 in
  let modes =
    Window_spec.[ Exclude_no_others; Exclude_current_row; Exclude_group; Exclude_ties ]
  in
  for _ = 1 to 60 do
    let n = 1 + Holistic_util.Rng.int rng 12 in
    let t = Array.make n 0 in
    for i = 1 to n - 1 do
      t.(i) <- t.(i - 1) + Holistic_util.Rng.int rng 2
    done;
    let offs () = Array.init n (fun _ -> Holistic_util.Rng.int rng 5) in
    let table =
      Table.create [ ("t", Column.ints t); ("a", Column.ints (offs ())); ("b", Column.ints (offs ())) ]
    in
    let rows = Array.init n (fun i -> i) in
    List.iter
      (fun exclusion ->
        let spec =
          Window_spec.over ~order_by:t_asc
            ~frame:
              (Window_spec.rows_between ~exclusion
                 (Window_spec.Preceding (Expr.Col "a"))
                 (Window_spec.Following (Expr.Col "b")))
            ()
        in
        let f = Frame.compute table ~spec ~rows in
        for r = 0 to n - 1 do
          let in_hole p =
            let peer = p >= Frame.peer_start f r && p < Frame.peer_end f r in
            match exclusion with
            | Window_spec.Exclude_no_others -> false
            | Window_spec.Exclude_current_row -> p = r
            | Window_spec.Exclude_group -> peer
            | Window_spec.Exclude_ties -> peer && p <> r
          in
          let runs = ref [] and count = ref 0 in
          for p = Frame.start_ f r to Frame.end_ f r - 1 do
            if not (in_hole p) then begin
              incr count;
              match !runs with
              | (lo, hi) :: rest when hi = p -> runs := (lo, p + 1) :: rest
              | l -> runs := (p, p + 1) :: l
            end
          done;
          let expect = Array.of_list (List.rev !runs) in
          Alcotest.(check (array ip)) (Printf.sprintf "ranges n=%d r=%d" n r) expect (Frame.ranges f r);
          Alcotest.(check int) (Printf.sprintf "covered n=%d r=%d" n r) !count (Frame.covered f r)
        done)
      modes
  done

let test_empty_frame () =
  let b =
    bounds (Window_spec.rows_between (Window_spec.following 3) (Window_spec.preceding 3)) t_asc
  in
  Array.iteri
    (fun r (s, e) -> if s <> e then Alcotest.failf "row %d: expected empty frame, got (%d,%d)" r s e)
    b

let test_unbounded_inversions () =
  (* start=UNBOUNDED FOLLOWING / end=UNBOUNDED PRECEDING yield empty frames *)
  let b =
    bounds
      (Window_spec.rows_between Window_spec.Unbounded_following Window_spec.Unbounded_following)
      t_asc
  in
  Alcotest.(check ip) "start at np" (6, 6) b.(0);
  let b =
    bounds
      (Window_spec.rows_between Window_spec.Unbounded_preceding Window_spec.Unbounded_preceding)
      t_asc
  in
  Alcotest.(check ip) "end at 0" (0, 0) b.(3)

let test_range_requires_single_key () =
  let table = mk_table () in
  let spec =
    Window_spec.over
      ~order_by:[ Sort_spec.asc (Expr.Col "t"); Sort_spec.asc (Expr.Col "v") ]
      ~frame:(Window_spec.range_between (Window_spec.preceding 1) Window_spec.Current_row)
      ()
  in
  Alcotest.check_raises "multi-key range with offsets"
    (Invalid_argument "Frame: RANGE with offsets requires exactly one ORDER BY key") (fun () ->
      ignore (Frame.compute table ~spec ~rows))

let test_default_frames () =
  let table = mk_table () in
  (* with ORDER BY: range unbounded preceding .. current row (peers) *)
  let f =
    Frame.compute table ~spec:(Window_spec.over ~order_by:t_asc ()) ~rows
  in
  Alcotest.(check ip) "default ordered frame" (0, 3) (Frame.start_ f 1, Frame.end_ f 1);
  (* without ORDER BY: the whole partition *)
  let f = Frame.compute table ~spec:(Window_spec.over ()) ~rows in
  Alcotest.(check ip) "default unordered frame" (0, 6) (Frame.start_ f 3, Frame.end_ f 3)

let () =
  Alcotest.run "frame"
    [
      ( "rows",
        [
          Alcotest.test_case "constant offsets" `Quick test_rows_constant;
          Alcotest.test_case "expression offsets" `Quick test_rows_expression_bounds;
          Alcotest.test_case "negative offset rejected" `Quick test_rows_negative_offset_rejected;
        ] );
      ( "range",
        [
          Alcotest.test_case "value bounds" `Quick test_range_value_bounds;
          Alcotest.test_case "current row peers" `Quick test_range_current_row_peers;
          Alcotest.test_case "descending" `Quick test_range_desc;
          Alcotest.test_case "null peer groups" `Quick test_range_nulls_peer_group;
          Alcotest.test_case "requires single key" `Quick test_range_requires_single_key;
        ] );
      ("groups", [ Alcotest.test_case "group offsets" `Quick test_groups_mode ]);
      ( "exclusion",
        [
          Alcotest.test_case "all modes" `Quick test_exclusion_ranges;
          Alcotest.test_case "edge holes" `Quick test_exclusion_at_edges;
          Alcotest.test_case "position-set oracle" `Quick test_exclusion_oracle;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "inverted bounds" `Quick test_empty_frame;
          Alcotest.test_case "unbounded inversions" `Quick test_unbounded_inversions;
          Alcotest.test_case "default frames" `Quick test_default_frames;
        ] );
    ]
