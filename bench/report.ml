(* Unified bench reporting substrate (ISSUE 5): every experiment emits one
   common JSON schema — experiment name, parameters, gated metrics,
   counters, histograms and free-form series — and the regression gate
   ([check.ml]) compares a fresh run against the committed baselines in
   bench/baselines/ using the per-metric tolerances embedded here.

   The schema, "holiwin-bench/1":

     {
       "schema": "holiwin-bench/1",
       "experiment": "sql-multiwindow",
       "params":   { "rows": 40000, ... },
       "metrics":  { "speedup": { "value": 1.8, "unit": "x",
                                  "direction": "higher", "tolerance": 0.35 },
                     "plan_s":  { "value": 0.12, "unit": "s",
                                  "direction": "lower", "tolerance": null } },
       "counters": { "plan.full_sorts": 2, ... },
       "histograms": { "bench.plan_ns": { "count": 3, "sum": ..., "min": ...,
                                          "max": ..., "p50": ..., "p90": ...,
                                          "p99": ... } },
       "series":   [ ... experiment-specific ... ]
     }

   Only metrics with a non-null tolerance are gated; the rest (absolute
   wall times above all) are reported for trend reading but never fail
   CI, because the CI machine is not the machine the baseline was
   recorded on.  Gated metrics are machine-independent by construction:
   speedup ratios, build counts, structure bytes.

   The JSON value type, printer and parser are the shared
   [Holistic_util.Json] codec. *)

module Obs = Holistic_obs.Obs
module Json = Holistic_util.Json
open Json

let schema_id = "holiwin-bench/1"

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Json.parse (really_input_string ic (in_channel_length ic)))

let save path j =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true j);
  close_out oc

let to_string_opt = function J_string s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type direction = Lower_better | Higher_better

type metric = {
  value : float;
  unit_ : string;
  direction : direction;
  tolerance : float option;
      (* relative slack for the gate; [None] = report-only (absolute wall
         times: machine-dependent, never gated) *)
}

let metric ?(unit_ = "") ?(direction = Lower_better) ?tolerance value =
  { value; unit_; direction; tolerance }

let direction_to_string = function Lower_better -> "lower" | Higher_better -> "higher"

let direction_of_string = function
  | "higher" -> Higher_better
  | _ -> Lower_better

let json_of_metric m =
  J_obj
    [
      ("value", J_float m.value);
      ("unit", J_string m.unit_);
      ("direction", J_string (direction_to_string m.direction));
      ("tolerance", match m.tolerance with None -> J_null | Some t -> J_float t);
    ]

let metric_of_json j =
  match to_float (Option.value ~default:J_null (member "value" j)) with
  | None -> None
  | Some value ->
      Some
        {
          value;
          unit_ = Option.value ~default:"" (Option.bind (member "unit" j) to_string_opt);
          direction =
            direction_of_string
              (Option.value ~default:"lower" (Option.bind (member "direction" j) to_string_opt));
          tolerance = Option.bind (member "tolerance" j) to_float;
        }

let json_of_hist_summary (s : Obs.Histogram.summary) =
  J_obj
    [
      ("count", J_int s.Obs.Histogram.count);
      ("sum", J_int s.Obs.Histogram.sum);
      ("min", J_int s.Obs.Histogram.min);
      ("max", J_int s.Obs.Histogram.max);
      ("p50", J_int s.Obs.Histogram.p50);
      ("p90", J_int s.Obs.Histogram.p90);
      ("p99", J_int s.Obs.Histogram.p99);
    ]

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let make ~experiment ?(params = []) ?(metrics = []) ?(counters = []) ?(histograms = [])
    ?series () =
  J_obj
    ([
       ("schema", J_string schema_id);
       ("experiment", J_string experiment);
       ("params", J_obj params);
       ("metrics", J_obj (List.map (fun (k, m) -> (k, json_of_metric m)) metrics));
       ("counters", J_obj (List.map (fun (k, v) -> (k, J_int v)) counters));
       ( "histograms",
         J_obj (List.map (fun (k, s) -> (k, json_of_hist_summary s)) histograms) );
     ]
    @ match series with None -> [] | Some s -> [ ("series", s) ])

let write ~experiment ?params ?metrics ?counters ?histograms ?series path =
  save path (make ~experiment ?params ?metrics ?counters ?histograms ?series ())

(* ------------------------------------------------------------------ *)
(* The regression gate                                                 *)
(* ------------------------------------------------------------------ *)

type check = {
  metric_name : string;
  baseline : float;
  fresh : float option;
  m_direction : direction;
  m_tolerance : float option;
  ok : bool;
}

(* A gated metric passes when the fresh value stays within the relative
   tolerance of the baseline in the metric's bad direction (improvements
   never fail): lower-is-better fails when fresh > base·(1+t),
   higher-is-better fails when fresh < base/(1+t).  A missing fresh value
   fails.  The tiny absolute epsilon keeps exactly-zero baselines from
   rejecting exactly-zero fresh values to rounding. *)
let check_metric name (base : metric) (fresh : metric option) =
  let fresh_v = Option.map (fun m -> m.value) fresh in
  let ok =
    match base.tolerance with
    | None -> true
    | Some t -> (
        match fresh_v with
        | None -> false
        | Some f -> (
            match base.direction with
            | Lower_better -> f <= (base.value *. (1.0 +. t)) +. 1e-9
            | Higher_better -> f >= (base.value /. (1.0 +. t)) -. 1e-9))
  in
  {
    metric_name = name;
    baseline = base.value;
    fresh = fresh_v;
    m_direction = base.direction;
    m_tolerance = base.tolerance;
    ok;
  }

let metrics_of json =
  match member "metrics" json with
  | Some (J_obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun m -> (k, m)) (metric_of_json v)) kvs
  | _ -> []

let experiment_of json =
  Option.value ~default:"?" (Option.bind (member "experiment" json) to_string_opt)

(* Compare a fresh report against its baseline: one [check] per baseline
   metric, in baseline order.  Metrics only present in the fresh run are
   ignored (they gate once a baseline embedding them is committed). *)
let compare_reports ~baseline ~fresh =
  let fresh_metrics = metrics_of fresh in
  List.map
    (fun (name, base) -> check_metric name base (List.assoc_opt name fresh_metrics))
    (metrics_of baseline)

let violations checks = List.filter (fun c -> not c.ok) checks
