(* Metric rows, the printed table, the results file, the one-line run
   summary, and the comparison of two results files. *)

type row = { metric : string; unit : string; values : float array }

type workload_result = {
  workload : string;
  ops : int;
  failed : int;
  correct : bool;
  rows : row list;
}

let units =
  [
    ("sdus_per_s", "SDU/s");
    ("alloc_bytes_per_sdu", "B/SDU");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
    ("engine.events_per_sdu", "events/SDU");
    ("engine.self_us_per_sdu", "us/SDU");
    ("engine.slice_us_per_sdu_p50", "us/SDU");
    ("engine.slice_us_per_sdu_p99", "us/SDU");
    ("link.frames_per_sdu", "frames/SDU");
    ("link.tx_us_per_frame", "us/frame");
    ("link.wire_bytes_per_payload_byte", "B/B");
    ("link.drops", "count");
    ("ipcp.rx_relay_us_per_frame", "us/frame");
    ("ipcp.rx_local_us_per_frame", "us/frame");
    ("ipcp.tx_us_per_sdu", "us/SDU");
    ("efcp.pdus_per_sdu", "PDUs/SDU");
    ("efcp.acks_per_sdu", "acks/SDU");
    ("efcp.rtx_ratio", "ratio");
    ("efcp.dup_rcvd", "count");
    ("rmt.relayed_per_sdu", "frames/SDU");
    ("rmt.drops", "count");
    ("mgmt.alloc_call_us_p50", "us");
    ("mgmt.alloc_call_us_p99", "us");
    ("mgmt.close_call_us_p50", "us");
    ("mgmt.alloc_ms_p50", "sim_ms");
    ("mgmt.alloc_ms_p99", "sim_ms");
    ("mgmt.mgmt_tx_per_flow", "PDUs/flow");
    ("routing.spf_runs", "count");
    ("routing.lsa_tx", "count");
    ("setup.converge_s", "s");
    ("setup.flows_s", "s");
    ("gc.minor_per_ksdu", "GCs/kSDU");
    ("gc.major_per_round", "count");
    ("gc.promoted_bytes_per_sdu", "B/SDU");
    ("trace.overhead_ratio", "ratio");
  ]

let unit_of metric =
  match List.assoc_opt metric units with
  | Some u -> u
  | None ->
    if String.starts_with ~prefix:"sim_" metric then "sim_ms"
    else if String.starts_with ~prefix:"recursion.us_per_sdu" metric then "us/SDU"
    else if String.starts_with ~prefix:"recursion.alloc_bytes_per_sdu" metric then "B/SDU"
    else if String.ends_with ~suffix:".ns" metric then "ns"
    else if String.ends_with ~suffix:".bytes" metric then "B"
    else "value"

(* Rows of every metric present in the samples, in first-seen order. *)
let rows_of (samples : (string * float) list list) =
  let names =
    List.fold_left
      (fun acc sample ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc sample)
      [] samples
  in
  List.map
    (fun metric ->
      {
        metric;
        unit = unit_of metric;
        values = Array.of_list (List.filter_map (List.assoc_opt metric) samples);
      })
    names

(* The value a row reports: the median of its samples, except for the
   wall-clock rate, which is the fastest round.  Rounds are identical
   work, and interference on a shared host only ever slows a round down;
   on the reference host the fastest round's spread between runs is
   about half the median's (README.md). *)
let value_of metric values =
  if String.equal metric "sdus_per_s" then Array.fold_left Float.max neg_infinity values
  else Summary.median values

let value r = value_of r.metric r.values

let print_header () =
  Printf.printf "%-12s %-36s %14s %14s %14s %-10s %s\n" "workload" "metric" "value" "q1" "q3"
    "unit" "rounds"

let print_rows w =
  List.iter
    (fun r ->
      let q1, _, q3 = Summary.quartiles r.values in
      Printf.printf "%-12s %-36s %14.6g %14.6g %14.6g %-10s %d\n" w.workload r.metric (value r)
        q1 q3 r.unit (Array.length r.values))
    w.rows;
  Printf.printf "%-12s %-36s ops %d failed %d %s\n%!" w.workload "checks" w.ops w.failed
    (if w.correct then "ok" else "FAILED")

let to_json ~seed ~smoke results =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("smoke", Json.Bool smoke);
      ( "workloads",
        Json.Arr
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("name", Json.Str w.workload);
                   ("ops", Json.Num (float_of_int w.ops));
                   ("failed", Json.Num (float_of_int w.failed));
                   ("correct", Json.Bool w.correct);
                   ( "metrics",
                     Json.Arr
                       (List.map
                          (fun r ->
                            let q1, m, q3 = Summary.quartiles r.values in
                            Json.Obj
                              [
                                ("name", Json.Str r.metric);
                                ("unit", Json.Str r.unit);
                                ("value", Json.Num (value r));
                                ("median", Json.Num m);
                                ("q1", Json.Num q1);
                                ("q3", Json.Num q3);
                                ("rounds", Json.Num (float_of_int (Array.length r.values)));
                                ( "values",
                                  Json.Arr
                                    (List.map (fun v -> Json.Num v) (Array.to_list r.values)) );
                              ])
                          w.rows) );
                 ])
             results) );
    ]

let write_results path ~seed ~smoke results =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json ~seed ~smoke results));
      Out_channel.output_char oc '\n')

(* ---------- BENCHMARK.json ---------- *)

type declared = { name : string; better : string; bound : float option }

let declared bench key =
  List.filter_map
    (fun m ->
      match Option.bind (Json.member "name" m) Json.to_str with
      | None -> None
      | Some name ->
        Some
          {
            name;
            better = Option.value ~default:"lower" (Option.bind (Json.member "better" m) Json.to_str);
            bound = Option.bind (Json.member "bound" m) Json.to_num;
          })
    (Json.to_list (Option.value ~default:Json.Null (Json.member key bench)))

(* The last line of a single-workload run: the metrics BENCHMARK.json
   names, end-to-end ones untraced and per-layer ones traced.  [Error]
   lists the names the run did not produce. *)
let summary_line bench ~traced w =
  let wanted = declared bench (if traced then "per_layer" else "end_to_end") in
  let missing =
    List.filter (fun d -> not (List.exists (fun r -> r.metric = d.name) w.rows)) wanted
  in
  if missing <> [] then Error (List.map (fun d -> d.name) missing)
  else
    Ok
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool w.correct);
              ("attempted", Json.Num (float_of_int w.ops));
              ("failed", Json.Num (float_of_int w.failed));
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun d ->
                       let r = List.find (fun r -> r.metric = d.name) w.rows in
                       ( d.name,
                         Json.Obj [ ("value", Json.Num (value r)); ("unit", Json.Str r.unit) ] ))
                     wanted) );
            ]))

(* ---------- compare ---------- *)

type side = { s_value : float; s_median : float; s_q1 : float; s_q3 : float }

let read_results path =
  List.map
    (fun w ->
      let name = Option.value ~default:"" (Option.bind (Json.member "name" w) Json.to_str) in
      let metrics =
        List.filter_map
          (fun m ->
            let num k = Option.bind (Json.member k m) Json.to_num in
            match
              ( Option.bind (Json.member "name" m) Json.to_str,
                num "value",
                num "median",
                num "q1",
                num "q3" )
            with
            | Some n, Some s_value, Some s_median, Some s_q1, Some s_q3 ->
              Some (n, { s_value; s_median; s_q1; s_q3 })
            | _ -> None)
          (Json.to_list (Option.value ~default:Json.Null (Json.member "metrics" w)))
      in
      (name, metrics))
    (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" (Json.of_file path))))

let rel_spread s = if s.s_median = 0. then 0. else Float.abs (s.s_q3 -. s.s_q1) /. Float.abs s.s_median

(* [change] is the relative move of the reported value, positive when
   worse.  Unresolved when either side's quartile spread exceeds the
   bound; worse when the value moved the wrong way by more than the
   bound; better when it moved the right way by more than the first
   side's own spread; unchanged otherwise. *)
let verdict ~better ~bound a b =
  let change =
    if a.s_value = 0. then 0.
    else
      let d = (b.s_value -. a.s_value) /. Float.abs a.s_value in
      if String.equal better "higher" then -.d else d
  in
  let v =
    if Float.max (rel_spread a) (rel_spread b) > bound then "unresolved"
    else if change > bound then "worse"
    else if change < 0. && -.change > rel_spread a then "better"
    else "unchanged"
  in
  (change, v)

let compare bench a_path b_path =
  let a = read_results a_path and b = read_results b_path in
  let bounded = List.filter (fun d -> d.bound <> None) (declared bench "end_to_end") in
  Printf.printf "%-12s %-22s %36s %36s %8s %s\n" "workload" "metric" "A value [q1 q3]"
    "B value [q1 q3]" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (workload, a_metrics) ->
      match List.assoc_opt workload b with
      | None -> ()
      | Some b_metrics ->
        List.iter
          (fun d ->
            match (List.assoc_opt d.name a_metrics, List.assoc_opt d.name b_metrics) with
            | Some sa, Some sb ->
              let bound = Option.value ~default:0. d.bound in
              let change, v = verdict ~better:d.better ~bound sa sb in
              if String.equal v "worse" then incr worse;
              let show s = Printf.sprintf "%.6g [%.6g %.6g]" s.s_value s.s_q1 s.s_q3 in
              Printf.printf "%-12s %-22s %36s %36s %+7.2f%% %s\n" workload d.name (show sa)
                (show sb) (100. *. change) v
            | _ -> ())
          bounded)
    a;
  !worse
