open Perfkit

let close_to = Alcotest.float 1e-9

let arr = Array.map float_of_int

(* Expected quartiles are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, m, q3 = Summary.quartiles (arr [| 5; 1; 4; 2; 3 |]) in
  Alcotest.check close_to "q1 of 1..5" 1.5 q1;
  Alcotest.check close_to "median of 1..5" 3. m;
  Alcotest.check close_to "q3 of 1..5" 4.5 q3;
  let q1, m, q3 = Summary.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.check close_to "q1 of 1..10" 2.75 q1;
  Alcotest.check close_to "median of 1..10" 5.5 m;
  Alcotest.check close_to "q3 of 1..10" 8.25 q3;
  let q1, m, q3 = Summary.quartiles [| 7. |] in
  List.iter (Alcotest.check close_to "single value" 7.) [ q1; m; q3 ]

let test_median_percentile () =
  Alcotest.check close_to "odd median" 2. (Summary.median (arr [| 3; 1; 2 |]));
  Alcotest.check close_to "even median" 2.5 (Summary.median (arr [| 4; 1; 3; 2 |]));
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close_to "p50 of 1..100" 50. (Summary.percentile hundred 50.);
  Alcotest.check close_to "p99 of 1..100" 99. (Summary.percentile hundred 99.);
  Alcotest.check close_to "p100 of 1..100" 100. (Summary.percentile hundred 100.);
  Alcotest.check close_to "p99 of one" 5. (Summary.percentile [| 5. |] 99.);
  Alcotest.check close_to "spread" 1. (Summary.spread (arr [| 5; 1; 4; 2; 3 |]))

let test_self_time () =
  Alcotest.(check int) "no children" 100 (Spans.self_time ~start:0 ~stop:100 []);
  Alcotest.(check int)
    "nested children" 80
    (Spans.self_time ~start:0 ~stop:100 [ (50, 60); (10, 20) ]);
  Alcotest.(check int)
    "overlapping children count once" 70
    (Spans.self_time ~start:0 ~stop:100 [ (15, 30); (10, 20); (50, 60); (52, 58) ]);
  Alcotest.(check int)
    "children clipped to the parent" 90
    (Spans.self_time ~start:0 ~stop:100 [ (-5, 5); (95, 120) ]);
  Alcotest.(check int) "union of nothing" 0 (Spans.union_length [])

(* Online aggregation: a parent's self time is its duration minus its
   children's, to the nanosecond. *)
let test_span_aggregates () =
  let sp = Spans.create () in
  Spans.start_recording sp;
  let busy () =
    let t = Spans.now_ns () in
    while Spans.now_ns () - t < 20_000 do
      ()
    done
  in
  Spans.span sp Spans.Engine_run (fun () ->
      busy ();
      Spans.span sp Spans.Link_tx busy;
      Spans.span sp Spans.Ipcp_rx_local (fun () -> Spans.span sp Spans.Link_tx busy));
  let a = Spans.agg sp in
  Alcotest.(check int) "link.tx spans" 2 (a Spans.Link_tx).Spans.count;
  Alcotest.(check int)
    "engine.run self = total - children" (a Spans.Engine_run).Spans.self_ns
    ((a Spans.Engine_run).Spans.total_ns - (a Spans.Link_tx).Spans.total_ns
    - (a Spans.Ipcp_rx_local).Spans.self_ns);
  Alcotest.(check bool) "self time positive" true ((a Spans.Engine_run).Spans.self_ns > 0);
  Alcotest.(check int) "every span kept" 4 sp.Spans.kept

let bench_file = "../../BENCHMARK.json"

let read_lines ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

(* A --smoke run passes its output checks and prints every metric
   BENCHMARK.json names, in the unit it declares, for every workload it
   names. *)
let test_smoke () =
  let ic =
    Unix.open_process_args_in "./perf.exe"
      [| "./perf.exe"; "--smoke"; "--trace"; "smoke-spans.jsonl"; "--out"; "smoke-results.json";
         "--bench"; bench_file |]
  in
  let lines = read_lines ic in
  Alcotest.(check bool) "exit 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  let bench = Json.of_file bench_file in
  let field k m = Option.get (Option.bind (Json.member k m) Json.to_str) in
  let declared key = Json.to_list (Option.get (Json.member key bench)) in
  let printed = Hashtbl.create 1024 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | w :: m :: rest -> Hashtbl.replace printed (w, m) (l, rest)
      | _ -> ())
    lines;
  List.iter
    (fun w ->
      let w = field "name" w in
      (match Hashtbl.find_opt printed (w, "checks") with
       | Some (l, _) ->
         Alcotest.(check bool) (w ^ " checks pass") true (String.ends_with ~suffix:" ok" l)
       | None -> Alcotest.failf "%s: no checks line" w);
      List.iter
        (fun m ->
          let name = field "name" m in
          match Hashtbl.find_opt printed (w, name) with
          | Some (_, [ _value; _q1; _q3; unit; _rounds ]) ->
            Alcotest.(check string) (w ^ " " ^ name ^ " unit") (field "unit" m) unit
          | Some (l, _) -> Alcotest.failf "%s: malformed row %S" w l
          | None -> Alcotest.failf "%s: %s not printed" w name)
        (declared "end_to_end" @ declared "per_layer"))
    (declared "workloads");
  let spans = In_channel.with_open_text "smoke-spans.jsonl" In_channel.input_all in
  Alcotest.(check bool) "spans written" true (String.length spans > 0)

let () =
  Alcotest.run "perf"
    [
      ( "summary",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "median and percentile" `Quick test_median_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "online aggregates" `Quick test_span_aggregates;
        ] );
      ("smoke", [ Alcotest.test_case "every named metric, checks pass" `Quick test_smoke ]);
    ]
