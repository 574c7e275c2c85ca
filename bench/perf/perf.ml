(* The recursive-DIF simulator's benchmark.

     perf.exe [--seed N] [--smoke] [--trace 0|1|FILE] [--out FILE]
     perf.exe --workload NAME --seed N --seconds S --trace 0|1
     perf.exe compare A.json B.json

   Without --workload every workload runs: one discarded warm-up round,
   then 5 measured rounds interleaved round-robin, each on a
   fresh topology after a heap compaction.  With --workload only that
   workload runs, for --seconds of measured rounds, and the last line
   printed is a JSON summary of the metrics BENCHMARK.json names.
   Tracing adds one traced round per workload, the stage ledger and,
   for stack3, the recursion-depth series; spans go to FILE (default
   perf-spans.jsonl).  See README.md. *)

open Perfkit
module W = Workloads

type settings = {
  seed : int;
  smoke : bool;
  workloads : W.t list;
  rounds : int;
  spans_file : string option;
}

let shrink s = if s.smoke then 20. else 1.

let round s w ~spans = Runner.run_round w ~seed:s.seed ~shrink:(shrink s) ~spans

(* [setup_s] is the median of at least this many set-ups per run. *)
let setup_samples = 10

(* The stack3 stream through 1, 2 and 3 ranks, interleaved. *)
let recursion s =
  let passes = if s.smoke then 1 else 3 in
  List.init passes (fun _ ->
      List.concat_map
        (fun depth ->
          let r = round s (W.recursion ~depth) ~spans:None in
          let rate = List.assoc "sdus_per_s" r.Runner.e2e in
          [
            (Printf.sprintf "recursion.us_per_sdu.depth%d" depth, 1e6 /. rate);
            ( Printf.sprintf "recursion.alloc_bytes_per_sdu.depth%d" depth,
              List.assoc "alloc_bytes_per_sdu" r.Runner.e2e );
          ])
        [ 1; 2; 3 ])

let run s =
  if not s.smoke then List.iter (fun w -> ignore (round s w ~spans:None)) s.workloads;
  let measured = List.map (fun w -> (w, ref [])) s.workloads in
  for _ = 1 to s.rounds do
    List.iter (fun (w, acc) -> acc := round s w ~spans:None :: !acc) measured
  done;
  let traced_oc = Option.map open_out s.spans_file in
  let ledger = if traced_oc = None then [] else Ledger.run ~smoke:s.smoke in
  let results =
    List.map
      (fun (w, acc) ->
        let rounds = List.rev !acc in
        let fingerprints = List.sort_uniq compare (List.map (fun r -> r.Runner.fingerprint) rounds) in
        let deterministic = List.length fingerprints = 1 in
        if not deterministic then
          Printf.eprintf "%s: deterministic metrics differ between rounds of seed %d\n%!"
            w.W.name s.seed;
        let untraced = List.map (fun r -> r.Runner.e2e @ r.Runner.layer) rounds in
        let extra_setups =
          if s.smoke then []
          else
            List.init
              (max 0 (setup_samples - List.length rounds))
              (fun _ -> [ ("setup_s", Runner.setup_only w ~seed:s.seed ~shrink:(shrink s)) ])
        in
        let traced =
          match traced_oc with
          | None -> []
          | Some oc ->
            let sp = Spans.create () in
            let r = round s w ~spans:(Some sp) in
            Spans.write_jsonl sp oc ~workload:w.W.name;
            let rate rs =
              Report.value_of "sdus_per_s" (Array.of_list (List.map (List.assoc "sdus_per_s") rs))
            in
            let overhead = rate (List.map (fun r -> r.Runner.e2e) rounds) /. rate [ r.Runner.e2e ] in
            let fresh =
              List.filter (fun (k, _) -> not (List.mem_assoc k (List.hd untraced))) r.Runner.layer
            in
            [ (("trace.overhead_ratio", overhead) :: fresh) @ ledger ]
            @ if String.equal w.W.name W.stack3.W.name then recursion s else []
        in
        let ops = List.fold_left (fun acc r -> acc + r.Runner.ops) 0 rounds in
        let failed = List.fold_left (fun acc r -> acc + r.Runner.failed) 0 rounds in
        {
          Report.workload = w.W.name;
          ops;
          failed;
          correct = failed = 0 && deterministic;
          rows = Report.rows_of (untraced @ extra_setups @ traced);
        })
      measured
  in
  Option.iter close_out traced_oc;
  results

let usage =
  "perf.exe [--seed N] [--smoke] [--workload NAME] [--seconds S] [--trace \
   0|1|FILE] [--out FILE] [--bench FILE]\n\
   perf.exe compare A.json B.json [--bench FILE]"

let () =
  let seed = ref 1 and smoke = ref false and workload = ref None in
  let seconds = ref None and trace = ref "0" in
  let out = ref "perf-results.json" and bench = ref "BENCHMARK.json" in
  let positional = ref [] in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N  seed of every generated input (default 1)");
      ("--smoke", Arg.Set smoke, " shrink simulated durations 20x, one round, no warm-up");
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME  run one workload");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S  as many rounds (at least 3) as take S seconds on the reference host" );
      ("--trace", Arg.Set_string trace, "0|1|FILE  add traced rounds, spans to FILE");
      ("--out", Arg.Set_string out, "FILE  results file (default perf-results.json)");
      ("--bench", Arg.Set_string bench, "FILE  benchmark description (default BENCHMARK.json)");
    ]
  in
  Arg.parse specs (fun a -> positional := !positional @ [ a ]) usage;
  let bench_json () =
    try Json.of_file !bench
    with Sys_error e | Json.Parse_error e ->
      prerr_endline ("perf: cannot read benchmark description: " ^ e);
      exit 2
  in
  match !positional with
  | [ "compare"; a; b ] ->
    let worse = Report.compare (bench_json ()) a b in
    exit (if worse > 0 then 1 else 0)
  | _ :: _ ->
    prerr_endline usage;
    exit 2
  | [] ->
    let bench = bench_json () in
    let workloads =
      match !workload with
      | None -> W.all
      | Some name -> (
        match W.find name with
        | Some w -> [ w ]
        | None ->
          prerr_endline ("perf: unknown workload " ^ name);
          exit 2)
    in
    let spans_file =
      match !trace with "0" -> None | "1" -> Some "perf-spans.jsonl" | file -> Some file
    in
    let s =
      {
        seed = !seed;
        smoke = !smoke;
        workloads;
        rounds =
          (if !smoke then 1
           else
             match !seconds with
             | None -> 5
             | Some sec ->
               let per_pass = List.fold_left (fun acc w -> acc +. w.W.round_s) 0. workloads in
               max 3 (int_of_float (Float.round (sec /. per_pass))));
        spans_file;
      }
    in
    let results = run s in
    Report.print_header ();
    List.iter Report.print_rows results;
    Report.write_results !out ~seed:!seed ~smoke:!smoke results;
    let ok = List.for_all (fun w -> w.Report.correct) results in
    (match results with
     | [ w ] -> (
       match Report.summary_line bench ~traced:(spans_file <> None) w with
       | Ok line -> print_endline line
       | Error missing ->
         prerr_endline ("perf: metrics not produced: " ^ String.concat ", " missing);
         exit 1)
     | _ -> ());
    exit (if ok then 0 else 1)
