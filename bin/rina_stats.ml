(* rina_stats — render telemetry stats files.

   Reads the canonical JSONL a Telemetry registry exports
   (Rina_util.Telemetry.to_jsonl, as written by any experiment run
   with RINA_STATS=file set) and prints counters, the live snapshot series,
   histogram quantiles and per-series timelines.

     rina_stats run.stats.jsonl
     rina_stats --json run.stats.jsonl     # canonical re-emit

   Because the export is canonical (fixed line order, canonical number
   formatting), `rina_stats --json` is also a normalizer: two stats
   files describe the same run iff the --json outputs are identical.

   Exit status: 0 on success, 2 if the file cannot be read or parsed. *)

open Cmdliner
module Telemetry = Rina_util.Telemetry
module Sketch = Rina_util.Sketch

let print_counters t =
  print_string "counters:\n";
  List.iter
    (fun name ->
      let n = Telemetry.counter t name in
      if n <> 0 || name = "events" then Printf.printf "  %-18s %d\n" name n)
    (Telemetry.counter_names t)

let print_snapshots t =
  match Telemetry.snapshots t with
  | [] -> ()
  | snaps ->
    Printf.printf "snapshots (%d intervals):\n" (List.length snaps);
    Printf.printf "  %10s %10s %8s %8s %8s\n" "t" "events" "sent" "recvd" "drop";
    List.iter
      (fun (s : Telemetry.snapshot) ->
        Printf.printf "  %10.3f %10d %8d %8d %8d\n" s.Telemetry.at
          s.Telemetry.events s.Telemetry.sent s.Telemetry.recvd
          s.Telemetry.dropped)
      snaps

(* Latency sketches hold seconds; probe and custom sketches hold raw
   sample values.  Scale only the former to ms. *)
let hist_scale name = if String.length name >= 7 && String.sub name 0 7 = "latency" then 1000. else 1.

let hist_unit name = if hist_scale name = 1000. then " (ms)" else ""

let print_hists t =
  match Telemetry.hist_names t with
  | [] -> ()
  | names ->
    print_string "distributions:\n";
    Printf.printf "  %-24s %8s %8s %8s %8s %8s\n" "sketch" "n" "p50" "p90"
      "p99" "max";
    List.iter
      (fun name ->
        match Telemetry.hist t name with
        | None -> ()
        | Some h ->
          let k = hist_scale name in
          let q p = k *. Sketch.Hist.quantile h p in
          Printf.printf "  %-24s %8d %8.3f %8.3f %8.3f %8.3f\n"
            (name ^ hist_unit name)
            (Sketch.Hist.count h) (q 0.5) (q 0.9) (q 0.99)
            (k *. Sketch.Hist.max_value h))
      names

let print_series t =
  match Telemetry.series_names t with
  | [] -> ()
  | names ->
    print_string "time series (per-interval counts):\n";
    List.iter
      (fun name ->
        match Telemetry.series t name with
        | None -> ()
        | Some s ->
          let w = Sketch.Series.bucket_width s in
          let counts = Sketch.Series.counts s in
          let peak =
            List.fold_left (fun (bi, bn) (i, n) -> if n > bn then (i, n) else (bi, bn))
              (0, 0) counts
          in
          Printf.printf "  %-24s total %-8d peak %d at t=[%g, %g)\n" name
            (Sketch.Series.total s) (snd peak)
            (float_of_int (fst peak) *. w)
            (float_of_int (fst peak + 1) *. w))
      names

let run file json =
  match Telemetry.load_jsonl file with
  | Error e ->
    Printf.eprintf "rina_stats: %s\n" e;
    2
  | Ok t ->
    if json then print_string (Telemetry.to_jsonl t)
    else begin
      if Telemetry.latency_ppm t < 1_000_000 then
        Printf.printf
          "note: span latency head-sampled at %g%% (counters and series are \
           exact)\n"
          (float_of_int (Telemetry.latency_ppm t) /. 10_000.);
      print_counters t;
      print_snapshots t;
      print_hists t;
      print_series t
    end;
    0

let cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STATS" ~doc:"Telemetry stats file (JSONL).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Re-emit the canonical JSONL instead of the text view.")
  in
  Cmd.v
    (Cmd.info "rina_stats" ~version:"1.0.0"
       ~doc:"Render streaming-telemetry stats (counters, snapshots, sketches)")
    Term.(const run $ file $ json)

let () = exit (Cmd.eval' cmd)
