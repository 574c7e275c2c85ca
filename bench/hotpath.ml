(* Hot-path performance benchmark — the recorded artifact behind the
   allocation-lean event loop / PDU pipeline and the domain-parallel
   trial runner.  Writes BENCH_hotpath.json with three sections:

   - "timer":    a schedule/cancel churn microbench on a bare engine
                 (90% of timers cancelled, like retransmission timers
                 on a healthy flow) — bytes allocated per event and
                 events per wall second;
   - "pipeline": a 3-node RINA line relaying a 2 Mb/s CBR stream — the
                 full delimit/EFCP/RMT/relay/link path, per engine
                 event;
   - "sweep":    the same seeded trial list run sequentially and on 4
                 domains through Rina_exp.Par, with a byte-equality
                 check of the merged outputs.

   The "baseline" block holds the numbers measured on this machine
   immediately before the hot-path pass (unboxed heap access, timer
   wheel, cancel compaction, encode-once relay), so improvement ratios
   are part of the artifact, not a claim in a commit message.

   Environment knobs (used by CI):
   - RINA_BENCH_SMOKE=1  small scale (seconds, not minutes); the two
     headline metrics are rates, so they stay comparable;
   - RINA_BENCH_CHECK=1  before overwriting BENCH_hotpath.json, parse
     the committed copy and exit 1 if events/sec regressed by more
     than 25% (or bytes/event grew by more than 25%). *)

module Engine = Rina_sim.Engine
module Fault = Rina_sim.Fault
module Prng = Rina_util.Prng
module Ipcp = Rina_core.Ipcp
module Topo = Rina_exp.Topo
module Scenario = Rina_exp.Scenario
module Workload = Rina_exp.Workload
module Par = Rina_exp.Par

let host_cores () = Domain.recommended_domain_count ()

let smoke () = Sys.getenv_opt "RINA_BENCH_SMOKE" <> None

let json_path = "BENCH_hotpath.json"

(* Measured on the pre-PR tree (same machine, same scales) by this very
   bench; see docs/performance.md for how to re-derive them. *)
let baseline_timer_bytes_per_event = 224.1
let baseline_timer_events_per_sec = 3_085_639.
let baseline_pipeline_bytes_per_event = 2_323.9
let baseline_pipeline_events_per_sec = 455_673.
let baseline_sweep_trials_per_sec = 32.956

type sample = { events : int; wall : float; alloc : float }

let bytes_per_event s =
  if s.events = 0 then 0. else s.alloc /. float_of_int s.events

let events_per_sec s =
  if s.wall <= 0. then 0. else float_of_int s.events /. s.wall

(* Engine events and this domain's allocation over [f]. *)
let measure engine f =
  let e0 = Engine.executed engine in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  {
    events = Engine.executed engine - e0;
    wall;
    alloc = Gc.allocated_bytes () -. a0;
  }

(* ---------- timer churn microbench ---------- *)

(* Per-timer accounting, not per-pop: the pre-PR engine popped every
   cancelled timer individually (so timers scheduled = events popped),
   while the current engine reaps them in bulk — counting scheduled
   timers keeps the denominator comparable across both. *)
let timer_churn () =
  let engine = Engine.create () in
  let rng = Prng.create 7 in
  let rounds = if smoke () then 100 else 2_000 in
  let nop () = () in
  let s =
    measure engine (fun () ->
        for _ = 1 to rounds do
          let base = Engine.now engine in
          let handles =
            Array.init 1_000 (fun _ ->
                Engine.schedule ~lane:Engine.Timer engine
                  ~delay:(Prng.float rng 1.0) nop)
          in
          for i = 0 to 899 do
            Engine.cancel handles.(i)
          done;
          Engine.run ~until:(base +. 1.0) engine
        done;
        Engine.run engine)
  in
  { s with events = rounds * 1_000 }

(* ---------- PDU pipeline microbench ---------- *)

let pdu_pipeline () =
  let net = Topo.line ~seed:11 ~n:3 () in
  let engine = net.Topo.engine in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:1 ~sink () with
  | Error e -> failwith ("hotpath: pipeline flow allocation failed: " ^ e)
  | Ok (flow, _) ->
    let dur = if smoke () then 2.0 else 12.0 in
    let t0 = Engine.now engine in
    let s =
      measure engine (fun () ->
          Workload.cbr engine ~send:flow.Ipcp.send ~rate:2_000_000. ~size:1_000
            ~until:(t0 +. dur) ();
          Engine.run ~until:(t0 +. dur +. 1.0) engine)
    in
    (s, sink.Workload.count)

(* ---------- seeded trial sweep (sequential vs domains) ---------- *)

(* One self-contained chaos trial: private engine/PRNG/metrics, a CBR
   stream over a 3-node relay line with two random faults.  Returns a
   JSON line; byte-equality of the concatenated lines is the
   determinism check. *)
let trial ~seed =
  let net = Topo.line ~seed ~n:3 () in
  let engine = net.Topo.engine in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:1 ~sink () with
  | Error e -> Printf.sprintf "{\"seed\": %d, \"error\": %S}" seed e
  | Ok (flow, _) ->
    let t0 = Engine.now engine in
    let rng = Prng.create (seed lxor 0x5DEECE66) in
    let plan =
      Scenario.random_plan net ~rng ~horizon:12.0 ~faults:2 ()
    in
    Fault.arm plan engine;
    Workload.cbr engine ~send:flow.Ipcp.send ~rate:1_000_000. ~size:500
      ~until:(t0 +. 10.) ();
    Engine.run ~until:(t0 +. 14.) engine;
    Printf.sprintf
      "{\"seed\": %d, \"delivered\": %d, \"relayed\": %d, \"flow_errors\": %d, \
       \"faults\": %d}"
      seed sink.Workload.count
      (Scenario.sum_rmt_metric net "relayed")
      (Scenario.sum_metric net "flow_errors")
      (List.length (Fault.events plan))

type sweep = {
  trials : int;
  seq_s : float;
  par_s : float;
  par_domains : int;
  identical : bool;
}

let sweep () =
  let seeds = List.init (if smoke () then 4 else 12) (fun i -> 1000 + i) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_s = timed (fun () -> Par.run_trials ~domains:1 ~seeds trial) in
  let par_domains = 4 in
  let par, par_s =
    timed (fun () -> Par.run_trials ~domains:par_domains ~seeds trial)
  in
  let identical =
    String.equal (String.concat "\n" seq) (String.concat "\n" par)
  in
  { trials = List.length seeds; seq_s; par_s; par_domains; identical }

(* ---------- JSON artifact + CI regression gate ---------- *)

let pct_reduction ~baseline ~current =
  if baseline <= 0. then 0. else 100. *. (baseline -. current) /. baseline

let speedup ~baseline ~current = if baseline <= 0. then 0. else current /. baseline

let render ~timer ~pipeline ~delivered ~sw =
  let sweep_tps = if sw.seq_s > 0. then float_of_int sw.trials /. sw.seq_s else 0. in
  (* A wall-clock speedup claim is only honest with real parallel
     hardware under it: on a single-core host the domains time-slice,
     so the speedup is recorded as 0 ("not claimable") there. *)
  let honest ~seq ~par =
    if host_cores () > 1 && par > 0. then seq /. par else 0.
  in
  Printf.sprintf
    "{\n\
    \  \"host_cores\": %d,\n\
    \  \"smoke\": %b,\n\
    \  \"baseline\": {\n\
    \    \"timer_bytes_per_event\": %.1f,\n\
    \    \"timer_events_per_sec\": %.0f,\n\
    \    \"pipeline_bytes_per_event\": %.1f,\n\
    \    \"pipeline_events_per_sec\": %.0f,\n\
    \    \"sweep_trials_per_sec\": %.3f\n\
    \  },\n\
    \  \"current\": {\n\
    \    \"timer_bytes_per_event\": %.1f,\n\
    \    \"timer_events_per_sec\": %.0f,\n\
    \    \"pipeline_bytes_per_event\": %.1f,\n\
    \    \"pipeline_events_per_sec\": %.0f,\n\
    \    \"pipeline_delivered\": %d,\n\
    \    \"sweep_trials\": %d,\n\
    \    \"sweep_seq_s\": %.3f,\n\
    \    \"sweep_par_s\": %.3f,\n\
    \    \"sweep_par_domains\": %d,\n\
    \    \"sweep_trials_per_sec\": %.3f,\n\
    \    \"sweep_speedup\": %.3f,\n\
    \    \"sweep_par_identical\": %b\n\
    \  },\n\
    \  \"improvement\": {\n\
    \    \"timer_alloc_reduction_pct\": %.1f,\n\
    \    \"pipeline_alloc_reduction_pct\": %.1f,\n\
    \    \"timer_throughput_speedup\": %.3f,\n\
    \    \"pipeline_throughput_speedup\": %.3f\n\
    \  }\n\
     }\n"
    (Domain.recommended_domain_count ())
    (smoke ())
    baseline_timer_bytes_per_event baseline_timer_events_per_sec
    baseline_pipeline_bytes_per_event baseline_pipeline_events_per_sec
    baseline_sweep_trials_per_sec (bytes_per_event timer)
    (events_per_sec timer) (bytes_per_event pipeline)
    (events_per_sec pipeline) delivered sw.trials sw.seq_s sw.par_s
    sw.par_domains sweep_tps
    (honest ~seq:sw.seq_s ~par:sw.par_s)
    sw.identical
    (pct_reduction ~baseline:baseline_timer_bytes_per_event
       ~current:(bytes_per_event timer))
    (pct_reduction ~baseline:baseline_pipeline_bytes_per_event
       ~current:(bytes_per_event pipeline))
    (speedup ~baseline:baseline_timer_events_per_sec
       ~current:(events_per_sec timer))
    (speedup ~baseline:baseline_pipeline_events_per_sec
       ~current:(events_per_sec pipeline))

(* Last occurrence of ["name": <number>] in [text] — "current" values
   shadow "baseline" ones, which is what the CI gate wants. *)
let find_field text name =
  let needle = Printf.sprintf "\"%s\":" name in
  let nlen = String.length needle and tlen = String.length text in
  let rec last_at from acc =
    if from >= tlen then acc
    else
      match String.index_from_opt text from needle.[0] with
      | None -> acc
      | Some i ->
        if i + nlen <= tlen && String.equal (String.sub text i nlen) needle
        then last_at (i + nlen) (Some (i + nlen))
        else last_at (i + 1) acc
  in
  match last_at 0 None with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < tlen
      && (match text.[!stop] with
         | ',' | '\n' | '}' -> false
         | _ -> true)
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub text start (!stop - start)))

let ci_gate ~timer ~pipeline =
  match
    if Sys.file_exists json_path then
      Some (In_channel.with_open_text json_path In_channel.input_all)
    else None
  with
  | None ->
    Printf.printf "hotpath: no committed %s; skipping regression gate\n"
      json_path;
    true
  | Some old ->
    let ok = ref true in
    let check name ~current ~higher_is_better =
      match find_field old name with
      | None -> ()
      | Some committed when committed <= 0. -> ()
      | Some committed ->
        let ratio = current /. committed in
        let bad =
          if higher_is_better then ratio < 0.75 else ratio > 1.25
        in
        Printf.printf "hotpath gate: %-26s committed %10.1f now %10.1f  %s\n"
          name committed current
          (if bad then "REGRESSED" else "ok");
        if bad then ok := false
    in
    check "timer_events_per_sec" ~current:(events_per_sec timer)
      ~higher_is_better:true;
    check "pipeline_events_per_sec" ~current:(events_per_sec pipeline)
      ~higher_is_better:true;
    check "timer_bytes_per_event" ~current:(bytes_per_event timer)
      ~higher_is_better:false;
    check "pipeline_bytes_per_event" ~current:(bytes_per_event pipeline)
      ~higher_is_better:false;
    !ok

let run () =
  let timer = timer_churn () in
  Printf.printf "hotpath timer churn: %d events, %.1f B/event, %.0f events/s\n%!"
    timer.events (bytes_per_event timer) (events_per_sec timer);
  let pipeline, delivered = pdu_pipeline () in
  Printf.printf
    "hotpath pdu pipeline: %d events, %d SDUs delivered, %.1f B/event, %.0f \
     events/s\n\
     %!"
    pipeline.events delivered (bytes_per_event pipeline)
    (events_per_sec pipeline);
  let sw = sweep () in
  Printf.printf
    "hotpath sweep: %d trials, seq %.2fs, %d-domain %.2fs (x%.2f), outputs \
     %s\n\
     %!"
    sw.trials sw.seq_s sw.par_domains sw.par_s
    (if sw.par_s > 0. then sw.seq_s /. sw.par_s else 0.)
    (if sw.identical then "identical" else "DIVERGED");
  if not sw.identical then begin
    Printf.eprintf "hotpath: parallel sweep diverged from sequential output\n";
    exit 1
  end;
  let gate_ok =
    Sys.getenv_opt "RINA_BENCH_CHECK" = None || ci_gate ~timer ~pipeline
  in
  Out_channel.with_open_text json_path (fun oc ->
      Out_channel.output_string oc (render ~timer ~pipeline ~delivered ~sw));
  Printf.printf "wrote %s\n" json_path;
  if not gate_ok then begin
    Printf.eprintf "hotpath: performance regressed >25%% vs committed %s\n"
      json_path;
    exit 1
  end
