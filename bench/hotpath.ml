(* Hot-path performance benchmark — the recorded artifact behind the
   allocation-lean event loop / PDU pipeline and the domain-parallel
   trial runner.  A full run writes BENCH_hotpath.json with three
   sections:

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
     headline metrics are rates, so they stay comparable.  A smoke run
     prints its figures and writes nothing;
   - RINA_BENCH_CHECK=1  exit 1 if events/sec regressed by more than
     25% (or bytes/event grew by more than 25%) against the "current"
     block of the committed BENCH_hotpath.json.  A full run rewrites
     the artifact only after this gate has passed. *)

module Engine = Rina_sim.Engine
module Fault = Rina_sim.Fault
module Prng = Rina_util.Prng
module Ipcp = Rina_core.Ipcp
module Topo = Rina_exp.Topo
module Scenario = Rina_exp.Scenario
module Workload = Rina_exp.Workload
module Par = Rina_exp.Par
module Json = Rina_util.Json

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
  | Error e ->
    Json.to_string (Json.Obj [ ("seed", Json.int seed); ("error", Json.Str e) ])
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
    Json.to_string
      (Json.Obj
         [ ("seed", Json.int seed); ("delivered", Json.int sink.Workload.count);
           ("relayed", Json.int (Scenario.sum_rmt_metric net "relayed"));
           ("flow_errors", Json.int (Scenario.sum_metric net "flow_errors"));
           ("faults", Json.int (List.length (Fault.events plan))) ])

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
  let open Json in
  Obj
    [ ("host_cores", int (Domain.recommended_domain_count ()));
      ("smoke", Bool (smoke ()));
      ("baseline",
       Obj
         [ ("timer_bytes_per_event", fixed 1 baseline_timer_bytes_per_event);
           ("timer_events_per_sec", fixed 0 baseline_timer_events_per_sec);
           ("pipeline_bytes_per_event", fixed 1 baseline_pipeline_bytes_per_event);
           ("pipeline_events_per_sec", fixed 0 baseline_pipeline_events_per_sec);
           ("sweep_trials_per_sec", fixed 3 baseline_sweep_trials_per_sec) ]);
      ("current",
       Obj
         [ ("timer_bytes_per_event", fixed 1 (bytes_per_event timer));
           ("timer_events_per_sec", fixed 0 (events_per_sec timer));
           ("pipeline_bytes_per_event", fixed 1 (bytes_per_event pipeline));
           ("pipeline_events_per_sec", fixed 0 (events_per_sec pipeline));
           ("pipeline_delivered", int delivered); ("sweep_trials", int sw.trials);
           ("sweep_seq_s", fixed 3 sw.seq_s); ("sweep_par_s", fixed 3 sw.par_s);
           ("sweep_par_domains", int sw.par_domains);
           ("sweep_trials_per_sec", fixed 3 sweep_tps);
           ("sweep_speedup", fixed 3 (honest ~seq:sw.seq_s ~par:sw.par_s));
           ("sweep_par_identical", Bool sw.identical) ]);
      ("improvement",
       Obj
         [ ("timer_alloc_reduction_pct",
            fixed 1
              (pct_reduction ~baseline:baseline_timer_bytes_per_event
                 ~current:(bytes_per_event timer)));
           ("pipeline_alloc_reduction_pct",
            fixed 1
              (pct_reduction ~baseline:baseline_pipeline_bytes_per_event
                 ~current:(bytes_per_event pipeline)));
           ("timer_throughput_speedup",
            fixed 3
              (speedup ~baseline:baseline_timer_events_per_sec
                 ~current:(events_per_sec timer)));
           ("pipeline_throughput_speedup",
            fixed 3
              (speedup ~baseline:baseline_pipeline_events_per_sec
                 ~current:(events_per_sec pipeline))) ]) ]

(* One claim per headline figure that the committed artifact's
   "current" block records as positive: rates may not fall below 75%
   of it, bytes/event may not grow past 125%. *)
let regression_claims committed ~timer ~pipeline =
  match Json.parse committed with
  | Error e -> [ ("committed " ^ json_path ^ " parses", false, e) ]
  | Ok old ->
    let block = Option.value ~default:Json.Null (Json.member "current" old) in
    List.filter_map
      (fun (name, current, higher_is_better) ->
        match Option.bind (Json.member name block) Json.to_num with
        | Some committed when committed > 0. ->
          let ratio = current /. committed in
          let bad = if higher_is_better then ratio < 0.75 else ratio > 1.25 in
          Some
            ( name,
              not bad,
              Printf.sprintf "committed %.1f, now %.1f" committed current )
        | _ -> None)
      [ ("timer_events_per_sec", events_per_sec timer, true);
        ("pipeline_events_per_sec", events_per_sec pipeline, true);
        ("timer_bytes_per_event", bytes_per_event timer, false);
        ("pipeline_bytes_per_event", bytes_per_event pipeline, false) ]

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
  if not sw.identical then
    Gate.abort "hotpath: parallel sweep diverged from sequential output";
  (* The gate compares against the committed copy and exits on a
     violation, so a regressed run never overwrites it. *)
  if not (Sys.file_exists json_path) then begin
    if Gate.checking () then
      Printf.printf "hotpath: no committed %s; skipping regression gate\n"
        json_path
  end
  else
    Gate.check_detailed "hotpath"
      ("hotpath: performance regressed >25% vs committed " ^ json_path)
      (regression_claims
         (In_channel.with_open_text json_path In_channel.input_all)
         ~timer ~pipeline);
  if smoke () then
    Printf.printf "hotpath: smoke run, %s left as committed\n" json_path
  else Gate.write json_path (render ~timer ~pipeline ~delivered ~sw)
