(* Flight-recorder overhead micro-benchmark.

   Measurements, written as BENCH_trace_overhead.json so the perf
   trajectory is machine-readable across commits:

   - the disabled path: every instrumented site costs a branch on the
     recorder it holds ([if Flight.on r then ...]) — measured per event
     to show that tracing off is free;
   - the enabled path: full event construction + sink call (a counting
     sink, so the numbers are emission cost, not buffer growth);
   - the sampled path: 1% deterministic head sampling with a live
     telemetry tally + tap — the scale-run configuration, where the
     sink sees ~1% of spans but counters/sketches stay exact;
   - a small scenario (a timer-driven sender over a Link for 5
     simulated seconds) run with tracing off, fully on (a real
     [Trace.attach] into the event buffer), and sampled with telemetry,
     whose ratios are the end-to-end overhead story.  The three modes
     are interleaved round-robin and each takes its best of five runs,
     so allocator warm-up and scheduler noise hit all modes alike.

   With RINA_BENCH_CHECK=1 the run fails (exit 1) if the sampled-mode
   scenario overhead is not at most half of the full-trace overhead, or
   if the disabled site stops being ~ns-cheap.  The gate runs before
   the artifact is written, so a violated run leaves it as it was. *)

module Flight = Rina_util.Flight
module Telemetry = Rina_util.Telemetry
module Json = Rina_util.Json
module Engine = Rina_sim.Engine
module Trace = Rina_sim.Trace
module Link = Rina_sim.Link

let sample_rate = 0.01

(* The recorder the per-site measurements emit into, held the way a
   hot component holds its engine's. *)
let recorder = Flight.create ()

(* The representative emission site: guard, span computation, emit. *)
let[@inline never] emission_site i =
  if Flight.on recorder then
    Flight.emit_to recorder ~component:"bench" ~flow:7 ~seq:i ~size:1400
      ~span:(Flight.span_of ~flow:7 ~seq:i) Flight.Pdu_sent

(* Run [site] in batches until at least [min_time] CPU seconds have
   been consumed; returns seconds per call. *)
let time_per_call ?(min_time = 0.2) site =
  let batch = 1_000_000 in
  let total = ref 0 and elapsed = ref 0. in
  while !elapsed < min_time do
    let t0 = Sys.time () in
    for i = 1 to batch do
      site i
    done;
    elapsed := !elapsed +. (Sys.time () -. t0);
    total := !total + batch
  done;
  !elapsed /. float_of_int !total

let scenario_once ~configure =
  let engine = Engine.create () in
  let cleanup = configure engine in
  let rng = Rina_util.Prng.create 1 in
  let link = Link.create engine rng ~bit_rate:1e8 ~delay:0.001 ~label:"bench" () in
  let a = Link.endpoint_a link in
  (Link.endpoint_b link).Rina_sim.Chan.set_receiver (fun _ -> ());
  let frame = Bytes.make 1000 'x' in
  let rec tick () =
    a.Rina_sim.Chan.send frame;
    if Engine.now engine < 5.0 then
      ignore (Engine.schedule engine ~delay:0.0001 tick)
  in
  tick ();
  let t0 = Sys.time () in
  Engine.run engine;
  let dt = Sys.time () -. t0 in
  cleanup ();
  dt

let run () =
  let ns_disabled = 1e9 *. time_per_call emission_site in
  (* per-site enabled cost: every event constructed and sunk *)
  let count = ref 0 in
  Flight.set_sink recorder (fun _ -> incr count);
  Flight.set_enabled recorder true;
  let ns_enabled = 1e9 *. time_per_call emission_site in
  (* per-site sampled cost: 1% of spans reach the sink, the tally and
     tap aggregate everything.  Latency tracking follows the sample
     rate (as Trace.attach wires it), so the pending-span table holds
     ~1% of in-flight spans. *)
  let micro_tele = Telemetry.create () in
  Telemetry.set_latency_ppm micro_tele (Flight.ppm_of_rate sample_rate);
  Flight.set_sink recorder ignore;
  Telemetry.install micro_tele recorder;
  Flight.set_sample_rate recorder sample_rate;
  let ns_sampled = 1e9 *. time_per_call emission_site in
  (* End-to-end scenario, three configurations interleaved.  The full
     and sampled modes are real [Trace.attach] setups: buffered sink,
     and for sampled mode a live telemetry registry. *)
  let tele = Telemetry.create () in
  let off _engine = fun () -> () in
  let full engine =
    let tr = Trace.create engine in
    Trace.attach tr;
    fun () -> Trace.close tr
  in
  let sampled engine =
    let tr = Trace.create engine in
    Trace.attach ~sample_rate ~telemetry:tele tr;
    fun () -> Trace.close tr
  in
  ignore (scenario_once ~configure:off);  (* warm-up *)
  let best = [| Float.infinity; Float.infinity; Float.infinity |] in
  for _round = 1 to 5 do
    Array.iteri
      (fun i configure ->
        let s = scenario_once ~configure in
        if s < best.(i) then best.(i) <- s)
      [| off; full; sampled |]
  done;
  let scenario_disabled = best.(0)
  and scenario_enabled = best.(1)
  and scenario_sampled = best.(2) in
  let events_per_sec = 1e9 /. ns_enabled in
  let ratio_of s = if scenario_disabled > 0. then s /. scenario_disabled else 1. in
  let ratio = ratio_of scenario_enabled in
  let ratio_sampled = ratio_of scenario_sampled in
  Printf.printf
    "trace overhead: %.2f ns/event disabled (gate only), %.1f ns/event \
     enabled (%.1f Mevents/s), %.1f ns/event sampled+tap; scenario %.3fs -> \
     %.3fs full (x%.3f) / %.3fs sampled (x%.3f)\n"
    ns_disabled ns_enabled (events_per_sec /. 1e6) ns_sampled scenario_disabled
    scenario_enabled ratio scenario_sampled ratio_sampled;
  (* the headline gate: sampled-mode overhead at most half the
     full-trace overhead (2% absolute floor absorbs timer noise on a
     busy CI host) *)
  let budget = Float.max (0.5 *. (ratio -. 1.)) 0.02 in
  Gate.check_detailed "trace" "trace: flight-recorder overhead gate violated"
    [ (* sanity: the telemetry really aggregated the scenario *)
      ("telemetry tally live",
       Telemetry.counter tele "events" > 0,
       Printf.sprintf "tally saw %d events" (Telemetry.counter tele "events"));
      ("sampled overhead <= half of full-trace overhead",
       ratio_sampled -. 1. <= budget,
       Printf.sprintf "sampled x%.4f vs full x%.4f, budget +%.1f%%" ratio_sampled
         ratio (100. *. budget));
      (* the disabled site must stay ~ns: one branch *)
      ("disabled site stays ~ns",
       ns_disabled <= 15.,
       Printf.sprintf "%.2f ns/event" ns_disabled) ];
  Gate.write "BENCH_trace_overhead.json"
    (Json.Obj
       [ ("ns_per_event_disabled", Json.fixed 3 ns_disabled);
         ("ns_per_event_enabled", Json.fixed 3 ns_enabled);
         ("ns_per_event_sampled", Json.fixed 3 ns_sampled);
         ("events_per_sec_enabled", Json.fixed 0 events_per_sec);
         ("scenario_disabled_s", Json.fixed 4 scenario_disabled);
         ("scenario_enabled_s", Json.fixed 4 scenario_enabled);
         ("scenario_sampled_s", Json.fixed 4 scenario_sampled);
         ("scenario_overhead_ratio", Json.fixed 4 ratio);
         ("scenario_sampled_ratio", Json.fixed 4 ratio_sampled);
         ("sampled_keep_ppm", Json.int (Flight.ppm_of_rate sample_rate)) ])
