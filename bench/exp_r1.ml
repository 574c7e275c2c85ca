(* R1 — recovery under chaos: an identical fault schedule against the
   2-DIF relay arrangement and the TCP/IP baseline.

   Topology (both stacks, same shape):

     RINA   H1 ==link-DIF== R ==link-DIF== H2, host-to-host DIF
            stacked across the relay (Fig. 2's arrangement);
     TCP/IP hostA -- r0 -- hostB (Topo.ip_line, DV routing).

   A 1 Mb/s CBR stream crosses each stack while one deterministic
   fault plan (Rina_sim.Fault) runs, with times relative to the
   stream's start t0:

     t0+ 8 .. t0+11   flap-left        carrier loss, access wire
     t0+15 .. t0+18   blackhole-right  silent drops, carrier stays up
     t0+21 .. t0+24   degrade-left     10% of rate + 20% loss
     t0+27 .. t0+32   crash-relay      fail-stop of the relay: in RINA
                      Ipcp.crash/restart of the relaying IPC process
                      (state loss, dead-peer detection, LSA
                      withdrawal, re-enrollment with a fresh address);
                      in IP both router wires lose carrier.

   The flight recorder runs throughout.  Per-fault blackout windows
   (Rina_check.Trace_report.blackouts) and delivery-gap percentiles
   are computed from the trace and written to
   BENCH_chaos_recovery.json.  With RINA_BENCH_CHECK=1 the run fails
   if any fault, in either stack, never recovers (delivery never
   resumed); CI also greps the artifact for "recovered": false.
   Everything is seeded and runs in virtual time, so the JSON is
   bit-identical across runs. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Loss = Rina_sim.Loss
module Fault = Rina_sim.Fault
module Trace = Rina_sim.Trace
module Json = Rina_util.Json
module Stats = Rina_util.Stats
module Table = Rina_util.Table
module Ipcp = Rina_core.Ipcp
module Types = Rina_core.Types
module Workload = Rina_exp.Workload
module Report = Rina_check.Trace_report

let cbr_rate = 1_000_000.

let sdu_size = 500

let stream_len = 40.

(* Observation continues past the stream so post-crash recovery (RTO
   backoff can push the first repaired delivery well after the heal)
   is still captured. *)
let drain = 20.

(* (label, start, end) relative to t0 — the shared schedule. *)
let schedule =
  [
    ("flap-left", 8., 11.);
    ("blackhole-right", 15., 18.);
    ("degrade-left", 21., 24.);
    ("crash-relay", 27., 32.);
  ]

(* EFCP must persist through multi-second outages rather than declare
   the flow dead — link-layer-style persistence as in F3.  Detection
   policies (keepalive, dead-peer, aging) stay at their defaults: they
   are what the experiment measures. *)
let tolerant_policy =
  let d = Rina_core.Policy.default in
  {
    d with
    Rina_core.Policy.efcp =
      {
        d.Rina_core.Policy.efcp with
        Rina_core.Policy.init_rto = 0.3;
        min_rto = 0.05;
        max_rtx = 100_000;
      };
  }

type outcome = {
  delivered : int;
  blackouts : (string * float * float option) list;
  gaps : Stats.t;
}

(* Inter-arrival gaps between consecutive deliveries (sorted times). *)
let gap_stats times =
  let st = Stats.create () in
  for i = 1 to Array.length times - 1 do
    Stats.add st (times.(i) -. times.(i - 1))
  done;
  st

(* What a stack delivered, read from its trace: the deliveries of
   [component] (at DIF [rank], if given) — its blackouts and gaps. *)
let measure ~delivered ~component ~rank events =
  {
    delivered;
    blackouts = Report.blackouts ~component ?rank events;
    gaps = gap_stats (Report.deliveries ~component ?rank events);
  }

(* ---------- RINA ---------- *)

let arm_link_faults plan ~t0 ~left ~right =
  List.iter
    (fun (label, a, b) ->
      let at = t0 +. a and until = t0 +. b in
      match label with
      | "flap-left" -> Fault.link_down plan ~at ~until ~label left
      | "blackhole-right" -> Fault.link_blackhole plan ~at ~until ~label right
      | "degrade-left" ->
        Fault.link_degrade plan ~at ~until ~label ~rate_factor:0.1
          ~loss:(Loss.Bernoulli 0.2) left
      | _ -> (* crash-relay is stack-specific; armed by the caller *) ())
    schedule

let crash_bounds =
  match List.assoc_opt "crash-relay" (List.map (fun (l, a, b) -> (l, (a, b))) schedule) with
  | Some w -> w
  | None -> assert false

let run_rina () =
  let w =
    Rig.relay ~seed:101 ~delay:0.005 ~lower:tolerant_policy ~upper:tolerant_policy
  in
  let engine = w.Rig.engine in
  let tr = Trace.create engine in
  Trace.attach tr;
  let sink = Workload.sink () in
  let connected =
    Rina_exp.Scenario.connect engine
      ~src:(w.Rig.h1, Types.apn "chaos-src")
      ~dst:(w.Rig.h2, Types.apn "chaos-sink")
      ~qos_id:1
      ~on_flow:(fun flow ->
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu sink ~now:(Engine.now engine) sdu))
  in
  match connected with
  | Ok flow ->
    let t0 = Engine.now engine in
    let plan = Fault.create () in
    arm_link_faults plan ~t0 ~left:w.Rig.wire_l ~right:w.Rig.wire_r;
    let ca, cb = crash_bounds in
    Fault.window plan ~at:(t0 +. ca) ~until:(t0 +. cb) ~label:"crash-relay"
      ~apply:(fun () -> Ipcp.crash w.Rig.r)
      ~heal:(fun () -> Ipcp.restart w.Rig.r);
    Fault.arm plan engine;
    Workload.cbr engine ~send:flow.Ipcp.send ~rate:cbr_rate ~size:sdu_size
      ~until:(t0 +. stream_len) ();
    Engine.run ~until:(t0 +. stream_len +. drain) engine;
    let events = Trace.typed_events tr in
    (* RINA_TRACE=<file> additionally saves the RINA run's trace, so
       `rina_trace --faults <file>` reproduces the blackout table. *)
    Rig.save_trace tr;
    Trace.close tr;
    (* Deliveries that count are EFCP receptions in the host-to-host
       DIF (rank 1) — lower-DIF and management traffic would mask the
       blackout (hellos keep flowing on the surviving segment). *)
    Ok
      (measure ~delivered:sink.Workload.count ~component:"efcp" ~rank:(Some 1)
         events)
  | Error e ->
    Trace.close tr;
    Error ("allocation failed: " ^ e)

(* ---------- TCP/IP baseline ---------- *)

let run_ip () =
  let sink = Workload.sink () in
  let (), events =
    Rig.udp_relay ~seed:101 ~stream_len ~drain
      ~faults:(fun plan ~t0 ~left ~right ->
        arm_link_faults plan ~t0 ~left ~right;
        (* Fail-stop of r0, seen from the network: both wires dead. *)
        let ca, cb = crash_bounds in
        Fault.window plan ~at:(t0 +. ca) ~until:(t0 +. cb) ~label:"crash-relay"
          ~apply:(fun () ->
            Link.set_up left false;
            Link.set_up right false)
          ~heal:(fun () ->
            Link.set_up left true;
            Link.set_up right true))
      ~stream:(fun engine ~send ~until ->
        Workload.cbr engine ~send ~rate:cbr_rate ~size:sdu_size ~until ())
      ~receive:(Workload.on_sdu sink)
  in
  measure ~delivered:sink.Workload.count ~component:"udp:hostB" ~rank:None events

(* ---------- reporting ---------- *)

let stack_json o =
  let ms q = Json.fixed 3 (1000. *. Stats.percentile o.gaps q) in
  Json.Obj
    [ ("delivered", Json.int o.delivered);
      ("faults", Gate.fault_rows schedule o.blackouts);
      ("gap_p50_ms", ms 50.); ("gap_p95_ms", ms 95.); ("gap_p99_ms", ms 99.);
      ("gap_max_s", Json.fixed 6 (Stats.max_value o.gaps)) ]

let fmt_blackout = function
  | Some g -> Printf.sprintf "%.2f s" g
  | None -> "UNRECOVERED"

let run () =
  let table =
    Table.create
      ~title:
        "R1: recovery under an identical fault schedule — 1 Mb/s CBR \
         through a relay"
      ~columns:[ "fault"; "window"; "RINA blackout"; "TCP/IP blackout" ]
  in
  match run_rina () with
  | Error e -> Gate.abort ("R1: RINA run failed: " ^ e)
  | Ok rina ->
    let ip = run_ip () in
    List.iter
      (fun (label, at, until) ->
        Table.add_rowf table "%s | %.0f..%.0f s | %s | %s" label at until
          (fmt_blackout (Gate.blackout rina.blackouts label))
          (fmt_blackout (Gate.blackout ip.blackouts label)))
      schedule;
    Table.add_rowf table
      "delivery gaps (p50/p99/max) | 0..%.0f s | %.0f ms / %.0f ms / %.1f s \
       | %.0f ms / %.0f ms / %.1f s"
      (stream_len +. drain)
      (1000. *. Stats.percentile rina.gaps 50.)
      (1000. *. Stats.percentile rina.gaps 99.)
      (Stats.max_value rina.gaps)
      (1000. *. Stats.percentile ip.gaps 50.)
      (1000. *. Stats.percentile ip.gaps 99.)
      (Stats.max_value ip.gaps);
    Table.print table;
    Gate.write "BENCH_chaos_recovery.json"
      (Json.Obj [ ("rina", stack_json rina); ("ip", stack_json ip) ]);
    Gate.check "chaos" "R1: a scheduled fault never recovered"
      [ ("rina: every fault recovers", Gate.all_recovered schedule rina.blackouts);
        ("ip: every fault recovers", Gate.all_recovered schedule ip.blackouts) ]
