(* R2 — adversarial channel hardening: an identical mangle schedule
   (bit corruption, bounded reordering, duplication, a partition with
   a corrupted heal) against the 2-DIF relay arrangement and the
   TCP/IP baseline.

   Topology is R1's (see exp_r1.ml): RINA H1 == R == H2 across two
   link DIFs with a rank-1 host-to-host DIF stacked over them; TCP/IP
   hostA -- r0 -- hostB.  A 1 Mb/s CBR stream of CRC-sealed SDUs
   crosses each stack while the wires run a baseline Mangle model
   (2% bit corruption, 1% duplication, 5% reordering with
   displacement <= 8) plus canned burst windows, all relative to the
   stream's start t0:

     t0+ 6 .. t0+10   corrupt-burst-left    5% bit flips
     t0+14 .. t0+18   reorder-burst-right   20% reordered, displacement 8
     t0+22 .. t0+26   dup-burst-left        10% duplicated
     t0+28 .. t0+32   partition-right       carrier loss
     t0+32 .. t0+35   corrupt-heal-right    10% bit flips over the heal

   During the partition a new application is registered on H1, so its
   directory flood has to cross the healing (and still-corrupting)
   right segment; RIB versioning plus anti-entropy must reconverge H2
   anyway.  The sink verifies an application-level CRC trailer on
   every SDU and counts duplicate, out-of-order and corrupt-escaped
   deliveries — for RINA all three must be zero (EFCP exactly-once
   delivery, SDU-protection CRC).  Results go to
   BENCH_adversarial.json; everything is seeded and runs in virtual
   time, so the JSON is bit-identical across runs. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Mangle = Rina_sim.Mangle
module Fault = Rina_sim.Fault
module Trace = Rina_sim.Trace
module Json = Rina_util.Json
module Metrics = Rina_util.Metrics
module Table = Rina_util.Table
module Ipcp = Rina_core.Ipcp
module Rib = Rina_core.Rib
module Types = Rina_core.Types
module Workload = Rina_exp.Workload
module Report = Rina_check.Trace_report

let cbr_rate = 1_000_000.

let sdu_size = 500

let stream_len = 40.

let drain = 20.

(* The always-on channel adversary: every frame on either wire faces
   this for the whole run.  Corruption >= 1%, duplication 1%,
   reordering displacement bounded by 8 — the floor the hardening is
   specified against. *)
let base_mangle =
  Mangle.make ~corrupt:0.02 ~duplicate:0.01 ~dup_delay:0.002 ~reorder:0.05
    ~max_displacement:8 ()

(* (label, start, end) relative to t0 — the shared burst schedule. *)
let schedule =
  [
    ("corrupt-burst-left", 6., 10.);
    ("reorder-burst-right", 14., 18.);
    ("dup-burst-left", 22., 26.);
    ("partition-right", 28., 32.);
    ("corrupt-heal-right", 32., 35.);
  ]

(* The app published mid-partition; its directory entry reaching the
   far side is the reconvergence probe. *)
let late_app = "late-arrival"

let publish_at = 29. (* relative to t0, inside the partition window *)

let arm_mangle_faults plan ~t0 ~left ~right =
  List.iter
    (fun (label, a, b) ->
      let at = t0 +. a and until = t0 +. b in
      match label with
      | "corrupt-burst-left" ->
        Fault.link_corrupt plan ~at ~until ~label ~corrupt:0.05 left
      | "reorder-burst-right" ->
        Fault.link_reorder plan ~at ~until ~label ~reorder:0.2
          ~max_displacement:8 right
      | "dup-burst-left" ->
        Fault.link_duplicate plan ~at ~until ~label ~duplicate:0.1 left
      | "partition-right" -> Fault.link_down plan ~at ~until ~label right
      | "corrupt-heal-right" ->
        Fault.link_corrupt plan ~at ~until ~label ~corrupt:0.1 right
      | _ -> ())
    schedule

(* EFCP hardened for the adversarial channel: selective acks, a
   bounded reorder buffer, duplicate suppression; RIEP anti-entropy
   resyncs the RIB after the partition.  EFCP timers as in R1 so the
   flow persists through the partition instead of dying; dead-peer
   detection is relaxed past the partition length so the adjacency
   (and the flow addressing built on it) survives — R1 already
   measures detection at its default setting. *)
let adversarial_policy =
  let d = Rina_core.Policy.default in
  {
    d with
    Rina_core.Policy.efcp =
      {
        d.Rina_core.Policy.efcp with
        Rina_core.Policy.init_rto = 0.3;
        min_rto = 0.05;
        max_rtx = 100_000;
        sack_blocks = 4;
        reorder_window = 64;
        max_dup_cache = 1024;
      };
    routing =
      {
        d.Rina_core.Policy.routing with
        Rina_core.Policy.anti_entropy_interval = 2.0;
        dead_peer_timeout = 8.0;
      };
  }

(* CBR of sealed SDUs (Workload.cbr emits unsealed stamps). *)
let sealed_cbr engine ~send ~until () =
  let interval = float_of_int (8 * sdu_size) /. cbr_rate in
  let seq = ref 0 in
  let rec tick () =
    let now = Engine.now engine in
    if now < until then begin
      send (Workload.stamp_sealed ~now ~seq:!seq ~size:sdu_size);
      incr seq;
      ignore (Engine.schedule engine ~delay:interval tick)
    end
  in
  tick ();
  seq

type outcome = {
  delivered : int;
  sent : int;
  dup_deliveries : int;
  ooo_deliveries : int;
  corrupt_escaped : int;
  rtx_pdus : int;  (** data retransmissions (app flow) *)
  data_pdus : int;  (** total data transmissions (app flow) *)
  blackouts : (string * float * float option) list;
  reconverged : bool;  (** far side learned the mid-partition app *)
  reconvergence_s : float option;  (** heal -> directory entry visible *)
}

(* ---------- RINA ---------- *)

(* Poll the far side's RIB for the late app's directory entry; record
   the first time it is visible after the heal. *)
let watch_reconvergence engine far ~heal_at seen_at =
  let rec poll () =
    (if !seen_at = None then
       let path = "/dir/" ^ Types.apn_to_string (Types.apn late_app) in
       if Rib.exists (Ipcp.rib far) path then
         seen_at := Some (Float.max 0. (Engine.now engine -. heal_at)));
    if !seen_at = None then ignore (Engine.schedule engine ~delay:0.25 poll)
  in
  poll ()

(* What a stack delivered: the tally at its sink and the blackouts in
   its trace. *)
let measure (t : Rig.tally) ~sent ~rtx_pdus ~data_pdus ~blackouts ~reconvergence_s =
  {
    delivered = t.Rig.arrived;
    sent;
    dup_deliveries = t.Rig.dups;
    ooo_deliveries = t.Rig.ooo;
    corrupt_escaped = t.Rig.corrupt;
    rtx_pdus;
    data_pdus;
    blackouts;
    reconverged = reconvergence_s <> None;
    reconvergence_s;
  }

let run_rina () =
  let w =
    Rig.relay ~seed:202 ~delay:0.005 ~lower:adversarial_policy
      ~upper:adversarial_policy
  in
  let engine = w.Rig.engine in
  let tr = Trace.create engine in
  Trace.attach tr;
  let tally = Rig.tally () in
  let connected =
    Rina_exp.Scenario.connect engine
      ~src:(w.Rig.h1, Types.apn "adv-src")
      ~dst:(w.Rig.h2, Types.apn "adv-sink")
      ~qos_id:1
      ~on_flow:(fun flow -> flow.Ipcp.set_on_receive (Rig.count tally))
  in
  match connected with
  | Ok flow ->
    let t0 = Engine.now engine in
    Link.set_mangle w.Rig.wire_l base_mangle;
    Link.set_mangle w.Rig.wire_r base_mangle;
    let plan = Fault.create () in
    arm_mangle_faults plan ~t0 ~left:w.Rig.wire_l ~right:w.Rig.wire_r;
    Fault.arm plan engine;
    ignore
      (Engine.schedule engine ~delay:publish_at (fun () ->
           Ipcp.register_app w.Rig.h1 (Types.apn late_app) ~on_flow:(fun _ -> ())));
    let heal_at =
      t0 +. List.assoc "partition-right" (List.map (fun (l, _, b) -> (l, b)) schedule)
    in
    let seen_at = ref None in
    ignore
      (Engine.schedule engine
         ~delay:(heal_at -. t0)
         (fun () -> watch_reconvergence engine w.Rig.h2 ~heal_at seen_at));
    let sent = sealed_cbr engine ~send:flow.Ipcp.send ~until:(t0 +. stream_len) () in
    Engine.run ~until:(t0 +. stream_len +. drain) engine;
    let events = Trace.typed_events tr in
    Rig.save_trace tr;
    Trace.close tr;
    let fm = flow.Ipcp.flow_metrics () in
    Ok
      (measure tally ~sent:!sent ~rtx_pdus:(Metrics.get fm "pdus_rtx")
         ~data_pdus:(Metrics.get fm "pdus_sent")
         ~blackouts:(Report.blackouts ~component:"efcp" ~rank:1 events)
         ~reconvergence_s:!seen_at)
  | Error e ->
    Trace.close tr;
    Error ("allocation failed: " ^ e)

(* ---------- TCP/IP baseline ---------- *)

(* UDP faces the raw channel: no integrity check beyond the IP header
   decode, no sequencing, no retransmission.  The late app's analogue
   is DV routing reconvergence — probed via delivery resumption after
   the partition (there is no directory to probe). *)
let run_ip () =
  let tally = Rig.tally () in
  let sent, events =
    Rig.udp_relay ~seed:202 ~stream_len ~drain
      ~faults:(fun plan ~t0 ~left ~right ->
        Link.set_mangle left base_mangle;
        Link.set_mangle right base_mangle;
        arm_mangle_faults plan ~t0 ~left ~right)
      ~stream:(fun engine ~send ~until -> sealed_cbr engine ~send ~until ())
      ~receive:(fun ~now:_ sdu -> Rig.count tally sdu)
  in
  let blackouts = Report.blackouts ~component:"udp:hostB" events in
  measure tally ~sent:!sent ~rtx_pdus:0 ~data_pdus:!sent ~blackouts
    ~reconvergence_s:(Gate.blackout blackouts "partition-right")

(* ---------- reporting ---------- *)

let stack_json o =
  let rtx_overhead =
    if o.data_pdus = 0 then 0.
    else float_of_int o.rtx_pdus /. float_of_int o.data_pdus
  in
  Json.Obj
    [ ("sent", Json.int o.sent); ("delivered", Json.int o.delivered);
      ("dup_deliveries", Json.int o.dup_deliveries);
      ("ooo_deliveries", Json.int o.ooo_deliveries);
      ("corrupt_escaped", Json.int o.corrupt_escaped);
      ("rtx_pdus", Json.int o.rtx_pdus);
      ("rtx_overhead", Json.fixed 6 rtx_overhead);
      ("partition_reconverged", Json.Bool o.reconverged);
      ("reconvergence_s",
       Option.fold ~none:Json.Null ~some:(Json.fixed 6) o.reconvergence_s);
      ("faults", Gate.fault_rows schedule o.blackouts) ]

let run () =
  let table =
    Table.create
      ~title:
        "R2: adversarial channel — 2% corruption / 1% duplication / 5% \
         reordering + bursts, 1 Mb/s CBR through a relay"
      ~columns:[ "measure"; "RINA"; "UDP/IP" ]
  in
  match run_rina () with
  | Error e -> Gate.abort ("R2: RINA run failed: " ^ e)
  | Ok rina ->
    let ip = run_ip () in
    Table.add_rowf table "delivered / sent | %d / %d | %d / %d" rina.delivered
      rina.sent ip.delivered ip.sent;
    Table.add_rowf table "duplicate deliveries | %d | %d" rina.dup_deliveries
      ip.dup_deliveries;
    Table.add_rowf table "out-of-order deliveries | %d | %d"
      rina.ooo_deliveries ip.ooo_deliveries;
    Table.add_rowf table "corrupt SDUs delivered | %d | %d"
      rina.corrupt_escaped ip.corrupt_escaped;
    Table.add_rowf table "retransmitted PDUs | %d | n/a" rina.rtx_pdus;
    Table.add_rowf table "reconverged after partition | %b (%s s) | %b"
      rina.reconverged
      (match rina.reconvergence_s with
      | Some g -> Printf.sprintf "%.2f" g
      | None -> "-")
      ip.reconverged;
    Table.print table;
    Gate.write "BENCH_adversarial.json"
      (Json.Obj [ ("rina", stack_json rina); ("ip", stack_json ip) ]);
    (* CI gate (RINA_BENCH_CHECK=1): the hardening claims are hard
       invariants, not tolerances — any duplicate / out-of-order /
       corrupt-escaped RINA delivery, a lost SDU, or a
       non-reconverged RIB fails the build. *)
    Gate.check "adversarial" "R2: adversarial hardening invariant violated"
      [ ("exactly_once (no dups)", rina.dup_deliveries = 0);
        ("in_order (no reordering)", rina.ooo_deliveries = 0);
        ("no corrupt escapes", rina.corrupt_escaped = 0);
        ("complete delivery", rina.delivered = rina.sent);
        ("rib_reconverged", rina.reconverged);
        ("all faults recovered", Gate.all_recovered schedule rina.blackouts) ]
