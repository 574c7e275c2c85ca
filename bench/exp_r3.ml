(* R3 — overload robustness: per-DIF aggregate congestion control
   under incast and flash crowds.

   Four deterministic scenarios, everything seeded and in virtual
   time so BENCH_congestion.json is byte-identical across runs:

   1. Incast: [senders] leaves of a rate-limited star each blast one
      64 KiB flow at a single sink leaf; every flow squeezes through
      the hub's shaped egress port.  RINA (ECN marking at the RMT
      queue + DCTCP-style EFCP back-off and pacing) versus TCP
      (slow start + AIMD, drop-tail hub) under the identical
      schedule.  Measures aggregate goodput against the bottleneck
      and the flow-completion-time tail.

   2. Flash crowd: Poisson flow arrivals (heavy-tailed Pareto sizes)
      onto one sink whose DIF enforces flow-allocator admission
      control — over-limit requests are busy-rejected and retried
      with deterministic jittered backoff.  The gate: admission
      never livelocks, every admitted flow completes.  TCP has no
      admission layer — every SYN is accepted and fights it out in
      the queues.

   3. Push-back across the stack: the R1/R2 two-DIF relay
      arrangement over long-delay wires, so the lower flow is
      *window*-limited (64 PDUs over a 100 ms RTT) while the upper
      flow's window is 32x deeper.  The upper flow's frames transit
      the lower-DIF flow; when that lower flow is congested
      (backlog beyond a full window), the lower DIF stamps ECN on
      transiting upper Dtp frames (policy [pushback]) so the
      *upper* sender's EFCP backs off — congestion in an (N-1)-DIF
      slows (N)-sources instead of growing the lower backlog
      without bound.  Run twice (pushback on / off) and compare the
      peak lower-flow backlog.

   4. Composed: the flash-crowd run with PR-3 chaos faults layered
      on top (a partitioned sender leaf, a corruption burst on the
      sink link) — every fault must recover and every admitted flow
      still completes, with zero corrupt SDUs escaping the CRCs. *)

module Engine = Rina_sim.Engine
module Fault = Rina_sim.Fault
module Trace = Rina_sim.Trace
module Json = Rina_util.Json
module Metrics = Rina_util.Metrics
module Stats = Rina_util.Stats
module Table = Rina_util.Table
module Prng = Rina_util.Prng
module Policy = Rina_core.Policy
module Ipcp = Rina_core.Ipcp
module Types = Rina_core.Types
module Qos = Rina_core.Qos
module Scenario = Rina_exp.Scenario
module Topo = Rina_exp.Topo
module Workload = Rina_exp.Workload
module Report = Rina_check.Trace_report

let senders = 32

let incast_flow_bytes = 65_536

let sdu_size = 1_000

let bottleneck = 10_000_000.

let crowd_senders = 8

let crowd_rate = 100. (* arrivals/s *)

let crowd_window = 5.0 (* s of arrivals *)

let crowd_alpha = 1.3

let crowd_xmin = 2_000

let crowd_cap = 100_000

(* EFCP hardened as in R2 (so composed faults cannot kill flows) plus
   the congestion section: marking at depth 32 of the 256-deep class
   queues, pushback armed, no admission limit (the incast must admit
   all 32). *)
let congestion_policy =
  let d = Policy.default in
  {
    d with
    Policy.efcp =
      {
        d.Policy.efcp with
        Policy.window = 64;
        congestion_control = true;
        init_rto = 0.3;
        min_rto = 0.05;
        max_rtx = 100_000;
        sack_blocks = 4;
        reorder_window = 128;
        max_dup_cache = 1024;
      };
    routing =
      {
        d.Policy.routing with
        Policy.anti_entropy_interval = 2.0;
        dead_peer_timeout = 8.0;
      };
    congestion =
      {
        Policy.mark_threshold = 32;
        mark_probability = 0.2;
        pushback = true;
        admission_max_pending = 0;
        admission_backoff = 0.05;
      };
  }

(* The flash crowd additionally caps concurrently open flows at the
   destination; over-limit allocations are busy-rejected and retried
   with jittered exponential backoff (base = admission_backoff). *)
let admission_policy =
  {
    congestion_policy with
    Policy.congestion =
      { congestion_policy.Policy.congestion with Policy.admission_max_pending = 16 };
  }

let ms stats p =
  let v = Stats.percentile stats p in
  if Float.is_nan v then 0. else 1000. *. v

(* ---------- scenario 1: incast ---------- *)

type incast_out = {
  ic_goodput : float;
  ic_ratio : float;
  ic_admitted : int;
  ic_completed : int;
  ic_corrupt : int;
  ic_p50 : float; (* FCT ms *)
  ic_p99 : float;
  ic_max : float;
  ic_marked : int;
  ic_cong_dropped : int;
  ic_queue_dropped : int;
  ic_queue_hwm : int;
}

(* One incast over either stack.  [listen deliver] opens the sink,
   which hands every arriving SDU to [deliver]; [dial i k] opens
   sender [i]'s flow and passes [k] its send function, or [None] if the
   flow failed.  Once every dial has resolved (or 60 s have passed),
   the run ends 2 s after the last flow completes (or 300 s).  The
   RMT counters stay 0: a RINA caller reads them from its hub. *)
let incast engine ~listen ~dial =
  let reg = Workload.fct () in
  let t_done = ref None in
  listen (fun sdu ->
      let now = Engine.now engine in
      Workload.on_flow_sdu reg ~now sdu;
      if reg.Workload.completed = senders && !t_done = None then
        t_done := Some now);
  let sends = Array.make senders None in
  let outstanding = ref senders in
  for i = 0 to senders - 1 do
    dial i (fun send ->
        decr outstanding;
        sends.(i) <- send)
  done;
  Scenario.drive_until engine ~timeout:60. (fun () -> !outstanding = 0);
  (* The incast instant: every admitted sender dumps its whole flow at
     once. *)
  let t0 = Engine.now engine in
  let admitted = ref 0 in
  Array.iteri
    (fun i ->
      Option.iter (fun send ->
          incr admitted;
          Workload.flow_bulk reg ~send ~now:t0 ~flow:i ~size:incast_flow_bytes
            ~sdu:sdu_size))
    sends;
  Scenario.drive_until engine ~step:0.25 ~timeout:300. (fun () -> !t_done <> None);
  Topo.wait engine 2.0;
  let t1 = Option.value !t_done ~default:(Engine.now engine) in
  let goodput = Workload.fct_goodput reg ~t0 ~t1 in
  {
    ic_goodput = goodput;
    ic_ratio = goodput /. bottleneck;
    ic_admitted = !admitted;
    ic_completed = reg.Workload.completed;
    ic_corrupt = reg.Workload.fct_corrupt;
    ic_p50 = ms reg.Workload.durations 50.;
    ic_p99 = ms reg.Workload.durations 99.;
    ic_max = 1000. *. Stats.max_value reg.Workload.durations;
    ic_marked = 0;
    ic_cong_dropped = 0;
    ic_queue_dropped = 0;
    ic_queue_hwm = 0;
  }

(* A RINA flow's send function, or [None] if its allocation failed. *)
let sender k = function Ok f -> k (Some f.Ipcp.send) | Error _ -> k None

let run_incast_rina () =
  let net =
    Topo.star ~seed:303 ~policy:congestion_policy ~bit_rate:bottleneck
      ~delay:0.002 ~rate_limited:true ~leaves:(senders + 1) ()
  in
  let engine = net.Topo.engine in
  let hub = net.Topo.nodes.(0) in
  (* RINA_TRACE=<file> saves this run's flight-recorder trace (rina_trace
     --drops shows the R_congestion breakdown, --queues the hub
     occupancy timeline); RINA_STATS=<file> writes its telemetry
     registry (rina_stats shows exact ecn_mark counts and the
     probe:queue:hub occupancy distribution). *)
  let finish_obs =
    Rig.observe engine ~policy:(fun () -> Policy.default) ~span:60.
      [ ("queue:hub", 0.05, fun () -> Ipcp.rmt_queue_depth hub) ]
  in
  let dst = Types.apn "incast-sink" in
  let out =
    incast engine
      ~listen:(fun deliver ->
        Ipcp.register_app net.Topo.nodes.(senders + 1) dst ~on_flow:(fun flow ->
            flow.Ipcp.set_on_receive deliver);
        Topo.wait engine 3.0)
      ~dial:(fun i k ->
        let node = net.Topo.nodes.(i + 1) in
        let src = Types.apn (Printf.sprintf "incast-src%d" i) in
        Ipcp.register_app node src ~on_flow:(fun _ -> ());
        Ipcp.allocate_flow node ~src ~dst ~qos_id:Qos.reliable.Qos.id
          ~on_result:(sender k))
  in
  finish_obs ();
  let rm = Ipcp.rmt_metrics hub in
  {
    out with
    ic_marked = Metrics.get rm "ecn_marked";
    ic_cong_dropped = Metrics.get rm "congestion_dropped";
    ic_queue_dropped = Metrics.get rm "queue_dropped";
    ic_queue_hwm = Metrics.get rm "queue_hwm";
  }

let run_incast_tcp () =
  let net =
    Topo.ip_star ~seed:303 ~bit_rate:bottleneck ~delay:0.002
      ~leaves:(senders + 1) ()
  in
  let sink_addr = Tcpip.Ip.addr_of_octets 10 (senders + 1) 0 1 in
  incast net.Topo.ip_engine
    ~listen:(fun deliver ->
      let ts = Tcpip.Tcp.attach net.Topo.hosts.(senders) in
      Tcpip.Tcp.listen ts ~port:5001 ~on_accept:(fun conn ->
          Tcpip.Tcp.set_on_receive conn deliver))
    ~dial:(fun i k ->
      let st = Tcpip.Tcp.attach net.Topo.hosts.(i) in
      Tcpip.Tcp.connect st ~src:(Tcpip.Ip.addr_of_octets 10 (i + 1) 0 1)
        ~dst:sink_addr ~dport:5001 ~on_result:(function
        | Ok c -> k (Some (Tcpip.Tcp.send c))
        | Error _ -> k None))

(* ---------- scenarios 2 and 4: flash crowd (optionally with chaos) ---------- *)

type crowd_out = {
  cr_arrivals : int;
  cr_admitted : int;
  cr_failed : int;
  cr_busy_retries : int;
  cr_busy_rejected : int;
  cr_completed : int;
  cr_unfinished : int;
  cr_corrupt : int;
  cr_p50 : float; (* FCT ms *)
  cr_p99 : float;
  cr_goodput : float;
  cr_blackouts : (string * float * float option) list;
}

let crowd_faults = [ ("partition-leaf", 1.5, 3.0); ("corrupt-sink", 3.5, 4.5) ]

(* The sink closes each flow when its FIN lands, freeing the admission
   slot for the next busy-rejected requester. *)
let crowd_deliver engine reg ~close sdu =
  Workload.on_flow_sdu reg ~now:(Engine.now engine) sdu;
  match Workload.read_flow sdu with
  | Some fs when fs.Workload.fs_fin -> close ()
  | _ -> ()

(* One flash crowd over either stack, from [t0]: Poisson arrivals for
   [crowd_window] s, each a Pareto-sized flow that [dial i k] opens
   from sender [i mod crowd_senders], passing [k] its send function or
   [None].  The run ends 5 s after every arrival has resolved and
   every admitted flow has completed (at most 120 s past the window).
   The busy counters and blackouts stay empty: a RINA caller adds them. *)
let crowd engine reg ~t0 ~dial =
  let size_rng = Prng.create 909 in
  let arrival_rng = Prng.create 808 in
  let arrivals = ref 0 and admitted = ref 0 and failed = ref 0 in
  Workload.poisson_arrivals engine arrival_rng ~rate:crowd_rate
    ~until:(t0 +. crowd_window) (fun i ->
      incr arrivals;
      let size =
        Workload.flow_size size_rng ~alpha:crowd_alpha ~xmin:crowd_xmin
          ~cap:crowd_cap
      in
      dial i (function
        | Some send ->
          incr admitted;
          Workload.flow_bulk reg ~send ~now:(Engine.now engine) ~flow:i ~size
            ~sdu:sdu_size
        | None -> incr failed));
  let settled () =
    Engine.now engine > t0 +. crowd_window +. 1.
    && !admitted + !failed = !arrivals
    && Workload.unfinished reg = []
  in
  Scenario.drive_until engine ~step:0.25 ~timeout:(crowd_window +. 120.) settled;
  Topo.wait engine 5.0;
  {
    cr_arrivals = !arrivals;
    cr_admitted = !admitted;
    cr_failed = !failed;
    cr_busy_retries = 0;
    cr_busy_rejected = 0;
    cr_completed = reg.Workload.completed;
    cr_unfinished = List.length (Workload.unfinished reg);
    cr_corrupt = reg.Workload.fct_corrupt;
    cr_p50 = ms reg.Workload.durations 50.;
    cr_p99 = ms reg.Workload.durations 99.;
    cr_goodput = Workload.fct_goodput reg ~t0 ~t1:(Engine.now engine);
    cr_blackouts = [];
  }

let run_crowd_rina ~chaos () =
  let net =
    Topo.star ~seed:404 ~policy:admission_policy ~bit_rate:bottleneck
      ~delay:0.002 ~rate_limited:true ~leaves:(crowd_senders + 1) ()
  in
  let engine = net.Topo.engine in
  let sink_node = net.Topo.nodes.(crowd_senders + 1) in
  let tr = if chaos then Some (Trace.create engine) else None in
  (match tr with Some t -> Trace.attach t | None -> ());
  let reg = Workload.fct () in
  let dst = Types.apn "crowd-sink" in
  Ipcp.register_app sink_node dst ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (crowd_deliver engine reg ~close:flow.Ipcp.close));
  Topo.wait engine 3.0;
  let t0 = Engine.now engine in
  if chaos then begin
    let plan = Fault.create () in
    List.iter
      (fun (label, a, b) ->
        let at = t0 +. a and until = t0 +. b in
        match label with
        | "partition-leaf" -> Fault.link_down plan ~at ~until ~label net.Topo.links.(0)
        | "corrupt-sink" ->
          Fault.link_corrupt plan ~at ~until ~label ~corrupt:0.05
            net.Topo.links.(crowd_senders)
        | _ -> ())
      crowd_faults;
    Fault.arm plan engine
  end;
  let out =
    crowd engine reg ~t0 ~dial:(fun i k ->
        let node = net.Topo.nodes.(1 + (i mod crowd_senders)) in
        let src = Types.apn (Printf.sprintf "crowd%d" i) in
        Ipcp.register_app node src ~on_flow:(fun _ -> ());
        Ipcp.allocate_flow node ~src ~dst ~qos_id:Qos.reliable.Qos.id
          ~on_result:(sender k))
  in
  let blackouts =
    match tr with
    | None -> []
    | Some t ->
      let events = Trace.typed_events t in
      Trace.close t;
      Report.blackouts events
  in
  {
    out with
    cr_busy_retries = Scenario.sum_metric net "alloc_busy";
    cr_busy_rejected = Metrics.get (Ipcp.metrics sink_node) "alloc_busy_rejected";
    cr_blackouts = blackouts;
  }

(* TCP has no admission layer: every SYN is accepted, every flow
   fights it out in the hub queue.  Same arrival process, same
   sizes. *)
let run_crowd_tcp () =
  let net =
    Topo.ip_star ~seed:404 ~bit_rate:bottleneck ~delay:0.002
      ~leaves:(crowd_senders + 1) ()
  in
  let engine = net.Topo.ip_engine in
  let reg = Workload.fct () in
  let ts = Tcpip.Tcp.attach net.Topo.hosts.(crowd_senders) in
  Tcpip.Tcp.listen ts ~port:5001 ~on_accept:(fun conn ->
      Tcpip.Tcp.set_on_receive conn
        (crowd_deliver engine reg ~close:(fun () -> Tcpip.Tcp.close conn)));
  let sink_addr = Tcpip.Ip.addr_of_octets 10 (crowd_senders + 1) 0 1 in
  let stacks =
    Array.init crowd_senders (fun i -> Tcpip.Tcp.attach net.Topo.hosts.(i))
  in
  crowd engine reg ~t0:(Engine.now engine) ~dial:(fun i k ->
      let s = i mod crowd_senders in
      Tcpip.Tcp.connect stacks.(s) ~src:(Tcpip.Ip.addr_of_octets 10 (s + 1) 0 1)
        ~dst:sink_addr ~dport:5001 ~on_result:(function
        | Ok c -> k (Some (Tcpip.Tcp.send c))
        | Error _ -> k None))

(* ---------- scenario 3: push-back across the stack ---------- *)

type pushback_out = {
  pb_delivered : int;
  pb_sent : int;
  pb_ecn_rcvd : int;
  pb_ecn_backoffs : int;
  pb_peak_lower_backlog : int;
}

let pushback_bytes = 4_000_000

(* The lower flows are window-limited: 64 PDUs in flight over a 100 ms
   round trip caps them near 600 PDU/s while the 10 Mb/s wires never
   saturate (so the reverse ack path stays healthy and the upper
   sender is never ack-starved).  The upper DIF's window is 32x
   deeper, so without push-back the upper sender parks ~2000 PDUs in
   the lower flow's backlog; with push-back the sustained marks hold
   the backlog near one lower window.  Lower DIF: congestion_policy
   with [pushback] toggled — the flag is read from the DIF that owns
   the transited flow. *)
let run_pushback ~pushback () =
  (* RTO floor well above the 100 ms path RTT — with delayed acks the
     smoothed estimate otherwise sits *at* the RTT and every window
     ends in a spurious retransmission timeout (the reason TCP floors
     its RTO at 200 ms). *)
  let lower_policy =
    {
      congestion_policy with
      Policy.efcp =
        { congestion_policy.Policy.efcp with Policy.init_rto = 0.5; min_rto = 0.25 };
      Policy.congestion = { congestion_policy.Policy.congestion with Policy.pushback };
    }
  in
  let upper_policy =
    {
      lower_policy with
      Policy.efcp = { lower_policy.Policy.efcp with Policy.window = 2048 };
    }
  in
  let w = Rig.relay ~seed:505 ~delay:0.05 ~lower:lower_policy ~upper:upper_policy in
  let engine = w.Rig.engine in
  let sink = Workload.sink () in
  let rcv_metrics = ref None in
  let connected =
    Scenario.connect engine
      ~src:(w.Rig.h1, Types.apn "pb-src")
      ~dst:(w.Rig.h2, Types.apn "pb-sink")
      ~qos_id:Qos.reliable.Qos.id
      ~on_flow:(fun flow ->
        rcv_metrics := Some flow.Ipcp.flow_metrics;
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu sink ~now:(Engine.now engine) sdu))
  in
  match connected with
  | Ok flow ->
    let t0 = Engine.now engine in
    let sent = (pushback_bytes + sdu_size - 1) / sdu_size in
    for seq = 0 to sent - 1 do
      flow.Ipcp.send (Workload.stamp_sealed ~now:t0 ~seq ~size:sdu_size)
    done;
    (* Sample the lower-left data flow's backlog while the transfer
       drains through the window-limited lower flow: this is the
       resource push-back is meant to protect.  Not drive_until: that
       tests before each step, which would add a sample at t0. *)
    let peak = ref 0 in
    let deadline = t0 +. 120. in
    while sink.Workload.count < sent && Engine.now engine < deadline do
      Engine.run ~until:(Engine.now engine +. 0.1) engine;
      List.iter
        (fun (_, _, backlog) -> if backlog > !peak then peak := backlog)
        (Ipcp.flow_stats w.Rig.left_h1)
    done;
    Topo.wait engine 2.0;
    let fm = flow.Ipcp.flow_metrics () in
    let ecn_rcvd =
      match !rcv_metrics with Some m -> Metrics.get (m ()) "ecn_rcvd" | None -> 0
    in
    {
      pb_delivered = sink.Workload.count;
      pb_sent = sent;
      pb_ecn_rcvd = ecn_rcvd;
      pb_ecn_backoffs = Metrics.get fm "ecn_backoffs";
      pb_peak_lower_backlog = !peak;
    }
  | Error _ ->
    {
      pb_delivered = 0;
      pb_sent = 0;
      pb_ecn_rcvd = 0;
      pb_ecn_backoffs = 0;
      pb_peak_lower_backlog = 0;
    }

(* ---------- reporting ---------- *)

let incast_json o =
  Json.Obj
    [ ("goodput_bps", Json.fixed 0 o.ic_goodput);
      ("goodput_ratio", Json.fixed 4 o.ic_ratio);
      ("admitted", Json.int o.ic_admitted); ("completed", Json.int o.ic_completed);
      ("fct_p50_ms", Json.fixed 3 o.ic_p50); ("fct_p99_ms", Json.fixed 3 o.ic_p99);
      ("fct_max_ms", Json.fixed 3 o.ic_max); ("ecn_marked", Json.int o.ic_marked);
      ("congestion_dropped", Json.int o.ic_cong_dropped);
      ("queue_dropped", Json.int o.ic_queue_dropped);
      ("queue_hwm", Json.int o.ic_queue_hwm);
      ("corrupt_escaped", Json.int o.ic_corrupt) ]

let crowd_json o =
  Json.Obj
    ([ ("arrivals", Json.int o.cr_arrivals); ("admitted", Json.int o.cr_admitted);
       ("alloc_failed", Json.int o.cr_failed);
       ("busy_retries", Json.int o.cr_busy_retries);
       ("busy_rejected", Json.int o.cr_busy_rejected);
       ("completed", Json.int o.cr_completed);
       ("unfinished", Json.int o.cr_unfinished);
       ("corrupt_escaped", Json.int o.cr_corrupt);
       ("fct_p50_ms", Json.fixed 3 o.cr_p50); ("fct_p99_ms", Json.fixed 3 o.cr_p99);
       ("goodput_bps", Json.fixed 0 o.cr_goodput) ]
    @
    if o.cr_blackouts = [] then []
    else [ ("faults", Gate.fault_rows crowd_faults o.cr_blackouts) ])

let pushback_json o =
  Json.Obj
    [ ("delivered", Json.int o.pb_delivered); ("sent", Json.int o.pb_sent);
      ("ecn_rcvd", Json.int o.pb_ecn_rcvd);
      ("ecn_backoffs", Json.int o.pb_ecn_backoffs);
      ("peak_lower_backlog", Json.int o.pb_peak_lower_backlog) ]

let run () =
  let incast_rina = run_incast_rina () in
  let incast_tcp = run_incast_tcp () in
  let crowd_rina = run_crowd_rina ~chaos:false () in
  let crowd_tcp = run_crowd_tcp () in
  let pb_on = run_pushback ~pushback:true () in
  let pb_off = run_pushback ~pushback:false () in
  let composed = run_crowd_rina ~chaos:true () in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "R3: overload — %d-way incast and a %.0f/s flash crowd through one \
            relay (bottleneck %.0f Mb/s)"
           senders crowd_rate (bottleneck /. 1e6))
      ~columns:[ "measure"; "RINA"; "TCP/IP" ]
  in
  Table.add_rowf table "incast goodput (%% of bottleneck) | %.1f%% | %.1f%%"
    (100. *. incast_rina.ic_ratio)
    (100. *. incast_tcp.ic_ratio);
  Table.add_rowf table "incast FCT p99 / max (ms) | %.0f / %.0f | %.0f / %.0f"
    incast_rina.ic_p99 incast_rina.ic_max incast_tcp.ic_p99 incast_tcp.ic_max;
  Table.add_rowf table "incast ECN-marked / drops | %d / %d | n/a / %d"
    incast_rina.ic_marked
    (incast_rina.ic_queue_dropped + incast_rina.ic_cong_dropped)
    incast_tcp.ic_queue_dropped;
  Table.add_rowf table "crowd admitted / arrivals | %d / %d | %d / %d"
    crowd_rina.cr_admitted crowd_rina.cr_arrivals crowd_tcp.cr_admitted
    crowd_tcp.cr_arrivals;
  Table.add_rowf table "crowd busy retries (backoff) | %d | n/a"
    crowd_rina.cr_busy_retries;
  Table.add_rowf table "crowd completed / unfinished | %d / %d | %d / %d"
    crowd_rina.cr_completed crowd_rina.cr_unfinished crowd_tcp.cr_completed
    crowd_tcp.cr_unfinished;
  Table.add_rowf table "crowd FCT p50 / p99 (ms) | %.0f / %.0f | %.0f / %.0f"
    crowd_rina.cr_p50 crowd_rina.cr_p99 crowd_tcp.cr_p50 crowd_tcp.cr_p99;
  Table.add_rowf table
    "pushback peak lower backlog (on/off) | %d / %d | n/a"
    pb_on.pb_peak_lower_backlog pb_off.pb_peak_lower_backlog;
  Table.add_rowf table "pushback ECN echoes -> backoffs | %d -> %d | n/a"
    pb_on.pb_ecn_rcvd pb_on.pb_ecn_backoffs;
  Table.add_rowf table "composed chaos completed / admitted | %d / %d | n/a"
    composed.cr_completed composed.cr_admitted;
  Table.print table;
  Gate.write "BENCH_congestion.json"
    (Json.Obj
       [ ("incast",
          Json.Obj
            [ ("senders", Json.int senders);
              ("flow_bytes", Json.int incast_flow_bytes);
              ("bottleneck_bps", Json.fixed 0 bottleneck);
              ("rina", incast_json incast_rina); ("tcp", incast_json incast_tcp) ]);
         ("flash_crowd",
          Json.Obj
            [ ("arrival_rate_per_s", Json.fixed 0 crowd_rate);
              ("window_s", Json.fixed 1 crowd_window);
              ("rina", crowd_json crowd_rina); ("tcp", crowd_json crowd_tcp) ]);
         ("pushback",
          Json.Obj [ ("on", pushback_json pb_on); ("off", pushback_json pb_off) ]);
         ("composed_chaos", Json.Obj [ ("rina", crowd_json composed) ]) ]);
  Gate.check "congestion" "R3: congestion-control invariant violated"
    [ ("incast goodput >= 80% bottleneck", incast_rina.ic_ratio >= 0.8);
      ("incast all flows complete",
       incast_rina.ic_completed = senders && incast_rina.ic_admitted = senders);
      ("no corrupt escapes",
       incast_rina.ic_corrupt = 0 && crowd_rina.cr_corrupt = 0
       && composed.cr_corrupt = 0);
      ("crowd admission exercised", crowd_rina.cr_busy_rejected > 0);
      ("crowd no livelock",
       crowd_rina.cr_unfinished = 0
       && crowd_rina.cr_completed = crowd_rina.cr_admitted);
      ("pushback signal end to end",
       pb_on.pb_ecn_rcvd > 0 && pb_on.pb_ecn_backoffs > 0);
      ("pushback bounds lower backlog",
       pb_on.pb_peak_lower_backlog < pb_off.pb_peak_lower_backlog);
      ("pushback still delivers all", pb_on.pb_delivered = pb_on.pb_sent);
      ("composed all faults recover",
       Gate.all_recovered crowd_faults composed.cr_blackouts);
      ("composed no livelock",
       composed.cr_unfinished = 0 && composed.cr_completed = composed.cr_admitted) ]
