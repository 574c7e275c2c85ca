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
module Link = Rina_sim.Link
module Fault = Rina_sim.Fault
module Trace = Rina_sim.Trace
module Flight = Rina_util.Flight
module Metrics = Rina_util.Metrics
module Stats = Rina_util.Stats
module Table = Rina_util.Table
module Prng = Rina_util.Prng
module Policy = Rina_core.Policy
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Shim = Rina_core.Shim
module Types = Rina_core.Types
module Qos = Rina_core.Qos
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

(* RINA_TRACE=<file> saves the incast run's flight-recorder trace
   (rina_trace --drops shows the R_congestion breakdown, --queues the
   hub occupancy timeline); RINA_STATS=<file> writes the telemetry
   registry (rina_stats shows exact ecn_mark counts and the
   probe:queue:hub occupancy distribution).  Neither variable set:
   tracing stays disabled and the run is bit-for-bit the default. *)
let maybe_obs engine hub =
  let trace_path = Sys.getenv_opt "RINA_TRACE" in
  let stats_path = Sys.getenv_opt "RINA_STATS" in
  if trace_path = None && stats_path = None then fun () -> ()
  else begin
    let obs = Rina_exp.Obs.start engine in
    let until = Engine.now engine +. 60. in
    Rina_exp.Obs.snapshots obs ~until;
    Rina_sim.Trace.probe obs.Rina_exp.Obs.trace ~name:"queue:hub" ~period:0.05
      ~until (fun () -> Ipcp.rmt_queue_depth hub);
    fun () ->
      (match trace_path with
      | Some path -> Rina_sim.Trace.save_jsonl obs.Rina_exp.Obs.trace path
      | None -> ());
      (match stats_path with
      | Some path -> Rina_exp.Obs.write_stats obs path
      | None -> ());
      Rina_exp.Obs.stop obs
  end

let run_incast_rina () =
  let net =
    Topo.star ~seed:303 ~policy:congestion_policy ~bit_rate:bottleneck
      ~delay:0.002 ~rate_limited:true ~leaves:(senders + 1) ()
  in
  let engine = net.Topo.engine in
  let hub = net.Topo.nodes.(0) in
  let finish_obs = maybe_obs engine hub in
  let sink_node = net.Topo.nodes.(senders + 1) in
  let reg = Workload.fct () in
  let t_done = ref None in
  let dst = Types.apn "incast-sink" in
  Ipcp.register_app sink_node dst ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun sdu ->
          let now = Engine.now engine in
          Workload.on_flow_sdu reg ~now sdu;
          if reg.Workload.completed = senders && !t_done = None then
            t_done := Some now));
  Topo.wait engine 3.0;
  let flows = Array.make senders None in
  let outstanding = ref 0 in
  for i = 0 to senders - 1 do
    let node = net.Topo.nodes.(i + 1) in
    let src = Types.apn (Printf.sprintf "incast-src%d" i) in
    Ipcp.register_app node src ~on_flow:(fun _ -> ());
    incr outstanding;
    Ipcp.allocate_flow node ~src ~dst ~qos_id:Qos.reliable.Qos.id
      ~on_result:(fun res ->
        decr outstanding;
        match res with Ok f -> flows.(i) <- Some f | Error _ -> ())
  done;
  let deadline = Engine.now engine +. 60. in
  while !outstanding > 0 && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.05) engine
  done;
  (* The incast instant: every admitted sender dumps its whole flow at
     once. *)
  let t0 = Engine.now engine in
  let admitted = ref 0 in
  Array.iteri
    (fun i fo ->
      match fo with
      | Some f ->
        incr admitted;
        Workload.flow_bulk reg ~send:f.Ipcp.send ~now:t0 ~flow:i
          ~size:incast_flow_bytes ~sdu:sdu_size
      | None -> ())
    flows;
  let deadline = t0 +. 300. in
  while !t_done = None && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.25) engine
  done;
  Topo.wait engine 2.0;
  finish_obs ();
  let t1 = match !t_done with Some t -> t | None -> Engine.now engine in
  let goodput = Workload.fct_goodput reg ~t0 ~t1 in
  let rm = Ipcp.rmt_metrics hub in
  {
    ic_goodput = goodput;
    ic_ratio = goodput /. bottleneck;
    ic_admitted = !admitted;
    ic_completed = reg.Workload.completed;
    ic_corrupt = reg.Workload.fct_corrupt;
    ic_p50 = ms reg.Workload.durations 50.;
    ic_p99 = ms reg.Workload.durations 99.;
    ic_max = 1000. *. Stats.max_value reg.Workload.durations;
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
  let engine = net.Topo.ip_engine in
  let sink = net.Topo.hosts.(senders) in
  let reg = Workload.fct () in
  let t_done = ref None in
  let ts = Tcpip.Tcp.attach sink in
  Tcpip.Tcp.listen ts ~port:5001 ~on_accept:(fun conn ->
      Tcpip.Tcp.set_on_receive conn (fun sdu ->
          let now = Engine.now engine in
          Workload.on_flow_sdu reg ~now sdu;
          if reg.Workload.completed = senders && !t_done = None then
            t_done := Some now));
  let sink_addr = Tcpip.Ip.addr_of_octets 10 (senders + 1) 0 1 in
  let conns = Array.make senders None in
  let outstanding = ref 0 in
  for i = 0 to senders - 1 do
    let st = Tcpip.Tcp.attach net.Topo.hosts.(i) in
    let src_addr = Tcpip.Ip.addr_of_octets 10 (i + 1) 0 1 in
    incr outstanding;
    Tcpip.Tcp.connect st ~src:src_addr ~dst:sink_addr ~dport:5001
      ~on_result:(fun res ->
        decr outstanding;
        match res with Ok c -> conns.(i) <- Some c | Error _ -> ())
  done;
  let deadline = Engine.now engine +. 60. in
  while !outstanding > 0 && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.05) engine
  done;
  let t0 = Engine.now engine in
  let admitted = ref 0 in
  Array.iteri
    (fun i co ->
      match co with
      | Some c ->
        incr admitted;
        Workload.flow_bulk reg
          ~send:(fun sdu -> Tcpip.Tcp.send c sdu)
          ~now:t0 ~flow:i ~size:incast_flow_bytes ~sdu:sdu_size
      | None -> ())
    conns;
  let deadline = t0 +. 300. in
  while !t_done = None && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.25) engine
  done;
  Topo.wait engine 2.0;
  let t1 = match !t_done with Some t -> t | None -> Engine.now engine in
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
  (* The sink closes each flow when its FIN lands, freeing the
     admission slot for the next busy-rejected requester. *)
  Ipcp.register_app sink_node dst ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun sdu ->
          let now = Engine.now engine in
          Workload.on_flow_sdu reg ~now sdu;
          match Workload.read_flow sdu with
          | Some fs when fs.Workload.fs_fin -> flow.Ipcp.close ()
          | _ -> ()));
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
  let size_rng = Prng.create 909 in
  let arrival_rng = Prng.create 808 in
  let arrivals = ref 0 and admitted = ref 0 and failed = ref 0 in
  Workload.poisson_arrivals engine arrival_rng ~rate:crowd_rate
    ~until:(t0 +. crowd_window) (fun i ->
      incr arrivals;
      let node = net.Topo.nodes.(1 + (i mod crowd_senders)) in
      let src = Types.apn (Printf.sprintf "crowd%d" i) in
      Ipcp.register_app node src ~on_flow:(fun _ -> ());
      let size =
        min crowd_cap
          (int_of_float
             (Prng.pareto size_rng ~alpha:crowd_alpha
                ~xmin:(float_of_int crowd_xmin)))
      in
      Ipcp.allocate_flow node ~src ~dst ~qos_id:Qos.reliable.Qos.id
        ~on_result:(function
          | Ok f ->
            incr admitted;
            Workload.flow_bulk reg ~send:f.Ipcp.send ~now:(Engine.now engine)
              ~flow:i ~size ~sdu:sdu_size
          | Error _ -> incr failed));
  let settled () =
    Engine.now engine > t0 +. crowd_window +. 1.
    && !admitted + !failed = !arrivals
    && Workload.unfinished reg = []
  in
  let deadline = t0 +. crowd_window +. 120. in
  while (not (settled ())) && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.25) engine
  done;
  Topo.wait engine 5.0;
  let blackouts =
    match tr with
    | None -> []
    | Some t ->
      let events = Trace.typed_events t in
      Trace.detach ();
      Report.blackouts events
  in
  let busy_retries =
    Array.fold_left
      (fun acc n -> acc + Metrics.get (Ipcp.metrics n) "alloc_busy")
      0 net.Topo.nodes
  in
  {
    cr_arrivals = !arrivals;
    cr_admitted = !admitted;
    cr_failed = !failed;
    cr_busy_retries = busy_retries;
    cr_busy_rejected = Metrics.get (Ipcp.metrics sink_node) "alloc_busy_rejected";
    cr_completed = reg.Workload.completed;
    cr_unfinished = List.length (Workload.unfinished reg);
    cr_corrupt = reg.Workload.fct_corrupt;
    cr_p50 = ms reg.Workload.durations 50.;
    cr_p99 = ms reg.Workload.durations 99.;
    cr_goodput = Workload.fct_goodput reg ~t0 ~t1:(Engine.now engine);
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
  let sink = net.Topo.hosts.(crowd_senders) in
  let reg = Workload.fct () in
  let ts = Tcpip.Tcp.attach sink in
  Tcpip.Tcp.listen ts ~port:5001 ~on_accept:(fun conn ->
      Tcpip.Tcp.set_on_receive conn (fun sdu ->
          let now = Engine.now engine in
          Workload.on_flow_sdu reg ~now sdu;
          match Workload.read_flow sdu with
          | Some fs when fs.Workload.fs_fin -> Tcpip.Tcp.close conn
          | _ -> ()));
  let sink_addr = Tcpip.Ip.addr_of_octets 10 (crowd_senders + 1) 0 1 in
  let stacks =
    Array.init crowd_senders (fun i -> Tcpip.Tcp.attach net.Topo.hosts.(i))
  in
  let t0 = Engine.now engine in
  let size_rng = Prng.create 909 in
  let arrival_rng = Prng.create 808 in
  let arrivals = ref 0 and admitted = ref 0 and failed = ref 0 in
  Workload.poisson_arrivals engine arrival_rng ~rate:crowd_rate
    ~until:(t0 +. crowd_window) (fun i ->
      incr arrivals;
      let s = i mod crowd_senders in
      let src_addr = Tcpip.Ip.addr_of_octets 10 (s + 1) 0 1 in
      let size =
        min crowd_cap
          (int_of_float
             (Prng.pareto size_rng ~alpha:crowd_alpha
                ~xmin:(float_of_int crowd_xmin)))
      in
      Tcpip.Tcp.connect stacks.(s) ~src:src_addr ~dst:sink_addr ~dport:5001
        ~on_result:(function
          | Ok c ->
            incr admitted;
            Workload.flow_bulk reg
              ~send:(fun sdu -> Tcpip.Tcp.send c sdu)
              ~now:(Engine.now engine) ~flow:i ~size ~sdu:sdu_size
          | Error _ -> incr failed));
  let settled () =
    Engine.now engine > t0 +. crowd_window +. 1.
    && !admitted + !failed = !arrivals
    && Workload.unfinished reg = []
  in
  let deadline = t0 +. crowd_window +. 120. in
  while (not (settled ())) && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.25) engine
  done;
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
  let engine = Engine.create () in
  let rng = Prng.create 505 in
  let wire_l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.05 () in
  let wire_r = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.05 () in
  let link_dif name link =
    let dif = Dif.create engine ~policy:lower_policy name in
    let a = Dif.add_member dif ~name:(name ^ "-a") () in
    let b = Dif.add_member dif ~name:(name ^ "-b") () in
    Dif.connect dif a b
      ( Shim.wrap ~dif:name (Link.endpoint_a link),
        Shim.wrap ~dif:name (Link.endpoint_b link) );
    Dif.run_until_converged dif ();
    (a, b)
  in
  let la, lb = link_dif "left" wire_l in
  let ra, rb = link_dif "right" wire_r in
  let top = Dif.create engine ~policy:upper_policy ~rank:1 "relay" in
  let h1 = Dif.add_member top ~name:"h1" () in
  let r = Dif.add_member top ~name:"r" () in
  let h2 = Dif.add_member top ~name:"h2" () in
  Dif.stack_connect ~lower_a:la ~lower_b:lb ~upper_a:h1 ~upper_b:r ();
  Dif.stack_connect ~lower_a:ra ~lower_b:rb ~upper_a:r ~upper_b:h2 ();
  Dif.run_until_converged top ~max_time:90. ();
  let sink = Workload.sink () in
  let rcv_metrics = ref None in
  let dst = Types.apn "pb-sink" in
  Ipcp.register_app h2 dst ~on_flow:(fun flow ->
      rcv_metrics := Some flow.Ipcp.flow_metrics;
      flow.Ipcp.set_on_receive (fun sdu ->
          Workload.on_sdu sink ~now:(Engine.now engine) sdu));
  let src = Types.apn "pb-src" in
  Ipcp.register_app h1 src ~on_flow:(fun _ -> ());
  let result = ref None in
  Ipcp.allocate_flow h1 ~src ~dst ~qos_id:Qos.reliable.Qos.id
    ~on_result:(fun res -> result := Some res);
  let deadline = Engine.now engine +. 30. in
  while !result = None && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. 0.05) engine
  done;
  match !result with
  | Some (Ok flow) ->
    let t0 = Engine.now engine in
    let sent = (pushback_bytes + sdu_size - 1) / sdu_size in
    for seq = 0 to sent - 1 do
      flow.Ipcp.send (Workload.stamp_sealed ~now:t0 ~seq ~size:sdu_size)
    done;
    (* Sample the lower-left data flow's backlog while the transfer
       drains through the window-limited lower flow: this is the
       resource push-back is meant to protect. *)
    let peak = ref 0 in
    let deadline = t0 +. 120. in
    while sink.Workload.count < sent && Engine.now engine < deadline do
      Engine.run ~until:(Engine.now engine +. 0.1) engine;
      List.iter
        (fun (_, _, backlog) -> if backlog > !peak then peak := backlog)
        (Ipcp.flow_stats la)
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
  | _ ->
    {
      pb_delivered = 0;
      pb_sent = 0;
      pb_ecn_rcvd = 0;
      pb_ecn_backoffs = 0;
      pb_peak_lower_backlog = 0;
    }

(* ---------- reporting ---------- *)

let json_incast buf name o =
  Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"goodput_bps\": %.0f,\n      \"goodput_ratio\": %.4f,\n" o.ic_goodput
       o.ic_ratio);
  Buffer.add_string buf
    (Printf.sprintf "      \"admitted\": %d,\n      \"completed\": %d,\n"
       o.ic_admitted o.ic_completed);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"fct_p50_ms\": %.3f,\n      \"fct_p99_ms\": %.3f,\n      \
        \"fct_max_ms\": %.3f,\n"
       o.ic_p50 o.ic_p99 o.ic_max);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"ecn_marked\": %d,\n      \"congestion_dropped\": %d,\n      \
        \"queue_dropped\": %d,\n      \"queue_hwm\": %d,\n"
       o.ic_marked o.ic_cong_dropped o.ic_queue_dropped o.ic_queue_hwm);
  Buffer.add_string buf
    (Printf.sprintf "      \"corrupt_escaped\": %d\n    }" o.ic_corrupt)

let json_crowd buf name o =
  Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"arrivals\": %d,\n      \"admitted\": %d,\n      \
        \"alloc_failed\": %d,\n"
       o.cr_arrivals o.cr_admitted o.cr_failed);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"busy_retries\": %d,\n      \"busy_rejected\": %d,\n"
       o.cr_busy_retries o.cr_busy_rejected);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"completed\": %d,\n      \"unfinished\": %d,\n      \
        \"corrupt_escaped\": %d,\n"
       o.cr_completed o.cr_unfinished o.cr_corrupt);
  Buffer.add_string buf
    (Printf.sprintf
       "      \"fct_p50_ms\": %.3f,\n      \"fct_p99_ms\": %.3f,\n      \
        \"goodput_bps\": %.0f"
       o.cr_p50 o.cr_p99 o.cr_goodput);
  (if o.cr_blackouts <> [] then begin
     Buffer.add_string buf ",\n      \"faults\": [\n";
     let n = List.length crowd_faults in
     List.iteri
       (fun i (label, at, until) ->
         let blackout, recovered =
           match
             List.find_opt (fun (l, _, _) -> String.equal l label) o.cr_blackouts
           with
           | Some (_, _, Some g) -> (Printf.sprintf "%.6f" g, true)
           | _ -> ("null", false)
         in
         Buffer.add_string buf
           (Printf.sprintf
              "        {\"label\": %S, \"at_s\": %.1f, \"until_s\": %.1f, \
               \"blackout_s\": %s, \"recovered\": %b}%s\n"
              label at until blackout recovered
              (if i = n - 1 then "" else ",")))
       crowd_faults;
     Buffer.add_string buf "      ]"
   end);
  Buffer.add_string buf "\n    }"

let json_pushback buf name o =
  Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
  Buffer.add_string buf
    (Printf.sprintf "      \"delivered\": %d,\n      \"sent\": %d,\n"
       o.pb_delivered o.pb_sent);
  Buffer.add_string buf
    (Printf.sprintf "      \"ecn_rcvd\": %d,\n      \"ecn_backoffs\": %d,\n"
       o.pb_ecn_rcvd o.pb_ecn_backoffs);
  Buffer.add_string buf
    (Printf.sprintf "      \"peak_lower_backlog\": %d\n    }"
       o.pb_peak_lower_backlog)

let write_json ~incast_rina ~incast_tcp ~crowd_rina ~crowd_tcp ~pb_on ~pb_off
    ~composed =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"incast\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"senders\": %d,\n    \"flow_bytes\": %d,\n    \
        \"bottleneck_bps\": %.0f,\n"
       senders incast_flow_bytes bottleneck);
  json_incast buf "rina" incast_rina;
  Buffer.add_string buf ",\n";
  json_incast buf "tcp" incast_tcp;
  Buffer.add_string buf "\n  },\n  \"flash_crowd\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"arrival_rate_per_s\": %.0f,\n    \"window_s\": %.1f,\n" crowd_rate
       crowd_window);
  json_crowd buf "rina" crowd_rina;
  Buffer.add_string buf ",\n";
  json_crowd buf "tcp" crowd_tcp;
  Buffer.add_string buf "\n  },\n  \"pushback\": {\n";
  json_pushback buf "on" pb_on;
  Buffer.add_string buf ",\n";
  json_pushback buf "off" pb_off;
  Buffer.add_string buf "\n  },\n  \"composed_chaos\": {\n";
  json_crowd buf "rina" composed;
  Buffer.add_string buf "\n  }\n}\n";
  Out_channel.with_open_text "BENCH_congestion.json" (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

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
  write_json ~incast_rina ~incast_tcp ~crowd_rina ~crowd_tcp ~pb_on ~pb_off
    ~composed;
  Printf.printf "wrote BENCH_congestion.json\n";
  if Sys.getenv_opt "RINA_BENCH_CHECK" <> None then begin
    let fail = ref false in
    let claim name ok =
      Printf.printf "congestion gate: %-32s %s\n" name
        (if ok then "ok" else "VIOLATED");
      if not ok then fail := true
    in
    claim "incast goodput >= 80% bottleneck" (incast_rina.ic_ratio >= 0.8);
    claim "incast all flows complete"
      (incast_rina.ic_completed = senders && incast_rina.ic_admitted = senders);
    claim "no corrupt escapes"
      (incast_rina.ic_corrupt = 0 && crowd_rina.cr_corrupt = 0
     && composed.cr_corrupt = 0);
    claim "crowd admission exercised" (crowd_rina.cr_busy_rejected > 0);
    claim "crowd no livelock"
      (crowd_rina.cr_unfinished = 0
      && crowd_rina.cr_completed = crowd_rina.cr_admitted);
    claim "pushback signal end to end"
      (pb_on.pb_ecn_rcvd > 0 && pb_on.pb_ecn_backoffs > 0);
    claim "pushback bounds lower backlog"
      (pb_on.pb_peak_lower_backlog < pb_off.pb_peak_lower_backlog);
    claim "pushback still delivers all" (pb_on.pb_delivered = pb_on.pb_sent);
    claim "composed all faults recover"
      (List.for_all
         (fun (label, _, _) ->
           match
             List.find_opt
               (fun (l, _, _) -> String.equal l label)
               composed.cr_blackouts
           with
           | Some (_, _, Some _) -> true
           | _ -> false)
         crowd_faults);
    claim "composed no livelock"
      (composed.cr_unfinished = 0 && composed.cr_completed = composed.cr_admitted);
    if !fail then begin
      Printf.eprintf "R3: congestion-control invariant violated\n";
      exit 1
    end
  end
