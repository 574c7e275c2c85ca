(* R4 — multihoming failover and label-driven multipath striping.

   Three measurements against the claims of the path-resilience layer,
   plus the Mobile-IP triangle baseline, all in seeded virtual time so
   BENCH_multipath.json is byte-identical across runs:

   1. failover — a dual-homed 2-DIF relay (Fig. 2's arrangement, but
      the H1--R adjacency is stacked over TWO independent link DIFs).
      A 1 Mb/s sealed CBR stream crosses the relay while one member
      wire dies mid-stream and later heals, and a second window kills
      BOTH member wires at once (total outage — the surviving-path
      re-striping has nowhere to go and the sender's RMT must take
      typed R_path_down drops instead).  Gates: delivery blackout of
      the single-path kill <= 2x the probe interval (failover must not
      wait for LSA flooding), exactly-once in-order delivery, zero
      corrupt SDUs escaping the CRC trailer.

   2. striping — the same bulk transfer over a dual-homed pair, once
      with the multipath monitor armed (throughput label -> weighted
      round-robin over both ports) and once with the layer disabled
      (legacy single-path forwarding).  Gate: striped goodput >= 1.5x
      single-path.

   3. mass mobility — a scaled Figure-5 move: a cell DIF with
      [mobiles] dual-homed handsets uploading CBR through base
      stations B1/B2; at t_kill every B1 radio dies at once.  Each
      handset detects its own carrier loss (the system knows its own
      radios) and re-stripes onto B2 with no routing-update wait.
      Recorded: aggregate goodput and the widest per-flow blackout.

   Baseline: Mobile-IP (exp_f5's triangle) — the same single-radio
   handoff needs care-of registration at the distant home agent; its
   blackout is recorded for comparison (gate: present and finite).

   RINA_BENCH_SMOKE=1 shrinks the fleet for CI; RINA_TRACE=<file>
   saves the failover run's flight trace (rina_trace --drops shows the
   R_path_down drops taken during the both-wires window). *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Mangle = Rina_sim.Mangle
module Fault = Rina_sim.Fault
module Trace = Rina_sim.Trace
module Flight = Rina_util.Flight
module Json = Rina_util.Json
module Metrics = Rina_util.Metrics
module Table = Rina_util.Table
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Types = Rina_core.Types
module Policy = Rina_core.Policy
module Scenario = Rina_exp.Scenario
module Topo = Rina_exp.Topo
module Workload = Rina_exp.Workload
module Report = Rina_check.Trace_report

let smoke () = Sys.getenv_opt "RINA_BENCH_SMOKE" <> None

let probe_interval = 0.05

(* EFCP must persist through the both-wires outage; the multipath
   section is the subject under test. *)
let mp_policy =
  let d = Policy.default in
  {
    d with
    Policy.efcp =
      { d.Policy.efcp with Policy.init_rto = 0.3; min_rto = 0.05; max_rtx = 100_000 };
    Policy.multipath =
      {
        Policy.default_multipath with
        Policy.probe_interval;
        reprobe_backoff = 0.1;
      };
  }

let single_path_policy =
  {
    mp_policy with
    Policy.multipath = { mp_policy.Policy.multipath with Policy.probe_interval = 0. };
  }

(* ---------- 1. dual-homed 2-DIF relay: failover blackout ---------- *)

let cbr_rate = 1_000_000.

let sdu_size = 500

let stream_len = 24.

let drain = 10.

(* (label, start, end) relative to t0. *)
let kill_one = ("kill-path", 6., 12.)

let kill_both = ("kill-both", 16., 16.5)

type failover_outcome = {
  fo_sent : int;
  fo_delivered : int;
  fo_dups : int;
  fo_ooo : int;
  fo_corrupt : int;
  fo_blackouts : (string * float * float option) list;
  fo_path_down_drops : int;
  fo_failovers : int;
  fo_repath_pdus : int;
}

let run_failover () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 211 in
  let wire_l1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let wire_l2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let wire_r =
    (* mild corruption on the shared right segment: SDU protection must
       catch what the wire mangles, even during failover *)
    Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002
      ~mangle:(Mangle.make ~corrupt:0.01 ()) ()
  in
  let link_dif = Topo.link_dif engine ~policy:single_path_policy in
  let l1a, l1b = link_dif "left1" wire_l1 in
  let l2a, l2b = link_dif "left2" wire_l2 in
  let ra, rb = link_dif "right" wire_r in
  let top = Dif.create engine ~policy:mp_policy ~rank:1 "relay" in
  let h1 = Dif.add_member top ~name:"h1" () in
  let r = Dif.add_member top ~name:"r" () in
  let h2 = Dif.add_member top ~name:"h2" () in
  (* the dual-homed adjacency: H1--R over two independent lower DIFs *)
  Dif.stack_connect ~lower_a:l1a ~lower_b:l1b ~upper_a:h1 ~upper_b:r ();
  Dif.stack_connect ~lower_a:l2a ~lower_b:l2b ~upper_a:h1 ~upper_b:r ();
  Dif.stack_connect ~lower_a:ra ~lower_b:rb ~upper_a:r ~upper_b:h2 ();
  Dif.run_until_converged top ~max_time:90. ();
  let tr = Trace.create engine in
  (* RINA_STATS=<file> additionally folds the kept events into a
     telemetry registry: rina_stats then shows the exact path_up /
     path_suspect / path_down landmark counts and the handoff tally
     next to the drop timelines. *)
  let telemetry = Rig.stats_registry () in
  Trace.attach ?telemetry tr;
  let tally = Rig.tally () in
  let connected =
    Scenario.connect engine
      ~src:(h1, Types.apn "mp-src")
      ~dst:(h2, Types.apn "mp-sink")
      ~qos_id:1
      ~on_flow:(fun flow -> flow.Ipcp.set_on_receive (Rig.count tally))
  in
  match connected with
  | Ok flow ->
    let t0 = Engine.now engine in
    let plan = Fault.create () in
    let label1, a1, b1 = kill_one in
    Fault.link_down plan ~at:(t0 +. a1) ~until:(t0 +. b1) ~label:label1 wire_l1;
    (* both wires swallow frames with the carrier still up: no local
       carrier cue, so the monitor must *probe* its way to Down — and
       once both paths are Down the sender's RMT takes typed
       R_path_down drops until a re-probe succeeds after the heal *)
    let label2, a2, b2 = kill_both in
    Fault.window plan ~at:(t0 +. a2) ~until:(t0 +. b2) ~label:label2
      ~apply:(fun () ->
        Link.set_blackhole wire_l1 true;
        Link.set_blackhole wire_l2 true)
      ~heal:(fun () ->
        Link.set_blackhole wire_l1 false;
        Link.set_blackhole wire_l2 false);
    Fault.arm plan engine;
    (* sealed CBR: [Workload.cbr] stamps without the CRC trailer, so
       schedule the stream by hand.  Not R2's sealed_cbr: this tick
       sends before it tests the deadline, so it sends one SDU more. *)
    let interval = float_of_int (8 * sdu_size) /. cbr_rate in
    let sent = ref 0 in
    let rec tick () =
      flow.Ipcp.send
        (Workload.stamp_sealed ~now:(Engine.now engine) ~seq:!sent
           ~size:sdu_size);
      incr sent;
      if Engine.now engine < t0 +. stream_len then
        ignore (Engine.schedule engine ~delay:interval tick)
    in
    tick ();
    Engine.run ~until:(t0 +. stream_len +. drain) engine;
    Rig.save_trace tr;
    Option.iter Rig.save_stats telemetry;
    let events = Trace.typed_events tr in
    Trace.close tr;
    let path_down_drops =
      List.length
        (List.filter
           (fun (e : Flight.event) ->
             match e.Flight.kind with
             | Flight.Pdu_dropped Flight.R_path_down -> true
             | _ -> false)
           events)
    in
    Ok
      {
        fo_sent = !sent;
        fo_delivered = tally.Rig.fresh;
        fo_dups = tally.Rig.dups;
        fo_ooo = tally.Rig.ooo;
        fo_corrupt = tally.Rig.corrupt;
        (* deliveries that count: rank-1 EFCP receptions (lower-DIF and
           mgmt traffic would mask the blackout) *)
        fo_blackouts = Report.blackouts ~component:"efcp" ~rank:1 events;
        fo_path_down_drops = path_down_drops;
        fo_failovers = Metrics.get (Ipcp.metrics h1) "failovers";
        fo_repath_pdus = Metrics.get (Ipcp.metrics h1) "repath_pdus";
      }
  | Error e ->
    Trace.close tr;
    Error ("allocation failed: " ^ e)

(* ---------- 2. striped vs single-path goodput ---------- *)

let bulk_sdus = 2_000

let bulk_sdu_size = 1_000

(* One dual-homed pair; a windowed bulk transfer of [bulk_sdus] SDUs.
   Returns delivered-application goodput in bits/s. *)
let run_striping ~policy =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 212 in
  let dif = Dif.create engine ~policy "stripe" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let l1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let l2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  Dif.connect dif a b (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect dif a b (Link.endpoint_a l2, Link.endpoint_b l2);
  Dif.run_until_converged dif ();
  let sink = Workload.sink () in
  let dst = Types.apn "stripe-sink" in
  Ipcp.register_app b dst ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun sdu ->
          Workload.on_sdu sink ~now:(Engine.now engine) sdu));
  (* Not Scenario.connect: it registers the source app, and that
     directory flood would change this run's numbers. *)
  let result = ref None in
  Ipcp.allocate_flow a ~src:(Types.apn "stripe-src") ~dst ~qos_id:1
    ~on_result:(fun res -> result := Some res);
  Scenario.drive_until engine ~timeout:30. (fun () -> !result <> None);
  match !result with
  | Some (Ok flow) ->
    let t0 = Engine.now engine in
    Workload.bulk ~send:flow.Ipcp.send ~now:t0 ~count:bulk_sdus
      ~size:bulk_sdu_size;
    Engine.run ~until:(t0 +. 120.) engine;
    if sink.Workload.count < bulk_sdus then None
    else Some (Workload.goodput sink ~t0 ~t1:sink.Workload.last_arrival)
  | _ -> None

(* ---------- 3. mass mobility: a cell of dual-homed handsets ---------- *)

let mobiles () = if smoke () then 24 else 120

(* At cell scale (hundreds of ports on the base stations) a 50 ms
   probe on every port dominates the event stream; the cell probes at
   a calmer cadence — mass handoff is carrier-driven ("the system
   knows its own radios"), so the probe interval only bounds the
   blackhole-style detection this part does not exercise.  LSA
   refresh is off (as in F5, so routing traffic measures the moves
   alone) — which makes the enrollment-time floods load-bearing: an
   LSA tail-dropped in the mass-enrollment crush would never heal and
   the hub would keep no route back to that handset, so the cell
   links carry queues deep enough for the one-time crush (the default
   64-frame queue silently sheds part of a 120-member flood). *)
let cell_probe_interval = 0.2

let cell_queue_capacity = 1024

let cell_policy =
  {
    mp_policy with
    Policy.multipath =
      { mp_policy.Policy.multipath with Policy.probe_interval = cell_probe_interval };
    Policy.routing = { Policy.default_routing with Policy.refresh_ticks = 0 };
  }

let mob_rate = 64_000.

let mob_sdu = 200

let mob_stream = 10.

let mob_kill_at = 4.

type mobility_outcome = {
  mo_mobiles : int;
  mo_flows : int;
  mo_delivered : int;
  mo_lost : int;
  mo_goodput : float;
  mo_max_blackout : float;
}

let run_mass_mobility () =
  let n = mobiles () in
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 213 in
  let mk_link ?(bit_rate = 20_000_000.) () =
    Link.create engine rng ~bit_rate ~delay:0.002
      ~queue_capacity:cell_queue_capacity ()
  in
  let dif = Dif.create engine ~policy:cell_policy "cell" in
  let hub = Dif.add_member dif ~name:"hub" () in
  let b1 = Dif.add_member dif ~name:"bs1" () in
  let b2 = Dif.add_member dif ~name:"bs2" () in
  let connect x y l = Dif.connect dif x y (Link.endpoint_a l, Link.endpoint_b l) in
  connect hub b1 (mk_link ~bit_rate:100_000_000. ());
  connect hub b2 (mk_link ~bit_rate:100_000_000. ());
  let radios1 = Array.make n None in
  let handsets =
    Array.init n (fun i ->
        let m = Dif.add_member dif ~name:(Printf.sprintf "m%03d" i) () in
        let r1 = mk_link () and r2 = mk_link () in
        connect b1 m r1;
        connect b2 m r2;
        radios1.(i) <- Some r1;
        m)
  in
  Dif.run_until_converged dif ~max_time:600. ();
  (* one upload sink at the hub; every accepted flow gets its own
     arrival bookkeeping *)
  let total = ref 0 and total_bytes = ref 0 in
  let flow_logs = ref [] in
  let t_kill = ref infinity in
  let dst = Types.apn "hub-sink" in
  Ipcp.register_app hub dst ~on_flow:(fun flow ->
      let last_before = ref nan and first_after = ref nan in
      flow_logs := (last_before, first_after) :: !flow_logs;
      flow.Ipcp.set_on_receive (fun sdu ->
          incr total;
          total_bytes := !total_bytes + Bytes.length sdu;
          let now = Engine.now engine in
          if now < !t_kill then last_before := now
          else if Float.is_nan !first_after then first_after := now));
  let pending = ref 0 and failed = ref 0 in
  (* stagger the flow setups: 120 simultaneous allocations are an
     admission flash crowd (R3's subject), not this bench's — the
     handsets come up over a couple of seconds and then all lose their
     B1 radio in the same instant *)
  Array.iteri
    (fun i m ->
      incr pending;
      ignore
        (Engine.schedule engine
           ~delay:(0.02 *. float_of_int i)
           (fun () ->
             Ipcp.allocate_flow m
               ~src:(Types.apn (Printf.sprintf "up%03d" i))
               ~dst ~qos_id:1
               ~on_result:(fun res ->
                 decr pending;
                 match res with
                 | Ok flow ->
                   Workload.cbr engine ~send:flow.Ipcp.send ~rate:mob_rate
                     ~size:mob_sdu
                     ~until:(Engine.now engine +. mob_stream)
                     ()
                 | Error _ -> incr failed))))
    handsets;
  Scenario.drive_until engine ~step:0.1 ~timeout:60. (fun () -> !pending = 0);
  let t0 = Engine.now engine in
  t_kill := t0 +. mob_kill_at;
  ignore
    (Engine.schedule_at engine ~time:!t_kill (fun () ->
         Array.iter
           (function Some l -> Link.set_up l false | None -> ())
           radios1));
  Engine.run ~until:(t0 +. mob_stream +. 5.) engine;
  let interval = float_of_int (8 * mob_sdu) /. mob_rate in
  let max_blackout =
    List.fold_left
      (fun acc (last_before, first_after) ->
        if Float.is_nan !last_before || Float.is_nan !first_after then acc
        else Float.max acc (!first_after -. !last_before -. interval))
      0. !flow_logs
  in
  let sent_per_flow = int_of_float (mob_stream /. interval) in
  {
    mo_mobiles = n;
    mo_flows = n - !failed;
    mo_delivered = !total;
    mo_lost = max 0 ((sent_per_flow * (n - !failed)) - !total);
    mo_goodput = float_of_int (8 * !total_bytes) /. (mob_stream +. 5.);
    mo_max_blackout = Float.max 0. max_blackout;
  }

(* ---------- Mobile-IP triangle baseline ---------- *)

(* exp_f5's arrangement, reduced to the one number this bench needs:
   the handoff blackout of a care-of registration through the distant
   home agent. *)
let run_mobile_ip () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 214 in
  let mk_link () = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let h = Tcpip.Node.create engine "H" in
  let r0 = Tcpip.Node.create engine ~forwarding:true "R0" in
  let rh = Tcpip.Node.create engine ~forwarding:true "RH" in
  let rf = Tcpip.Node.create engine ~forwarding:true "RF" in
  let m = Tcpip.Node.create engine "M" in
  let wire ?(up = true) no a b =
    let l = mk_link () in
    if not up then Link.set_up l false;
    let subnet = Tcpip.Ip.addr_of_octets 10 no 0 0 in
    let prefix = Tcpip.Ip.prefix subnet 16 in
    ignore (Tcpip.Node.add_iface a (Link.endpoint_a l) ~addr:(subnet lor 1) ~prefix);
    ignore (Tcpip.Node.add_iface b (Link.endpoint_b l) ~addr:(subnet lor 2) ~prefix);
    (l, subnet)
  in
  let _ = wire 1 h r0 in
  let _ = wire 2 r0 rh in
  let l_home, s_home = wire 3 rh m in
  let _ = wire 4 r0 rf in
  let l_foreign, s_foreign = wire ~up:false 5 rf m in
  ignore (Tcpip.Node.add_static_route h (Tcpip.Ip.prefix 0 0) ~if_id:1 ());
  ignore (Tcpip.Node.add_static_route m (Tcpip.Ip.prefix 0 0) ~if_id:1 ());
  List.iter (fun r -> ignore (Tcpip.Dv.start r ~period:5.0 ())) [ r0; rh; rf ];
  Engine.run ~until:30. engine;
  let home_addr = s_home lor 2 in
  let care_of = s_foreign lor 2 in
  let u_h = Tcpip.Udp.attach h and u_m = Tcpip.Udp.attach m in
  let u_rh = Tcpip.Udp.attach rh in
  let ha_addr = Tcpip.Ip.addr_of_octets 10 2 0 2 in
  let _agent = Tcpip.Mobile_ip.home_agent rh u_rh ~local:ha_addr in
  let mob = Tcpip.Mobile_ip.mobile m u_m ~home_addr in
  let last_rx = ref 0. and max_gap = ref 0. in
  Tcpip.Udp.listen u_m ~port:9000 (fun ~src:_ ~sport:_ _ ->
      let now = Engine.now engine in
      if !last_rx > 0. && now -. !last_rx > !max_gap then
        max_gap := now -. !last_rx;
      last_rx := now);
  let h_src = Tcpip.Ip.addr_of_octets 10 1 0 1 in
  let interval = float_of_int (8 * mob_sdu) /. mob_rate in
  let rec stream () =
    Tcpip.Udp.send u_h ~src:h_src ~dst:home_addr ~sport:9000 ~dport:9000
      (Bytes.make mob_sdu 'm');
    if Engine.now engine < 50. then
      ignore (Engine.schedule engine ~delay:interval stream)
  in
  stream ();
  Engine.run ~until:33. engine;
  (* the move: home radio dies, foreign comes up, care-of registers *)
  max_gap := 0.;
  last_rx := Engine.now engine;
  Link.set_up l_home false;
  Link.set_up l_foreign true;
  ignore (Tcpip.Node.add_static_route m (Tcpip.Ip.prefix 0 0) ~if_id:2 ());
  let registered = ref false in
  Tcpip.Mobile_ip.register_care_of mob ~home_agent_addr:ha_addr ~care_of
    ~on_ack:(fun () -> registered := true);
  Engine.run ~until:52. engine;
  (!max_gap, !registered)

(* ---------- reporting + gates ---------- *)

let multipath_json fo ~kill_path ~kill_both striped single mob
    (ip_blackout, ip_registered) =
  let gap = Option.fold ~none:Json.Null ~some:(Json.fixed 6) in
  Json.Obj
    [ ("failover",
       Json.Obj
         [ ("probe_interval_s", Json.fixed 3 probe_interval);
           ("sent", Json.int fo.fo_sent); ("delivered", Json.int fo.fo_delivered);
           ("duplicates", Json.int fo.fo_dups);
           ("out_of_order", Json.int fo.fo_ooo);
           ("corrupt_escaped", Json.int fo.fo_corrupt);
           ("failovers", Json.int fo.fo_failovers);
           ("repath_pdus", Json.int fo.fo_repath_pdus);
           ("path_down_drops", Json.int fo.fo_path_down_drops);
           ("kill_path_blackout_s", gap kill_path);
           ("kill_both_blackout_s", gap kill_both) ]);
      ("striping",
       Json.Obj
         [ ("striped_goodput_bps", Json.fixed 0 striped);
           ("single_goodput_bps", Json.fixed 0 single);
           ("speedup", Json.fixed 3 (if single > 0. then striped /. single else 0.)) ]);
      ("mass_mobility",
       Json.Obj
         [ ("mobiles", Json.int mob.mo_mobiles); ("flows", Json.int mob.mo_flows);
           ("delivered", Json.int mob.mo_delivered); ("lost", Json.int mob.mo_lost);
           ("aggregate_goodput_bps", Json.fixed 0 mob.mo_goodput);
           ("max_blackout_s", Json.fixed 6 mob.mo_max_blackout) ]);
      ("mobile_ip",
       Json.Obj
         [ ("handoff_blackout_s", Json.fixed 6 ip_blackout);
           ("registered", Json.Bool ip_registered) ]) ]

let run () =
  let table =
    Table.create
      ~title:
        "R4: multihoming failover + multipath striping — dual-homed relay, \
         striped goodput, mass mobility"
      ~columns:[ "measurement"; "RINA multipath"; "baseline" ]
  in
  match run_failover () with
  | Error e -> Gate.abort ("R4: failover run failed: " ^ e)
  | Ok fo ->
    let striped = run_striping ~policy:mp_policy in
    let single = run_striping ~policy:single_path_policy in
    let mob = run_mass_mobility () in
    let ip_blackout, ip_registered = run_mobile_ip () in
    let striped_bps = Option.value ~default:0. striped in
    let single_bps = Option.value ~default:0. single in
    let gap (label, _, _) = Gate.blackout fo.fo_blackouts label in
    let kill_path = gap kill_one and kill_both_g = gap kill_both in
    Table.add_rowf table
      "path-kill blackout | %s s (probe interval %.2f s) | Mobile-IP handoff \
       %.3f s"
      (match kill_path with Some g -> Printf.sprintf "%.4f" g | None -> "NONE")
      probe_interval ip_blackout;
    Table.add_rowf table
      "both-paths outage | %s s, %d typed path-down drops | n/a"
      (match kill_both_g with Some g -> Printf.sprintf "%.2f" g | None -> "NONE")
      fo.fo_path_down_drops;
    Table.add_rowf table
      "delivery across failover | %d/%d, %d dup, %d ooo, %d corrupt | UDP \
       loses the outage window"
      fo.fo_delivered fo.fo_sent fo.fo_dups fo.fo_ooo fo.fo_corrupt;
    Table.add_rowf table
      "bulk goodput, 2 equal paths | %.2f Mb/s striped | %.2f Mb/s \
       single-path (%.2fx)"
      (striped_bps /. 1e6) (single_bps /. 1e6)
      (if single_bps > 0. then striped_bps /. single_bps else 0.);
    Table.add_rowf table
      "mass handoff (%d handsets) | %.0f ms worst blackout, %.1f Mb/s \
       aggregate, %d lost | triangle routing via home agent"
      mob.mo_mobiles
      (1000. *. mob.mo_max_blackout)
      (mob.mo_goodput /. 1e6) mob.mo_lost;
    Table.print table;
    Gate.write "BENCH_multipath.json"
      (multipath_json fo ~kill_path ~kill_both:kill_both_g striped_bps single_bps
         mob (ip_blackout, ip_registered));
    Gate.check "multipath" "R4: multipath invariant violated"
      [ ("failover blackout <= 2x probe",
         match kill_path with Some g -> g <= 2. *. probe_interval | None -> false);
        ("exactly_once (no dups)", fo.fo_dups = 0);
        ("in_order", fo.fo_ooo = 0);
        ("complete delivery", fo.fo_delivered = fo.fo_sent);
        ("no corrupt escapes", fo.fo_corrupt = 0);
        ("striped >= 1.5x single-path",
         single_bps > 0. && striped_bps >= 1.5 *. single_bps);
        ("mass handoff bounded",
         mob.mo_max_blackout <= (2. *. cell_probe_interval) +. 0.05);
        ("mobile-ip blackout recorded",
         ip_registered && Float.is_finite ip_blackout && ip_blackout > 0.) ]
