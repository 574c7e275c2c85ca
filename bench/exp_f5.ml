(* F5 — Figure 5: mobility is dynamic multihoming across nested DIFs.

   Topology (RINA side):

     top DIF      H ---- GR ==(stacked)== M      and H ---- GL
     bottom-right {GRb, B1, B2, Mrb}: GRb-B1, GRb-B2, B1-M, B2-M
     bottom-left  {GLb, B3, Mlb}:     GLb-B3, B3-M (initially down)

   A CBR stream H→M runs at the top level throughout.

   Move 1 (local, within the right (N-1)-DIF): the B1–M link dies;
   the bottom-right DIF re-routes to the B2 point of attachment.  The
   paper's claim: the update is confined to the low-rank DIF — the top
   DIF must see ZERO routing traffic and the stream barely notices.

   Move 2 (wide, to the left region): the B3–M link comes up, M's
   left bottom IPCP enrolls, a new top-level attachment is stacked
   through the left cluster, then the last right-side link (B2–M)
   dies.  Now the top DIF must update — but only around M.

   Baseline: Mobile-IP.  The mobile's TCP/UDP identity is its *home
   address*; a move to a foreign subnet needs care-of registration at
   the (possibly distant) home agent, and every subsequent packet
   triangle-routes through the home network. *)

module Engine = Rina_sim.Engine
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Link = Rina_sim.Link
module Table = Rina_util.Table
module Workload = Rina_exp.Workload

let cbr_rate = 1_000_000.

let sdu_size = 500

let mk_link engine rng = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 ()

let connect dif a b link =
  Dif.connect dif a b (Link.endpoint_a link, Link.endpoint_b link)

type world = {
  engine : Engine.t;
  top : Dif.t;
  bottom_right : Dif.t;
  bottom_left : Dif.t;
  h : Ipcp.t;
  m_top : Ipcp.t;
  mrb : Ipcp.t;  (* M's bottom-right IPC process *)
  mlb : Ipcp.t;
  glb : Ipcp.t;
  gl : Ipcp.t;
  l_b1_m : Link.t;
  l_b2_m : Link.t;
  l_b3_m : Link.t;
}

(* Periodic LSA refresh is disabled in this experiment (a routing
   policy) so that flood counts measure exactly the move-triggered
   updates; all links here are loss-free, so anti-entropy is moot. *)
let quiet_policy =
  {
    Rina_core.Policy.default with
    Rina_core.Policy.routing =
      { Rina_core.Policy.default_routing with Rina_core.Policy.refresh_ticks = 0 };
  }

let build () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 59 in
  (* Bottom-right cluster. *)
  let br = Dif.create engine ~policy:quiet_policy "cell-right" in
  let grb = Dif.add_member br ~name:"GRb" () in
  let b1 = Dif.add_member br ~name:"B1" () in
  let b2 = Dif.add_member br ~name:"B2" () in
  let mrb = Dif.add_member br ~name:"Mrb" () in
  connect br grb b1 (mk_link engine rng);
  connect br grb b2 (mk_link engine rng);
  let l_b1_m = mk_link engine rng in
  let l_b2_m = mk_link engine rng in
  connect br b1 mrb l_b1_m;
  connect br b2 mrb l_b2_m;
  Dif.run_until_converged br ();
  (* Bottom-left cluster; M's link starts down (out of range). *)
  let bl = Dif.create engine ~policy:quiet_policy "cell-left" in
  let glb = Dif.add_member bl ~name:"GLb" () in
  let b3 = Dif.add_member bl ~name:"B3" () in
  let mlb = Dif.add_member bl ~name:"Mlb" () in
  connect bl glb b3 (mk_link engine rng);
  let l_b3_m = mk_link engine rng in
  Link.set_up l_b3_m false;
  connect bl b3 mlb l_b3_m;
  Dif.run_until_converged bl ~max_time:20. ();
  (* Top DIF: H, the two gateways, and M. *)
  let top = Dif.create engine ~policy:quiet_policy "internet" in
  let h = Dif.add_member top ~name:"H" () in
  let gr = Dif.add_member top ~name:"GR" () in
  let gl = Dif.add_member top ~name:"GL" () in
  let m_top = Dif.add_member top ~name:"M" () in
  connect top h gr (mk_link engine rng);
  connect top h gl (mk_link engine rng);
  (* M reaches the top DIF through the right cluster. *)
  Dif.stack_connect ~lower_a:grb ~lower_b:mrb ~upper_a:gr ~upper_b:m_top ();
  Dif.run_until_converged top ~max_time:60. ();
  {
    engine;
    top;
    bottom_right = br;
    bottom_left = bl;
    h;
    m_top;
    mrb;
    mlb;
    glb;
    gl;
    l_b1_m;
    l_b2_m;
    l_b3_m;
  }

let dif_lsa_floods dif =
  List.fold_left
    (fun acc m -> acc + Rina_util.Metrics.get (Ipcp.metrics m) "lsa_tx")
    0 (Dif.members dif)

let wait w d = Engine.run ~until:(Engine.now w.engine +. d) w.engine

(* Outage estimate for CBR: consecutive lost SDUs x send interval. *)
let outage_of sink ~before_count ~before_maxseq =
  let sent = sink.Workload.seen_max_seq - before_maxseq in
  let got = sink.Workload.count - before_count in
  let lost = max 0 (sent - got) in
  let interval = float_of_int (8 * sdu_size) /. cbr_rate in
  (float_of_int lost *. interval, lost)

(* Observability hooks for the RINA run, all off by default:
   - RINA_TRACE=<file>: save the flight-recorder trace as JSONL for
     rina_trace at the end;
   - RINA_STATS=<file>: wire a live telemetry registry (+ snapshot
     timer, if the policy asks) via [Rina_exp.Obs] and write its stats
     JSONL for rina_stats;
   - RINA_STATS_POLICY=<ini>: policy spec whose [telemetry] section
     drives the sampling rate, ring bound and snapshot cadence (e.g.
     examples/policies/telemetry.ini); without it every event is kept
     and no snapshots fire.  It is read only when one of the two
     variables above is set, so a bad spec cannot fail a plain run.
   Either way, periodic probes sample the radio-link queues and H's
   EFCP window occupancy.  The returned closure finalises (save +
   detach); with neither variable set it is a no-op and tracing stays
   disabled. *)
let maybe_obs w =
  let policy () =
    match Sys.getenv_opt "RINA_STATS_POLICY" with
    | None -> Rina_core.Policy.default
    | Some path -> (
      let text = In_channel.with_open_text path In_channel.input_all in
      match Rina_core.Policy_lang.parse text with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "f5: bad RINA_STATS_POLICY %s: %s\n%!" path msg;
        exit 2)
  in
  Rig.observe w.engine ~policy ~span:40.
    [ ("queue:b1-m", 0.1, fun () -> Link.queue_depth_a w.l_b1_m);
      ("queue:b2-m", 0.1, fun () -> Link.queue_depth_a w.l_b2_m);
      ("efcp:h-window", 0.1, fun () ->
          List.fold_left
            (fun acc (_, in_flight, _) -> acc + in_flight)
            0 (Ipcp.flow_stats w.h)) ]

let run_rina table =
  let w = build () in
  let finish_trace = maybe_obs w in
  let sink = Workload.sink () in
  let connected =
    Rina_exp.Scenario.connect w.engine
      ~src:(w.h, Rina_core.Types.apn "correspondent")
      ~dst:(w.m_top, Rina_core.Types.apn "mobile-app")
      ~qos_id:0
      ~on_flow:(fun flow ->
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu sink ~now:(Engine.now w.engine) sdu))
  in
  (match connected with
  | Ok flow ->
    let t0 = Engine.now w.engine in
    Workload.cbr w.engine ~send:flow.Ipcp.send ~rate:cbr_rate ~size:sdu_size
      ~until:(t0 +. 60.) ();
    wait w 2.;
    (* --- Move 1: within the right cell cluster (B1 -> B2). --- *)
    let base_br = dif_lsa_floods w.bottom_right in
    let base_top = dif_lsa_floods w.top in
    let c0 = sink.Workload.count and s0 = sink.Workload.seen_max_seq in
    Link.set_up w.l_b1_m false;
    wait w 8.;
    let o1, lost1 = outage_of sink ~before_count:c0 ~before_maxseq:s0 in
    let br1 = dif_lsa_floods w.bottom_right - base_br in
    let top1 = dif_lsa_floods w.top - base_top in
    Table.add_rowf table
      "RINA local move (new PoA, same cell cluster) | %.0f ms | %d | %d in cell DIF, %d in top DIF | yes"
      (1000. *. o1) lost1 br1 top1;
    (* --- Move 2: into the left region. --- *)
    let base_bl = dif_lsa_floods w.bottom_left in
    let base_top = dif_lsa_floods w.top in
    let c0 = sink.Workload.count and s0 = sink.Workload.seen_max_seq in
    (* Radio to B3 comes up; M's left IPCP enrolls; a new top-level
       attachment is stacked through the left cluster (make before
       break)... *)
    Link.set_up w.l_b3_m true;
    Dif.stack_connect ~lower_a:w.glb ~lower_b:w.mlb ~upper_a:w.gl ~upper_b:w.m_top ();
    wait w 6.;
    (* ...then the last right-side radio dies. *)
    Link.set_up w.l_b2_m false;
    wait w 12.;
    let o2, lost2 = outage_of sink ~before_count:c0 ~before_maxseq:s0 in
    let bl2 = dif_lsa_floods w.bottom_left - base_bl in
    let top2 = dif_lsa_floods w.top - base_top in
    Table.add_rowf table
      "RINA wide move (into another cell cluster) | %.0f ms | %d | %d in new cell DIF, %d in top DIF | yes"
      (1000. *. o2) lost2 bl2 top2
  | Error e ->
    if Sys.getenv_opt "F5_DEBUG" <> None then begin
      List.iter
        (fun m ->
          Printf.eprintf "top %s enrolled=%b addr=%d lsdb=%d nbrs=%d\n%!"
            (Rina_core.Types.apn_to_string (Ipcp.name m))
            (Ipcp.is_enrolled m) (Ipcp.address m) (Ipcp.lsdb_size m)
            (List.length (Ipcp.neighbors m)))
        (Dif.members w.top);
      List.iter
        (fun m ->
          Printf.eprintf "br %s addr=%d metrics: %s\n%!"
            (Rina_core.Types.apn_to_string (Ipcp.name m))
            (Ipcp.address m)
            (String.concat " "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                  (Rina_util.Metrics.to_list (Ipcp.metrics m))));
          List.iter (fun s -> Printf.eprintf "   flow %s\n%!" s) (Ipcp.debug_flows m))
        (Dif.members w.bottom_right)
    end;
    Table.add_rowf table "RINA mobility | FAILED: %s | - | - | -" e);
  finish_trace ()

(* --- Mobile-IP baseline --- *)

let run_mobile_ip table =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 59 in
  let h = Tcpip.Node.create engine "H" in
  let r0 = Tcpip.Node.create engine ~forwarding:true "R0" in
  let rh = Tcpip.Node.create engine ~forwarding:true "RH" in
  let rf = Tcpip.Node.create engine ~forwarding:true "RF" in
  let m = Tcpip.Node.create engine "M" in
  let wire ?(up = true) no a b =
    let l = mk_link engine rng in
    if not up then Link.set_up l false;
    let subnet = Tcpip.Ip.addr_of_octets 10 no 0 0 in
    let prefix = Tcpip.Ip.prefix subnet 16 in
    ignore (Tcpip.Node.add_iface a (Link.endpoint_a l) ~addr:(subnet lor 1) ~prefix);
    ignore (Tcpip.Node.add_iface b (Link.endpoint_b l) ~addr:(subnet lor 2) ~prefix);
    (l, subnet)
  in
  let _, _ = wire 1 h r0 in
  let _, _ = wire 2 r0 rh in
  let l_home, s_home = wire 3 rh m in
  let _, _ = wire 4 r0 rf in
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
  let got = ref 0 and max_gap = ref 0. and last_rx = ref 0. in
  Tcpip.Udp.listen u_m ~port:9000 (fun ~src:_ ~sport:_ _ ->
      let now = Engine.now engine in
      if !last_rx > 0. && now -. !last_rx > !max_gap then max_gap := now -. !last_rx;
      last_rx := now;
      incr got);
  let h_src = Tcpip.Ip.addr_of_octets 10 1 0 1 in
  let interval = float_of_int (8 * sdu_size) /. cbr_rate in
  let rec stream () =
    Tcpip.Udp.send u_h ~src:h_src ~dst:home_addr ~sport:9000 ~dport:9000
      (Bytes.make sdu_size 'm');
    if Engine.now engine < 60. then ignore (Engine.schedule engine ~delay:interval stream)
  in
  stream ();
  Engine.run ~until:33. engine;
  let fwd_before =
    Rina_util.Metrics.get (Tcpip.Node.metrics r0) "forwarded"
    + Rina_util.Metrics.get (Tcpip.Node.metrics rh) "forwarded"
    + Rina_util.Metrics.get (Tcpip.Node.metrics rf) "forwarded"
  in
  let got_before = !got in
  (* The move: home radio dies, foreign radio comes up, the mobile
     switches its default route to the foreign interface and registers
     its care-of address with the distant home agent. *)
  let move_time = Engine.now engine in
  max_gap := 0.;
  last_rx := move_time;
  Link.set_up l_home false;
  Link.set_up l_foreign true;
  ignore (Tcpip.Node.add_static_route m (Tcpip.Ip.prefix 0 0) ~if_id:2 ());
  let registered_at = ref None in
  Tcpip.Mobile_ip.register_care_of mob ~home_agent_addr:ha_addr ~care_of
    ~on_ack:(fun () -> registered_at := Some (Engine.now engine));
  Engine.run ~until:63. engine;
  let fwd_after =
    Rina_util.Metrics.get (Tcpip.Node.metrics r0) "forwarded"
    + Rina_util.Metrics.get (Tcpip.Node.metrics rh) "forwarded"
    + Rina_util.Metrics.get (Tcpip.Node.metrics rf) "forwarded"
  in
  let got_after = !got in
  let hops_before =
    float_of_int (fwd_before) /. float_of_int (max 1 got_before)
  in
  let hops_after =
    float_of_int (fwd_after - fwd_before) /. float_of_int (max 1 (got_after - got_before))
  in
  let reg_note =
    match !registered_at with
    | Some t -> Printf.sprintf "care-of registered +%.0f ms" (1000. *. (t -. move_time))
    | None -> "registration LOST"
  in
  let lost = int_of_float (!max_gap /. interval) in
  Table.add_rowf table
    "Mobile-IP move to foreign subnet | %.0f ms | %d | %s; path %.1f -> %.1f router hops (triangle) | UDP yes, addr-bound state at risk"
    (1000. *. !max_gap) lost reg_note hops_before hops_after

let run () =
  let table =
    Table.create
      ~title:"F5: mobility as dynamic multihoming (Fig. 5) — 1 Mb/s CBR to the mobile"
      ~columns:[ "scenario"; "outage"; "SDUs lost"; "routing-update scope"; "session survives" ]
  in
  run_rina table;
  run_mobile_ip table;
  Table.print table
