(* F3 — Figure 3: repeating DIFs tailored to a wireless segment.

   Path: H1 --wire-- R1 ==wireless(bursty)== R2 --wire-- H2.
   Link DIFs cover each segment; a host-to-host DIF is stacked over
   flows of the three link DIFs.  The experiment flips exactly one
   policy: the QoS of the (N-1) flow that the host DIF rides across
   the *wireless* link DIF —

     end-to-end only : best-effort across the wireless DIF, so losses
                       are repaired solely by the host DIF's EFCP over
                       the full path RTT;
     scoped repair   : reliable across the wireless DIF, so its EFCP
                       repairs losses over the one-hop loop (the
                       paper's "policies appropriate to that range").

   Sweeping the burst-loss severity shows the scoped configuration
   sustaining goodput where end-to-end control collapses — the basis
   of claim 5 (operating subnetworks at high utilisation). *)

module Engine = Rina_sim.Engine
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Link = Rina_sim.Link
module Loss = Rina_sim.Loss
module Table = Rina_util.Table
module Topo = Rina_exp.Topo
module Workload = Rina_exp.Workload

let sdu_count = 250

let sdu_size = 1200

let build ~wireless_loss ~scoped =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 31 in
  (* Long wired backhaul on both sides (40 ms each) versus a 1 ms
     wireless hop: the end-to-end control loop is ~80x longer than the
     wireless loop, which is the regime Fig. 3 describes. *)
  let wire1 = Link.create engine rng ~bit_rate:50_000_000. ~delay:0.040 () in
  let wifi = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 ~loss:wireless_loss () in
  let wire2 = Link.create engine rng ~bit_rate:50_000_000. ~delay:0.040 () in
  (* The wireless DIF's policies are tuned to its 2 ms loop: tight
     retransmission timers and link-layer-style persistence (it never
     declares the flow dead; carrier loss is the upper DIF's concern). *)
  let wifi_policy =
    let d = Rina_core.Policy.default in
    {
      d with
      Rina_core.Policy.efcp =
        {
          d.Rina_core.Policy.efcp with
          Rina_core.Policy.init_rto = 0.05;
          min_rto = 0.004;
          max_rtx = 100_000;
        };
    }
  in
  let link_dif = Topo.link_dif engine in
  let w1a, w1b = link_dif ~policy:Rina_core.Policy.default "seg1" wire1 in
  let wfa, wfb = link_dif ~policy:wifi_policy "wifi" wifi in
  let w2a, w2b = link_dif ~policy:Rina_core.Policy.default "seg2" wire2 in
  let top = Dif.create engine "host-to-host" in
  let h1 = Dif.add_member top ~name:"h1" () in
  let r1 = Dif.add_member top ~name:"r1" () in
  let r2 = Dif.add_member top ~name:"r2" () in
  let h2 = Dif.add_member top ~name:"h2" () in
  let wifi_qos =
    if scoped then Rina_core.Qos.reliable.Rina_core.Qos.id
    else Rina_core.Qos.best_effort.Rina_core.Qos.id
  in
  Dif.stack_connect ~lower_a:w1a ~lower_b:w1b ~upper_a:h1 ~upper_b:r1 ();
  Dif.stack_connect ~lower_a:wfa ~lower_b:wfb ~upper_a:r1 ~upper_b:r2
    ~qos_id:wifi_qos ();
  Dif.stack_connect ~lower_a:w2a ~lower_b:w2b ~upper_a:r2 ~upper_b:h2 ();
  Dif.run_until_converged top ~max_time:90. ();
  (engine, h1, h2, wfa)

let measure ~wireless_loss ~scoped =
  let engine, h1, h2, wifi_a = build ~wireless_loss ~scoped in
  let sink = Workload.sink () in
  let connected =
    Rina_exp.Scenario.connect engine
      ~src:(h1, Rina_core.Types.apn "file-client")
      ~dst:(h2, Rina_core.Types.apn "file-server")
      ~qos_id:1
      ~on_flow:(fun flow ->
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu sink ~now:(Engine.now engine) sdu))
  in
  match connected with
  | Ok flow ->
    let t0 = Engine.now engine in
    Workload.bulk ~send:flow.Ipcp.send ~now:t0 ~count:sdu_count ~size:sdu_size;
    Engine.run ~until:(t0 +. 120.) engine;
    let e2e_rtx = Rina_util.Metrics.get (flow.Ipcp.flow_metrics ()) "pdus_rtx" in
    (* Retransmissions performed inside the wireless DIF show up on the
       wifi members' flows; count PDUs its RMT carried beyond the
       minimum as local repair effort. *)
    let wifi_carried = Rina_util.Metrics.get (Ipcp.rmt_metrics wifi_a) "sent" in
    Some (sink, t0, e2e_rtx, wifi_carried)
  | Error _ -> None

let loss_cases =
  [
    ("light (2% burst)", Loss.Gilbert_elliott
       { p_good_to_bad = 0.01; p_bad_to_good = 0.3; loss_good = 0.002; loss_bad = 0.3 });
    ("moderate (8% burst)", Loss.Gilbert_elliott
       { p_good_to_bad = 0.03; p_bad_to_good = 0.2; loss_good = 0.005; loss_bad = 0.5 });
    ("heavy (20% burst)", Loss.Gilbert_elliott
       { p_good_to_bad = 0.08; p_bad_to_good = 0.15; loss_good = 0.01; loss_bad = 0.6 });
  ]

let run () =
  let table =
    Table.create
      ~title:
        "F3: DIF tailored to the wireless segment (Fig. 3) — 250x1200B through bursty wifi"
      ~columns:
        [ "wireless loss"; "error control"; "delivered"; "goodput"; "e2e rtx"; "sdu p99" ]
  in
  List.iter
    (fun (label, loss) ->
      List.iter
        (fun scoped ->
          let mode = if scoped then "scoped (wifi DIF)" else "end-to-end only" in
          match measure ~wireless_loss:loss ~scoped with
          | Some (sink, t0, e2e_rtx, _) ->
            Table.add_rowf table "%s | %s | %d/%d | %.2f Mb/s | %d | %.0f ms" label
              mode sink.Workload.count sdu_count
              (Workload.goodput sink ~t0 ~t1:sink.Workload.last_arrival /. 1e6)
              e2e_rtx
              (1000. *. Rina_util.Stats.percentile sink.Workload.received 99.)
          | None -> Table.add_rowf table "%s | %s | FAILED | - | - | -" label mode)
        [ false; true ])
    loss_cases;
  Table.print table
