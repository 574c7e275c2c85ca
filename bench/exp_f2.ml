(* F2 — Figure 2: two IPC layers through a dedicated relay system.

   The honest version of the figure: two hosts and a router, a
   link-level (shim-wrapped) DIF per physical link, and a higher-level
   host-to-host DIF whose three members ride flows of the link DIFs
   (Dif.stack_connect — the recursion).  The router's higher-level IPC
   process performs relaying-and-multiplexing between its two (N-1)
   ports.  We verify end-to-end delivery through the relay and compare
   SDU latency against the direct two-host case (the relay adds one
   store-and-forward hop at each level). *)

module Engine = Rina_sim.Engine
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Shim = Rina_core.Shim
module Link = Rina_sim.Link
module Table = Rina_util.Table
module Scenario = Rina_exp.Scenario
module Topo = Rina_exp.Topo
module Workload = Rina_exp.Workload

let sdu_count = 200

let sdu_size = 1000

(* Build Fig. 2 exactly: link DIFs "left"/"right" over the two wires,
   and the host-to-host DIF stacked on flows of those DIFs.  Not
   Topo.link_dif: both link DIFs are wired before either converges,
   and their members carry the figure's names. *)
let build_stacked () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 23 in
  let link1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.005 () in
  let link2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.005 () in
  let left = Dif.create engine "left-link" in
  let l_h1 = Dif.add_member left ~name:"l-h1" () in
  let l_r = Dif.add_member left ~name:"l-r" () in
  Dif.connect left l_h1 l_r
    ( Shim.wrap ~dif:"left-link" (Link.endpoint_a link1),
      Shim.wrap ~dif:"left-link" (Link.endpoint_b link1) );
  let right = Dif.create engine "right-link" in
  let r_r = Dif.add_member right ~name:"r-r" () in
  let r_h2 = Dif.add_member right ~name:"r-h2" () in
  Dif.connect right r_r r_h2
    ( Shim.wrap ~dif:"right-link" (Link.endpoint_a link2),
      Shim.wrap ~dif:"right-link" (Link.endpoint_b link2) );
  Dif.run_until_converged left ();
  Dif.run_until_converged right ();
  (* Host-to-host DIF: members on host1, router, host2. *)
  let top = Dif.create engine "host-to-host" in
  let t_h1 = Dif.add_member top ~name:"t-h1" () in
  let t_r = Dif.add_member top ~name:"t-r" () in
  let t_h2 = Dif.add_member top ~name:"t-h2" () in
  Dif.stack_connect ~lower_a:l_h1 ~lower_b:l_r ~upper_a:t_h1 ~upper_b:t_r ();
  Dif.stack_connect ~lower_a:r_r ~lower_b:r_h2 ~upper_a:t_r ~upper_b:t_h2 ();
  Dif.run_until_converged top ~max_time:60. ();
  (engine, top, t_h1, t_r, t_h2)

let measure_stacked () =
  let engine, _top, t_h1, t_r, t_h2 = build_stacked () in
  let sink = Workload.sink () in
  let connected =
    Scenario.connect engine
      ~src:(t_h1, Rina_core.Types.apn "scanner")
      ~dst:(t_h2, Rina_core.Types.apn "printer")
      ~qos_id:1
      ~on_flow:(fun flow ->
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu sink ~now:(Engine.now engine) sdu))
  in
  match connected with
  | Ok flow ->
    let t0 = Engine.now engine in
    Workload.bulk ~send:flow.Ipcp.send ~now:t0 ~count:sdu_count ~size:sdu_size;
    Engine.run ~until:(Engine.now engine +. 30.) engine;
    let relayed =
      Rina_util.Metrics.get (Ipcp.rmt_metrics t_r) "relayed"
    in
    Some (sink, t0, relayed, Ipcp.is_enrolled t_r)
  | Error _ -> None

let measure_direct () =
  let net = Topo.line ~seed:23 ~bit_rate:10_000_000. ~delay:0.005 ~n:2 () in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
  | Error _ -> None
  | Ok (flow, _) ->
    let t0 = Engine.now net.Topo.engine in
    Workload.bulk ~send:flow.Ipcp.send ~now:t0 ~count:sdu_count ~size:sdu_size;
    Topo.wait net.Topo.engine 30.;
    Some (sink, t0)

let run () =
  let table =
    Table.create
      ~title:
        "F2: relay through two stacked IPC layers (Fig. 2) — 200x1000B, 10 Mb/s links"
      ~columns:[ "configuration"; "delivered"; "sdu p50"; "goodput"; "relayed PDUs" ]
  in
  (match measure_direct () with
   | Some (sink, t0) ->
     Table.add_rowf table "direct (1 link, 1 DIF) | %d/%d | %.2f ms | %.2f Mb/s | 0"
       sink.Workload.count sdu_count
       (1000. *. Rina_util.Stats.median sink.Workload.received)
       (Workload.goodput sink ~t0 ~t1:sink.Workload.last_arrival /. 1e6)
   | None -> Table.add_rowf table "direct | FAILED | - | - | -");
  (match measure_stacked () with
   | Some (sink, t0, relayed, router_enrolled) ->
     Table.add_rowf table
       "via router (2 link DIFs + host DIF) | %d/%d | %.2f ms | %.2f Mb/s | %d%s"
       sink.Workload.count sdu_count
       (1000. *. Rina_util.Stats.median sink.Workload.received)
       (Workload.goodput sink ~t0 ~t1:sink.Workload.last_arrival /. 1e6)
       relayed
       (if router_enrolled then "" else " (router not enrolled!)")
   | None -> Table.add_rowf table "via router | FAILED | - | - | -");
  Table.print table
