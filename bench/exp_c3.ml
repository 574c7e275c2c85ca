(* C3 — claim 5 (§1) / §6.2: a DIF that owns its multiplexing can run
   a shared bottleneck at high utilisation and still honour per-flow
   QoS, where a single best-effort layer must over-provision.

   Two senders share a 10 Mb/s bottleneck behind one router: a
   2 Mb/s low-latency CBR flow ("the SLA customer") and a best-effort
   background source swept from light load to 1.4x overload.  The
   router's RMT shapes the bottleneck port and serves it with the
   scheduler under test — FIFO (the best-effort Internet model),
   strict priority, or weighted DRR.  The SLA flow's delivery rate and
   p99 latency tell the story. *)

module Engine = Rina_sim.Engine
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Link = Rina_sim.Link
module Table = Rina_util.Table
module Workload = Rina_exp.Workload

let bottleneck = 10_000_000.

let gold_rate = 2_000_000.

let sdu_size = 1000

let run_case ~scheduler ~sched_name ~bg_rate table =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 91 in
  let policy = { Rina_core.Policy.default with Rina_core.Policy.scheduler } in
  let dif = Dif.create engine ~policy "isp" in
  let s_gold = Dif.add_member dif ~name:"sla-sender" () in
  let s_bg = Dif.add_member dif ~name:"bg-sender" () in
  let router = Dif.add_member dif ~name:"router" () in
  let sink_node = Dif.add_member dif ~name:"sink" () in
  let mk rate = Link.create engine rng ~bit_rate:rate ~delay:0.002 () in
  let l1 = mk 50_000_000. and l2 = mk 50_000_000. and l3 = mk bottleneck in
  Dif.connect dif s_gold router (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect dif s_bg router (Link.endpoint_a l2, Link.endpoint_b l2);
  (* The router shapes the bottleneck port slightly under line rate so
     the scheduling decision happens in the RMT, not the wire queue. *)
  Dif.connect dif ~rate_a:(0.95 *. bottleneck) router sink_node
    (Link.endpoint_a l3, Link.endpoint_b l3);
  Dif.run_until_converged dif ();
  let gold_sink = Workload.sink () and bg_sink = Workload.sink () in
  let register name sink =
    Ipcp.register_app sink_node (Rina_core.Types.apn name) ~on_flow:(fun flow ->
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu sink ~now:(Engine.now engine) sdu))
  in
  register "gold-sink" gold_sink;
  register "bg-sink" bg_sink;
  Ipcp.register_app s_gold (Rina_core.Types.apn "gold-src") ~on_flow:(fun _ -> ());
  Ipcp.register_app s_bg (Rina_core.Types.apn "bg-src") ~on_flow:(fun _ -> ());
  let flows = ref [] in
  Ipcp.allocate_flow s_gold ~src:(Rina_core.Types.apn "gold-src")
    ~dst:(Rina_core.Types.apn "gold-sink")
    ~qos_id:Rina_core.Qos.low_latency.Rina_core.Qos.id
    ~on_result:(function Ok f -> flows := ("gold", f) :: !flows | Error _ -> ());
  Ipcp.allocate_flow s_bg ~src:(Rina_core.Types.apn "bg-src")
    ~dst:(Rina_core.Types.apn "bg-sink")
    ~qos_id:Rina_core.Qos.best_effort.Rina_core.Qos.id
    ~on_result:(function Ok f -> flows := ("bg", f) :: !flows | Error _ -> ());
  (* Not Scenario.connect: the two allocations run at once. *)
  Rina_exp.Scenario.drive_until engine ~timeout:20. (fun () ->
      List.length !flows >= 2);
  match (List.assoc_opt "gold" !flows, List.assoc_opt "bg" !flows) with
  | Some gold, Some bg ->
    let t0 = Engine.now engine in
    let span = 20. in
    Workload.cbr engine ~send:gold.Ipcp.send ~rate:gold_rate ~size:sdu_size
      ~until:(t0 +. span) ();
    Workload.cbr engine ~send:bg.Ipcp.send ~rate:bg_rate ~size:sdu_size
      ~until:(t0 +. span) ();
    Engine.run ~until:(t0 +. span +. 3.) engine;
    let sent_gold = gold_sink.Workload.seen_max_seq + 1 in
    let util = (bg_rate +. gold_rate) /. bottleneck in
    Table.add_rowf table "%s | %.0f%% | %.1f%% | %.1f ms | %.2f Mb/s" sched_name
      (100. *. util)
      (100.
       *. float_of_int gold_sink.Workload.count
       /. float_of_int (max 1 sent_gold))
      (1000. *. Rina_util.Stats.percentile gold_sink.Workload.received 99.)
      (Workload.goodput bg_sink ~t0 ~t1:(t0 +. span) /. 1e6)
  | _ ->
    Table.add_rowf table "%s | %.0f%% | ALLOC FAILED | - | -" sched_name
      (100. *. ((bg_rate +. gold_rate) /. bottleneck))

let run () =
  let table =
    Table.create
      ~title:
        "C3: QoS under load (§1 claim 5) — 2 Mb/s low-latency SLA flow vs background on a 10 Mb/s bottleneck"
      ~columns:
        [ "scheduler"; "offered load"; "SLA delivered"; "SLA p99 lat"; "bg goodput" ]
  in
  List.iter
    (fun bg_rate ->
      List.iter
        (fun (scheduler, sched_name) ->
          run_case ~scheduler ~sched_name ~bg_rate table)
        [
          (Rina_core.Policy.Fifo, "FIFO (best effort)");
          (Rina_core.Policy.Priority_queueing, "strict priority");
          (Rina_core.Policy.Drr 1500, "weighted DRR");
        ])
    [ 4_000_000.; 7_000_000.; 9_000_000.; 12_000_000. ];
  Table.print table
