(* One measured round of a workload, and the per-round metrics read off
   it.  A round compacts the heap, builds and converges a fresh topology
   (set-up), then runs the measured phase in slices of simulated time,
   timing each slice and sampling the heap between them. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Ipcp = Rina_core.Ipcp
module Metrics = Rina_util.Metrics
module Hist = Rina_util.Sketch.Hist
module W = Workloads

(* Simulated seconds per slice of the measured phase. *)
let slice = 0.05

type round = {
  ops : int;
  failed : int;
  e2e : (string * float) list;  (** end-to-end metrics *)
  layer : (string * float) list;  (** per-layer metrics *)
  fingerprint : string;  (** the values that must repeat exactly for a seed *)
}

let seconds ns = float_of_int ns /. 1e9

let link_sum (net : W.net) key =
  List.fold_left
    (fun acc l -> acc + Metrics.get (Link.stats_a l) key + Metrics.get (Link.stats_b l) key)
    0 net.W.links

let ipcp_sum (net : W.net) metrics key =
  List.fold_left (fun acc ip -> acc + Metrics.get (metrics ip) key) 0 net.W.ipcps

let efcp_sum (net : W.net) key =
  List.fold_left
    (fun acc fr ->
      List.fold_left (fun acc m -> acc + Metrics.get m key) acc fr.W.efcp)
    0 net.W.flows

let sum_keys f keys = List.fold_left (fun acc k -> acc + f k) 0 keys

let link_drops net =
  sum_keys (link_sum net) [ "dropped_queue"; "dropped_loss"; "dropped_down"; "dropped_blackhole" ]

let rmt_drops net =
  sum_keys (ipcp_sum net Ipcp.rmt_metrics)
    [ "queue_dropped"; "congestion_dropped"; "crc_dropped"; "decode_dropped"; "no_route";
      "path_down_dropped"; "ttl_expired"; "ingress_dropped" ]

(* Counters read at the start and end of the measured phase. *)
let counters net =
  [
    ("frames", link_sum net "tx");
    ("wire_bytes", link_sum net "tx_bytes");
    ("link_drops", link_drops net);
    ("relayed", ipcp_sum net Ipcp.rmt_metrics "relayed");
    ("rmt_drops", rmt_drops net);
    ("mgmt_tx", ipcp_sum net Ipcp.metrics "mgmt_tx");
    ("spf_runs", ipcp_sum net Ipcp.metrics "spf_runs");
    ("lsa_tx", ipcp_sum net Ipcp.metrics "lsa_tx");
  ]

let ratio a b = if b = 0. then nan else a /. b

let quantile h q = if Hist.count h = 0 then nan else Hist.quantile h q

(* Metrics read from a traced round's span aggregates. *)
let span_metrics sp ~delivered =
  let self kind = float_of_int (Spans.agg sp kind).Spans.self_ns /. 1e3 in
  let count kind = float_of_int (Spans.agg sp kind).Spans.count in
  let pct xs p = if xs = [] then nan else Summary.percentile (Array.of_list xs) p in
  [
    ("engine.self_us_per_sdu", ratio (self Spans.Engine_run) delivered);
    ("link.tx_us_per_frame", ratio (self Spans.Link_tx) (count Spans.Link_tx));
    ( "ipcp.rx_relay_us_per_frame",
      ratio (self Spans.Ipcp_rx_relay) (count Spans.Ipcp_rx_relay) );
    ( "ipcp.rx_local_us_per_frame",
      ratio (self Spans.Ipcp_rx_local) (count Spans.Ipcp_rx_local) );
    ("ipcp.tx_us_per_sdu", ratio (self Spans.App_send) (count Spans.App_send));
    ("mgmt.alloc_call_us_p50", pct sp.Spans.alloc_calls_us 50.);
    ("mgmt.alloc_call_us_p99", pct sp.Spans.alloc_calls_us 99.);
    ("mgmt.close_call_us_p50", pct sp.Spans.close_calls_us 50.);
  ]

let run_round (w : W.t) ~seed ~shrink ~spans =
  Gc.compact ();
  (* [Gc.quick_stat] reports a stale heap size until the next full
     statistics pass; take one now, while the heap is small. *)
  ignore (Gc.stat ());
  let t0 = Spans.now_ns () in
  let inst = Spans.opt spans Spans.Setup_converge (fun () -> w.W.build ~seed ~shrink spans) in
  let t1 = Spans.now_ns () in
  Spans.opt spans Spans.Setup_flows inst.W.open_flows;
  let t2 = Spans.now_ns () in
  Option.iter Spans.start_recording spans;
  let net = inst.W.net in
  let engine = net.W.engine in
  let before = counters net in
  let allocs_before = net.W.alloc_attempts in
  let events_before = Engine.executed engine in
  (* Full major collections bracket the measured phase: on OCaml 5.1
     the runtime's allocation counters agree with each other only after
     a completed major cycle, and read elsewhere they make
     [Gc.allocated_bytes] differ between identical rounds. *)
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let gc0 = Gc.quick_stat () in
  let m0 = Spans.now_ns () in
  inst.W.start ();
  let t_end = Engine.now engine +. inst.W.run_for in
  let peak = ref 0 and slices = ref [] in
  while Engine.now engine < t_end do
    let until = Float.min t_end (Engine.now engine +. slice) in
    let d0 = net.W.delivered and s0 = Spans.now_ns () in
    Spans.opt spans Spans.Engine_run (fun () -> Engine.run ~until engine);
    let dd = net.W.delivered - d0 in
    if dd > 0 then slices := (float_of_int (Spans.now_ns () - s0) /. 1e3 /. float_of_int dd) :: !slices;
    peak := max !peak (Gc.quick_stat ()).Gc.heap_words
  done;
  let m1 = Spans.now_ns () in
  let gc1 = Gc.quick_stat () in
  Gc.full_major ();
  let a1 = Gc.allocated_bytes () in
  let events = Engine.executed engine - events_before in
  let after = counters net in
  let delta k = float_of_int (List.assoc k after - List.assoc k before) in
  W.settle net;
  let delivered = float_of_int net.W.delivered in
  let flows = float_of_int net.W.alloc_attempts in
  let per_sdu x = ratio x delivered in
  let slices = Array.of_list !slices in
  let pct p = if slices = [||] then nan else Summary.percentile slices p in
  let e2e =
    [
      ("sdus_per_s", delivered /. seconds (m1 - m0));
      ("alloc_bytes_per_sdu", per_sdu (a1 -. a0));
      ("peak_heap_mb", float_of_int (!peak * (Sys.word_size / 8)) /. 1e6);
      ("setup_s", seconds (t2 - t0));
      ("sim_latency_ms_p50", quantile net.W.latency_ms 0.5);
      ("sim_latency_ms_p99", quantile net.W.latency_ms 0.99);
      ("sim_fct_ms_p50", quantile net.W.fct_ms 0.5);
      ("sim_fct_ms_p99", quantile net.W.fct_ms 0.99);
    ]
  in
  let efcp k = float_of_int (efcp_sum net k) in
  let layer =
    [
      ("engine.events_per_sdu", per_sdu (float_of_int events));
      ("engine.slice_us_per_sdu_p50", pct 50.);
      ("engine.slice_us_per_sdu_p99", pct 99.);
      ("link.frames_per_sdu", per_sdu (delta "frames"));
      ("link.wire_bytes_per_payload_byte", ratio (delta "wire_bytes") (float_of_int net.W.delivered_bytes));
      ("link.drops", delta "link_drops");
      ("efcp.pdus_per_sdu", per_sdu (efcp "pdus_sent"));
      ("efcp.acks_per_sdu", per_sdu (efcp "acks_sent"));
      ("efcp.rtx_ratio", ratio (efcp "pdus_rtx") (efcp "pdus_sent"));
      ("efcp.dup_rcvd", efcp "dup_rcvd");
      ("rmt.relayed_per_sdu", per_sdu (delta "relayed"));
      ("rmt.drops", delta "rmt_drops");
      ("mgmt.alloc_ms_p50", quantile net.W.alloc_ms 0.5);
      ("mgmt.alloc_ms_p99", quantile net.W.alloc_ms 0.99);
      ("mgmt.mgmt_tx_per_flow", ratio (delta "mgmt_tx") flows);
      ("routing.spf_runs", delta "spf_runs");
      ("routing.lsa_tx", delta "lsa_tx");
      ("setup.converge_s", seconds (t1 - t0));
      ("setup.flows_s", seconds (t2 - t1));
      ( "gc.minor_per_ksdu",
        ratio (1000. *. float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) delivered );
      ("gc.major_per_round", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ( "gc.promoted_bytes_per_sdu",
        per_sdu ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)) );
    ]
    @ match spans with None -> [] | Some sp -> span_metrics sp ~delivered
  in
  let e2e = List.filter (fun (_, v) -> Float.is_finite v) e2e in
  let layer = List.filter (fun (_, v) -> Float.is_finite v) layer in
  let fingerprint =
    String.concat " "
      (List.map string_of_int [ net.W.delivered; events ]
      @ List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
          (List.filter
             (fun (k, _) ->
               String.equal k "alloc_bytes_per_sdu" || String.starts_with ~prefix:"sim_" k)
             e2e))
  in
  {
    ops = W.offered net + net.W.alloc_attempts - allocs_before;
    failed = W.failed net;
    e2e;
    layer;
    fingerprint;
  }

(* A set-up alone, timed and thrown away: more [setup_s] samples for
   runs with few rounds. *)
let setup_only (w : W.t) ~seed ~shrink =
  Gc.compact ();
  let t0 = Spans.now_ns () in
  (w.W.build ~seed ~shrink None).W.open_flows ();
  seconds (Spans.now_ns () - t0)
