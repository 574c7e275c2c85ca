(* Protocol-machine tests: EFCP under controlled loss/reordering and
   the RMT's forwarding, filtering and scheduling. *)

module Engine = Rina_sim.Engine
module Efcp = Rina_core.Efcp
module Policy = Rina_core.Policy
module Pdu = Rina_core.Pdu
module Rmt = Rina_core.Rmt
module Chan = Rina_sim.Chan
module Metrics = Rina_util.Metrics

let check = Alcotest.check

let base_cfg =
  {
    Policy.default_efcp with
    Policy.window = 8;
    init_rto = 0.1;
    min_rto = 0.02;
    max_rtx = 6;
  }

(* Wire two EFCP machines together through the engine with an optional
   per-PDU drop decision (applied to DTP and/or ACK PDUs), a delivery
   delay and optional extra delay per PDU (for reordering). *)
type harness = {
  engine : Engine.t;
  sender : Efcp.t;
  receiver : Efcp.t;
  delivered : string list ref;
  sender_errors : string list ref;
}

let make_harness ?(cfg = base_cfg) ?(rcv_cfg = base_cfg) ?(in_order = true)
    ?(drop_data = fun _ -> false) ?(drop_ack = fun _ -> false)
    ?(delay_of = fun _ -> 0.001) () =
  let engine = Engine.create () in
  let delivered = ref [] in
  let sender_errors = ref [] in
  let sender_ref = ref None and receiver_ref = ref None in
  let data_count = ref 0 and ack_count = ref 0 in
  let to_receiver (pdu : Pdu.t) =
    incr data_count;
    if not (drop_data !data_count) then
      ignore
        (Engine.schedule engine ~delay:(delay_of !data_count) (fun () ->
             match !receiver_ref with
             | Some r -> Efcp.handle_pdu r pdu
             | None -> ()));
    0
  in
  let to_sender (pdu : Pdu.t) =
    incr ack_count;
    if not (drop_ack !ack_count) then
      ignore
        (Engine.schedule engine ~delay:0.001 (fun () ->
             match !sender_ref with
             | Some s -> Efcp.handle_pdu s pdu
             | None -> ()));
    0
  in
  let sender =
    Efcp.create engine ~config:cfg ~in_order ~local_cep:1 ~remote_cep:2 ~qos_id:1
      ~send_pdu:to_receiver
      ~deliver:(fun _ -> ())
      ~on_error:(fun e -> sender_errors := e :: !sender_errors)
      ()
  in
  let receiver =
    Efcp.create engine ~config:rcv_cfg ~in_order ~local_cep:2 ~remote_cep:1 ~qos_id:1
      ~send_pdu:to_sender
      ~deliver:(fun v -> delivered := Bytes.to_string (Pdu.bytes_of_view v) :: !delivered)
      ~on_error:(fun _ -> ())
      ()
  in
  sender_ref := Some sender;
  receiver_ref := Some receiver;
  { engine; sender; receiver; delivered; sender_errors }

let payloads n = List.init n (fun i -> Printf.sprintf "pdu-%03d" i)

let send_all h msgs =
  List.iter (fun m -> Efcp.send h.sender (Pdu.view_of_bytes (Bytes.of_string m))) msgs

let run h seconds = Engine.run ~until:(Engine.now h.engine +. seconds) h.engine

let test_efcp_in_order_no_loss () =
  let h = make_harness () in
  let msgs = payloads 50 in
  send_all h msgs;
  run h 5.;
  check Alcotest.(list string) "all delivered in order" msgs (List.rev !(h.delivered));
  check Alcotest.int "no rtx" 0 (Metrics.get (Efcp.metrics h.sender) "pdus_rtx");
  Alcotest.(check bool) "srtt measured" true (Efcp.srtt h.sender <> None)

let test_efcp_window_respected () =
  let h = make_harness ~drop_ack:(fun _ -> true) () in
  send_all h (payloads 50);
  (* No acks ever return: the sender may have at most [window] PDUs in
     flight and the rest in backlog. *)
  Alcotest.(check bool) "in_flight <= window" true (Efcp.in_flight h.sender <= 8);
  check Alcotest.int "backlog holds the rest" (50 - Efcp.in_flight h.sender)
    (Efcp.backlog h.sender);
  check Alcotest.int "backlog_hwm is the deepest backlog" (50 - Efcp.in_flight h.sender)
    (Metrics.get (Efcp.metrics h.sender) "backlog_hwm")

let test_efcp_recovers_from_data_loss () =
  (* Drop every 7th data transmission. *)
  let h = make_harness ~drop_data:(fun n -> n mod 7 = 0) () in
  let msgs = payloads 60 in
  send_all h msgs;
  run h 30.;
  check Alcotest.(list string) "delivered all in order" msgs (List.rev !(h.delivered));
  Alcotest.(check bool) "retransmissions happened" true
    (Metrics.get (Efcp.metrics h.sender) "pdus_rtx" > 0)

let test_efcp_recovers_from_ack_loss () =
  let h = make_harness ~drop_ack:(fun n -> n mod 3 = 0) () in
  let msgs = payloads 40 in
  send_all h msgs;
  run h 30.;
  check Alcotest.(list string) "cumulative acks cover gaps" msgs (List.rev !(h.delivered))

let test_efcp_reordering_in_order_delivery () =
  (* Every 5th PDU is delayed well past its successors. *)
  let h = make_harness ~delay_of:(fun n -> if n mod 5 = 0 then 0.05 else 0.001) () in
  let msgs = payloads 40 in
  send_all h msgs;
  run h 20.;
  check Alcotest.(list string) "resequenced" msgs (List.rev !(h.delivered));
  Alcotest.(check bool) "ooo buffered" true
    (Metrics.get (Efcp.metrics h.receiver) "ooo_buffered" > 0)

let test_efcp_duplicate_suppression () =
  let h = make_harness ~drop_ack:(fun n -> n <= 2) () in
  (* First acks die so the sender retransmits already-received data. *)
  send_all h (payloads 3);
  run h 10.;
  check Alcotest.(list string) "no duplicates delivered" (payloads 3)
    (List.rev !(h.delivered));
  Alcotest.(check bool) "duplicates detected" true
    (Metrics.get (Efcp.metrics h.receiver) "dup_rcvd" > 0)

let test_efcp_gbn_discards_and_recovers () =
  let cfg = { base_cfg with Policy.rtx_strategy = Policy.Go_back_n } in
  let h = make_harness ~cfg ~rcv_cfg:cfg ~drop_data:(fun n -> n = 3) () in
  let msgs = payloads 10 in
  send_all h msgs;
  run h 20.;
  check Alcotest.(list string) "gbn delivers all" msgs (List.rev !(h.delivered));
  Alcotest.(check bool) "receiver discarded out-of-order" true
    (Metrics.get (Efcp.metrics h.receiver) "gbn_discards" > 0)

let test_efcp_no_rtx_unreliable () =
  let cfg = { base_cfg with Policy.rtx_strategy = Policy.No_rtx } in
  let h = make_harness ~cfg ~rcv_cfg:cfg ~in_order:false ~drop_data:(fun n -> n = 2) () in
  send_all h (payloads 5);
  run h 5.;
  check Alcotest.int "4 of 5 delivered" 4 (List.length !(h.delivered));
  check Alcotest.int "no acks" 0 (Metrics.get (Efcp.metrics h.receiver) "acks_sent");
  check Alcotest.int "no rtx" 0 (Metrics.get (Efcp.metrics h.sender) "pdus_rtx")

let test_efcp_unreliable_ordered_drops_stale () =
  let cfg = { base_cfg with Policy.rtx_strategy = Policy.No_rtx } in
  (* Delay PDU 2 so it arrives after 3..5: with in_order it must be
     dropped as stale. *)
  let h =
    make_harness ~cfg ~rcv_cfg:cfg ~in_order:true
      ~delay_of:(fun n -> if n = 2 then 0.05 else 0.001)
      ()
  in
  send_all h (payloads 5);
  run h 5.;
  check Alcotest.int "stale dropped" 1
    (Metrics.get (Efcp.metrics h.receiver) "stale_dropped");
  check Alcotest.int "4 delivered" 4 (List.length !(h.delivered))

let test_efcp_sender_gives_up () =
  let h = make_harness ~drop_data:(fun _ -> true) () in
  send_all h (payloads 3);
  run h 60.;
  Alcotest.(check bool) "flow error reported once" true
    (List.length !(h.sender_errors) = 1);
  check Alcotest.int "nothing delivered" 0 (List.length !(h.delivered))

let test_efcp_stop_and_wait () =
  let cfg = { base_cfg with Policy.window = 1 } in
  let h = make_harness ~cfg ~rcv_cfg:cfg () in
  let msgs = payloads 10 in
  send_all h msgs;
  Alcotest.(check bool) "at most 1 in flight" true (Efcp.in_flight h.sender <= 1);
  run h 10.;
  check Alcotest.(list string) "delivered" msgs (List.rev !(h.delivered))

let test_efcp_delayed_acks_aggregate () =
  let rcv_cfg = { base_cfg with Policy.ack_delay = 0.05 } in
  let h = make_harness ~rcv_cfg () in
  send_all h (payloads 30);
  run h 20.;
  check Alcotest.int "all delivered" 30 (List.length !(h.delivered));
  Alcotest.(check bool) "fewer acks than PDUs" true
    (Metrics.get (Efcp.metrics h.receiver) "acks_sent" < 30)

let test_efcp_close_stops_everything () =
  let h = make_harness () in
  send_all h (payloads 5);
  Efcp.close h.sender;
  Efcp.close h.sender;
  (* idempotent *)
  run h 5.;
  Efcp.send h.sender (Pdu.view_of_bytes (Bytes.of_string "after close"));
  run h 1.;
  Alcotest.(check bool) "no error, no crash" true (!(h.sender_errors) = [])

let test_efcp_debug_string () =
  let h = make_harness () in
  send_all h (payloads 2);
  Alcotest.(check bool) "debug non-empty" true (String.length (Efcp.debug h.sender) > 0)

let test_efcp_sack_repairs_before_rto () =
  (* With sack_blocks > 0 the receiver advertises its reorder buffer and
     the sender repairs the hole from the ack alone — an RTO big enough
     to dominate the run proves the fast path did the work. *)
  let cfg =
    { base_cfg with Policy.sack_blocks = 4; init_rto = 30.; min_rto = 30. }
  in
  let h = make_harness ~cfg ~rcv_cfg:cfg ~drop_data:(fun n -> n = 3) () in
  let msgs = payloads 8 in
  send_all h msgs;
  run h 5.;
  check Alcotest.(list string) "hole repaired without an RTO" msgs
    (List.rev !(h.delivered));
  Alcotest.(check bool) "repair was a retransmission" true
    (Metrics.get (Efcp.metrics h.sender) "pdus_rtx" > 0);
  check Alcotest.int "no rto fired" 0
    (Metrics.get (Efcp.metrics h.sender) "rto_fired");
  check Alcotest.int "sack payloads decoded cleanly" 0
    (Metrics.get (Efcp.metrics h.sender) "sack_decode_errors")

let test_efcp_reorder_window_overflow () =
  (* A tiny reorder window: once the hole at seq 0 has 2 successors
     buffered, further out-of-order PDUs are shed (counted, not
     delivered out of order) and recovered by retransmission. *)
  let cfg = { base_cfg with Policy.congestion_control = false } in
  let rcv_cfg = { cfg with Policy.reorder_window = 2 } in
  let h = make_harness ~cfg ~rcv_cfg ~drop_data:(fun n -> n = 1) () in
  let msgs = payloads 8 in
  send_all h msgs;
  run h 30.;
  check Alcotest.(list string) "still exactly-once in order" msgs
    (List.rev !(h.delivered));
  Alcotest.(check bool) "overflow shed some PDUs" true
    (Metrics.get (Efcp.metrics h.receiver) "ooo_overflow" > 0)

let test_efcp_dup_cache_suppression () =
  (* Unreliable unordered flows have no sequencing state to catch
     link-level duplicates; the dup ring does.  Every PDU is delivered
     twice by the "link" — with max_dup_cache the copies are suppressed,
     without it they reach the application. *)
  let deliver_twice ~max_dup_cache =
    let cfg =
      {
        base_cfg with
        Policy.rtx_strategy = Policy.No_rtx;
        max_dup_cache;
      }
    in
    let engine = Engine.create () in
    let delivered = ref [] in
    let receiver_ref = ref None in
    let to_receiver (pdu : Pdu.t) =
      List.iter
        (fun d ->
          ignore
            (Engine.schedule engine ~delay:d (fun () ->
                 match !receiver_ref with
                 | Some r -> Efcp.handle_pdu r pdu
                 | None -> ())))
        [ 0.001; 0.002 ];
      0
    in
    let sender =
      Efcp.create engine ~config:cfg ~in_order:false ~local_cep:1 ~remote_cep:2
        ~qos_id:0 ~send_pdu:to_receiver
        ~deliver:(fun _ -> ())
        ~on_error:(fun _ -> ())
        ()
    in
    let receiver =
      Efcp.create engine ~config:cfg ~in_order:false ~local_cep:2 ~remote_cep:1
        ~qos_id:0
        ~send_pdu:(fun _ -> 0)
        ~deliver:(fun v -> delivered := Bytes.to_string (Pdu.bytes_of_view v) :: !delivered)
        ~on_error:(fun _ -> ())
        ()
    in
    receiver_ref := Some receiver;
    List.iter (fun m -> Efcp.send sender (Pdu.view_of_bytes (Bytes.of_string m))) (payloads 6);
    Engine.run engine;
    (List.rev !delivered, Metrics.get (Efcp.metrics receiver) "dup_suppressed")
  in
  let with_cache, suppressed = deliver_twice ~max_dup_cache:16 in
  check Alcotest.(list string) "cache: exactly once" (payloads 6) with_cache;
  check Alcotest.int "every copy suppressed" 6 suppressed;
  let without_cache, suppressed0 = deliver_twice ~max_dup_cache:0 in
  check Alcotest.int "no cache: copies reach the app" 12
    (List.length without_cache);
  check Alcotest.int "nothing suppressed" 0 suppressed0

let test_efcp_ecn_echo_and_backoff () =
  (* A congestion-experienced mark on a data PDU must come back on the
     ack (receiver echo), cut the sender's window at most once per
     window of data, and never count as loss — no retransmissions, no
     RTOs, every SDU still delivered in order. *)
  let cfg =
    { base_cfg with Policy.window = 16; congestion_control = true; max_rtx = 20 }
  in
  let engine = Engine.create () in
  let delivered = ref [] in
  let sender_ref = ref None and receiver_ref = ref None in
  let marked_data = ref 0 in
  let seen_data = ref 0 in
  let to_receiver (pdu : Pdu.t) =
    (* the "congested relay": a finite mid-stream congestion episode —
       stamp ECN on transiting data PDUs 17..24, after the flow has an
       RTT estimate and an open window.  (Marking from the very first
       PDU would pin cwnd at its floor of 2, where each marked ack
       really does open a new tiny window and cuts again — the
       once-per-window rule is only visible on an established flow.) *)
    incr seen_data;
    let pdu =
      if !seen_data > 16 && !seen_data <= 24 then begin
        incr marked_data;
        { pdu with Pdu.flags = pdu.Pdu.flags lor Pdu.flag_ecn }
      end
      else pdu
    in
    ignore
      (Engine.schedule engine ~delay:0.001 (fun () ->
           match !receiver_ref with
           | Some r -> Efcp.handle_pdu r pdu
           | None -> ()));
    0
  in
  let to_sender (pdu : Pdu.t) =
    ignore
      (Engine.schedule engine ~delay:0.001 (fun () ->
           match !sender_ref with
           | Some s -> Efcp.handle_pdu s pdu
           | None -> ()));
    0
  in
  let sender =
    Efcp.create engine ~config:cfg ~in_order:true ~local_cep:1 ~remote_cep:2
      ~qos_id:1 ~send_pdu:to_receiver
      ~deliver:(fun _ -> ())
      ~on_error:(fun _ -> ())
      ()
  in
  let receiver =
    Efcp.create engine ~config:cfg ~in_order:true ~local_cep:2 ~remote_cep:1
      ~qos_id:1 ~send_pdu:to_sender
      ~deliver:(fun v -> delivered := Bytes.to_string (Pdu.bytes_of_view v) :: !delivered)
      ~on_error:(fun _ -> ())
      ()
  in
  sender_ref := Some sender;
  receiver_ref := Some receiver;
  let msgs = payloads 48 in
  List.iter (fun m -> Efcp.send sender (Pdu.view_of_bytes (Bytes.of_string m))) msgs;
  Engine.run engine;
  let sm = Efcp.metrics sender and rm = Efcp.metrics receiver in
  check Alcotest.(list string) "all delivered in order" msgs (List.rev !delivered);
  check Alcotest.int "receiver saw every mark" !marked_data
    (Metrics.get rm "ecn_rcvd");
  Alcotest.(check bool) "sender saw echoes" true (Metrics.get sm "ecn_echoes" > 0);
  let backoffs = Metrics.get sm "ecn_backoffs" in
  Alcotest.(check bool) "sender backed off" true (backoffs > 0);
  Alcotest.(check bool) "at most one cut per window of data" true
    (backoffs < Metrics.get sm "ecn_echoes");
  check Alcotest.int "marks are not losses: no rtx" 0 (Metrics.get sm "pdus_rtx");
  check Alcotest.int "marks are not losses: no rto" 0 (Metrics.get sm "rto_fired")

let prop_efcp_reliable_under_random_loss =
  (* Whatever independent loss pattern hits data and acks (capped so
     the flow is not declared dead), a reliable flow must deliver every
     SDU exactly once and in order. *)
  QCheck.Test.make ~name:"efcp exactly-once in-order under random loss" ~count:40
    QCheck.(triple (int_range 0 10_000) (int_range 0 30) (int_range 5 40))
    (fun (seed, loss_pct, n) ->
      let rng = Rina_util.Prng.create seed in
      let cfg = { base_cfg with Policy.max_rtx = 30 } in
      let h =
        make_harness ~cfg ~rcv_cfg:cfg
          ~drop_data:(fun _ -> Rina_util.Prng.int rng 100 < loss_pct)
          ~drop_ack:(fun _ -> Rina_util.Prng.int rng 100 < loss_pct)
          ~delay_of:(fun _ -> 0.001 +. Rina_util.Prng.float rng 0.004)
          ()
      in
      let msgs = payloads n in
      send_all h msgs;
      run h 120.;
      List.rev !(h.delivered) = msgs && !(h.sender_errors) = [])

(* ---------- RMT ---------- *)

let own_addr = 10

let make_rmt ?(scheduler = Policy.Fifo) engine =
  Rmt.create engine ~own_address:(fun () -> own_addr) ~scheduler ()

let frame_of pdu = Rina_core.Sdu_protection.protect (Pdu.encode pdu)

let data_pdu ~dst ?(src = 99) ?(ttl = 8) ?(qos_id = 0) () =
  Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:dst ~src_addr:src ~dst_cep:1 ~src_cep:1
    ~qos_id ~ttl (Bytes.of_string "x")

let test_rmt_local_delivery_and_relay () =
  let engine = Engine.create () in
  let rmt = make_rmt engine in
  let up = ref [] in
  Rmt.set_deliver rmt (fun port pdu -> up := (port, pdu.Pdu.dst_addr) :: !up);
  let a_near, a_far = Chan.pair () in
  let b_near, b_far = Chan.pair () in
  let p_a = Rmt.add_port rmt a_near in
  let p_b = Rmt.add_port rmt b_near in
  Rmt.set_forwarding rmt (fun pdu -> if pdu.Pdu.dst_addr = 20 then Some p_b else None);
  let relayed = ref [] in
  b_far.Chan.set_receiver (fun f -> relayed := f :: !relayed);
  (* Frame for us: delivered up with the ingress port. *)
  a_far.Chan.send (frame_of (data_pdu ~dst:own_addr ()));
  Engine.run engine;
  check Alcotest.int "delivered up" 1 (List.length !up);
  (match !up with
   | [ (Some p, addr) ] ->
     check Alcotest.int "ingress port" p_a p;
     check Alcotest.int "addr" own_addr addr
   | _ -> Alcotest.fail "bad delivery");
  (* Frame for 20: relayed out of port b with TTL decremented. *)
  a_far.Chan.send (frame_of (data_pdu ~dst:20 ~ttl:8 ()));
  Engine.run engine;
  check Alcotest.int "relayed" 1 (List.length !relayed);
  (match Pdu.decode (Option.get (Rina_core.Sdu_protection.verify (List.hd !relayed))) with
   | Ok pdu -> check Alcotest.int "ttl decremented" 7 pdu.Pdu.ttl
   | Error e -> Alcotest.fail e);
  check Alcotest.int "relay metric" 1 (Metrics.get (Rmt.metrics rmt) "relayed")

let test_rmt_ttl_expiry () =
  let engine = Engine.create () in
  let rmt = make_rmt engine in
  let a_near, a_far = Chan.pair () in
  ignore (Rmt.add_port rmt a_near);
  Rmt.set_forwarding rmt (fun _ -> None);
  a_far.Chan.send (frame_of (data_pdu ~dst:20 ~ttl:1 ()));
  Engine.run engine;
  check Alcotest.int "ttl_expired" 1 (Metrics.get (Rmt.metrics rmt) "ttl_expired")

let test_rmt_no_route () =
  let engine = Engine.create () in
  let rmt = make_rmt engine in
  let a_near, a_far = Chan.pair () in
  ignore (Rmt.add_port rmt a_near);
  Rmt.set_forwarding rmt (fun _ -> None);
  a_far.Chan.send (frame_of (data_pdu ~dst:20 ()));
  Engine.run engine;
  check Alcotest.int "no_route" 1 (Metrics.get (Rmt.metrics rmt) "no_route")

let test_rmt_crc_and_decode_drops () =
  let engine = Engine.create () in
  let rmt = make_rmt engine in
  let a_near, a_far = Chan.pair () in
  ignore (Rmt.add_port rmt a_near);
  a_far.Chan.send (Bytes.of_string "not even a frame");
  let corrupt = frame_of (data_pdu ~dst:own_addr ()) in
  Bytes.set corrupt 3 '\xFF';
  a_far.Chan.send corrupt;
  (* Valid CRC over an undecodable body. *)
  a_far.Chan.send (Rina_core.Sdu_protection.protect (Bytes.of_string "junk"));
  Engine.run engine;
  check Alcotest.int "crc dropped" 2 (Metrics.get (Rmt.metrics rmt) "crc_dropped");
  check Alcotest.int "decode dropped" 1 (Metrics.get (Rmt.metrics rmt) "decode_dropped")

let test_rmt_ingress_filter () =
  let engine = Engine.create () in
  let rmt = make_rmt engine in
  let up = ref 0 in
  Rmt.set_deliver rmt (fun _ _ -> incr up);
  Rmt.set_ingress_filter rmt (fun _ pdu -> pdu.Pdu.src_addr <> 666);
  let a_near, a_far = Chan.pair () in
  ignore (Rmt.add_port rmt a_near);
  a_far.Chan.send (frame_of (data_pdu ~dst:own_addr ~src:666 ()));
  a_far.Chan.send (frame_of (data_pdu ~dst:own_addr ~src:1 ()));
  Engine.run engine;
  check Alcotest.int "one passed" 1 !up;
  check Alcotest.int "one filtered" 1 (Metrics.get (Rmt.metrics rmt) "ingress_dropped")

let test_rmt_send_on_port_and_removal () =
  let engine = Engine.create () in
  let rmt = make_rmt engine in
  let a_near, a_far = Chan.pair () in
  let p = Rmt.add_port rmt a_near in
  let got = ref 0 in
  a_far.Chan.set_receiver (fun _ -> incr got);
  Rmt.send_on_port rmt p (data_pdu ~dst:0 ());
  Engine.run engine;
  check Alcotest.int "sent" 1 !got;
  check Alcotest.(list int) "ports" [ p ] (Rmt.ports rmt);
  Rmt.remove_port rmt p;
  check Alcotest.(list int) "removed" [] (Rmt.ports rmt);
  Rmt.send_on_port rmt p (data_pdu ~dst:0 ());
  check Alcotest.int "send on removed counts no_route" 1
    (Metrics.get (Rmt.metrics rmt) "no_route")

let test_rmt_priority_scheduling () =
  let engine = Engine.create () in
  let rmt = make_rmt ~scheduler:Policy.Priority_queueing engine in
  Rmt.set_classify rmt (fun pdu -> pdu.Pdu.qos_id);
  let a_near, a_far = Chan.pair () in
  (* Slow shaped port: 80 kb/s so ~10ms per 100-byte frame. *)
  let p = Rmt.add_port rmt ~rate:80_000. a_near in
  let order = ref [] in
  a_far.Chan.set_receiver (fun f ->
      match Pdu.decode (Option.get (Rina_core.Sdu_protection.verify f)) with
      | Ok pdu -> order := pdu.Pdu.qos_id :: !order
      | Error _ -> ());
  (* Enqueue: one low, then burst of low and high; the first low is
     already in service, but among the queued ones all highs must beat
     all lows. *)
  Rmt.send_on_port rmt p (data_pdu ~dst:0 ~qos_id:0 ());
  for _ = 1 to 3 do
    Rmt.send_on_port rmt p (data_pdu ~dst:0 ~qos_id:0 ());
    Rmt.send_on_port rmt p (data_pdu ~dst:0 ~qos_id:5 ())
  done;
  Engine.run engine;
  let served = List.rev !order in
  (match served with
   | first :: rest ->
     check Alcotest.int "first was in service" 0 first;
     check Alcotest.(list int) "high before low" [ 5; 5; 5; 0; 0; 0 ] rest
   | [] -> Alcotest.fail "nothing served");
  check Alcotest.int "queue drained" 0 (Rmt.queue_depth rmt p);
  (* three frames of each class waited behind the one in service *)
  check Alcotest.int "queue_hwm is the deepest class queue" 3
    (Metrics.get (Rmt.metrics rmt) "queue_hwm")

let test_rmt_ecn_marking () =
  (* A shaped port driven past [mark_threshold] marks Dtp frames with
     the configured probability from a private per-label stream —
     identical runs mark identical frames — and overflow past the hard
     capacity of a queue already over the threshold is accounted
     R_congestion, not plain queue_full. *)
  let congestion =
    {
      Policy.mark_threshold = 16;
      mark_probability = 0.5;
      pushback = false;
      admission_max_pending = 0;
      admission_backoff = 0.;
    }
  in
  let run () =
    let engine = Engine.create () in
    let rmt =
      Rmt.create engine ~own_address:(fun () -> own_addr) ~scheduler:Policy.Fifo
        ~congestion ()
    in
    let a_near, a_far = Chan.pair () in
    let p = Rmt.add_port rmt ~rate:80_000. a_near in
    let marked = ref [] in
    let n = ref 0 in
    a_far.Chan.set_receiver (fun f ->
        incr n;
        if Pdu.Peek.is_dtp f && Pdu.frame_has_ecn f then marked := !n :: !marked);
    for _ = 1 to 300 do
      Rmt.send_on_port rmt p (data_pdu ~dst:0 ())
    done;
    Engine.run engine;
    (List.rev !marked, Rmt.metrics rmt)
  in
  let marked, m = run () in
  Alcotest.(check bool) "some frames marked" true (List.length marked > 0);
  check Alcotest.int "metric matches wire" (List.length marked)
    (Metrics.get m "ecn_marked");
  Alcotest.(check bool) "over-capacity arrivals congestion-dropped" true
    (Metrics.get m "congestion_dropped" > 0);
  check Alcotest.int "every drop was a congestion drop"
    (Metrics.get m "queue_dropped")
    (Metrics.get m "congestion_dropped");
  let marked', _ = run () in
  check Alcotest.(list int) "identical runs mark identical frames" marked marked'

let test_rmt_marking_disabled () =
  (* mark_threshold = 0 (the default policy) must never mark or
     reclassify drops, whatever the load. *)
  let engine = Engine.create () in
  let rmt =
    Rmt.create engine ~own_address:(fun () -> own_addr) ~scheduler:Policy.Fifo ()
  in
  let a_near, a_far = Chan.pair () in
  let p = Rmt.add_port rmt ~rate:80_000. a_near in
  let any_marked = ref false in
  a_far.Chan.set_receiver (fun f ->
      if Pdu.frame_has_ecn f then any_marked := true);
  for _ = 1 to 300 do
    Rmt.send_on_port rmt p (data_pdu ~dst:0 ())
  done;
  Engine.run engine;
  let m = Rmt.metrics rmt in
  Alcotest.(check bool) "nothing marked" false !any_marked;
  check Alcotest.int "no ecn counter" 0 (Metrics.get m "ecn_marked");
  check Alcotest.int "no congestion drops" 0 (Metrics.get m "congestion_dropped");
  Alcotest.(check bool) "plain queue_full drops still counted" true
    (Metrics.get m "queue_dropped" > 0)

let test_rmt_drr_shares () =
  let engine = Engine.create () in
  let rmt = make_rmt ~scheduler:(Policy.Drr 200) engine in
  Rmt.set_classify rmt (fun pdu -> pdu.Pdu.qos_id);
  let a_near, a_far = Chan.pair () in
  let p = Rmt.add_port rmt ~rate:1_000_000. a_near in
  let served = Array.make 8 0 in
  let first_30 = ref [] in
  a_far.Chan.set_receiver (fun f ->
      match Pdu.decode (Option.get (Rina_core.Sdu_protection.verify f)) with
      | Ok pdu ->
        served.(pdu.Pdu.qos_id) <- served.(pdu.Pdu.qos_id) + 1;
        if List.length !first_30 < 30 then first_30 := pdu.Pdu.qos_id :: !first_30
      | Error _ -> ());
  for _ = 1 to 40 do
    Rmt.send_on_port rmt p (data_pdu ~dst:0 ~qos_id:1 ());
    Rmt.send_on_port rmt p (data_pdu ~dst:0 ~qos_id:3 ())
  done;
  Engine.run engine;
  check Alcotest.int "all class-1 served" 40 served.(1);
  check Alcotest.int "all class-3 served" 40 served.(3);
  (* DRR interleaves at round granularity: across the first 30
     departures the weight-4 class must get roughly twice the
     bandwidth of the weight-2 class (and both must appear). *)
  let c3 = List.length (List.filter (fun q -> q = 3) !first_30) in
  let c1 = List.length (List.filter (fun q -> q = 1) !first_30) in
  Alcotest.(check bool) "both classes served early" true (c1 > 0 && c3 > 0);
  Alcotest.(check bool) "weighted share ~2:1" true (c3 >= 16 && c3 <= 24)

let () =
  Alcotest.run "efcp_rmt"
    [
      ( "efcp",
        [
          Alcotest.test_case "in-order no loss" `Quick test_efcp_in_order_no_loss;
          Alcotest.test_case "window respected" `Quick test_efcp_window_respected;
          Alcotest.test_case "recovers from data loss" `Quick test_efcp_recovers_from_data_loss;
          Alcotest.test_case "recovers from ack loss" `Quick test_efcp_recovers_from_ack_loss;
          Alcotest.test_case "reordering resequenced" `Quick test_efcp_reordering_in_order_delivery;
          Alcotest.test_case "duplicate suppression" `Quick test_efcp_duplicate_suppression;
          Alcotest.test_case "go-back-n" `Quick test_efcp_gbn_discards_and_recovers;
          Alcotest.test_case "unreliable no-rtx" `Quick test_efcp_no_rtx_unreliable;
          Alcotest.test_case "unreliable ordered stale drop" `Quick
            test_efcp_unreliable_ordered_drops_stale;
          Alcotest.test_case "sender gives up" `Quick test_efcp_sender_gives_up;
          Alcotest.test_case "stop-and-wait" `Quick test_efcp_stop_and_wait;
          Alcotest.test_case "delayed acks aggregate" `Quick test_efcp_delayed_acks_aggregate;
          Alcotest.test_case "close idempotent" `Quick test_efcp_close_stops_everything;
          Alcotest.test_case "debug string" `Quick test_efcp_debug_string;
          Alcotest.test_case "sack repairs before rto" `Quick
            test_efcp_sack_repairs_before_rto;
          Alcotest.test_case "reorder window overflow" `Quick
            test_efcp_reorder_window_overflow;
          Alcotest.test_case "ecn echo and backoff" `Quick
            test_efcp_ecn_echo_and_backoff;
          Alcotest.test_case "dup cache suppression" `Quick
            test_efcp_dup_cache_suppression;
          QCheck_alcotest.to_alcotest prop_efcp_reliable_under_random_loss;
        ] );
      ( "rmt",
        [
          Alcotest.test_case "local delivery and relay" `Quick test_rmt_local_delivery_and_relay;
          Alcotest.test_case "ttl expiry" `Quick test_rmt_ttl_expiry;
          Alcotest.test_case "no route" `Quick test_rmt_no_route;
          Alcotest.test_case "crc and decode drops" `Quick test_rmt_crc_and_decode_drops;
          Alcotest.test_case "ingress filter" `Quick test_rmt_ingress_filter;
          Alcotest.test_case "send on port / removal" `Quick test_rmt_send_on_port_and_removal;
          Alcotest.test_case "priority scheduling" `Quick test_rmt_priority_scheduling;
          Alcotest.test_case "drr shares" `Quick test_rmt_drr_shares;
          Alcotest.test_case "ecn marking deterministic" `Quick test_rmt_ecn_marking;
          Alcotest.test_case "marking disabled by default" `Quick
            test_rmt_marking_disabled;
        ] );
    ]
