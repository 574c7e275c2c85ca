(* The frame-path stage ledger: the cost of one call of each function
   the stack runs per PDU, SDU or management event, in ns and in bytes
   allocated.  Multiplied by the per-SDU counts of a traced round it
   predicts each stage's share of a workload's time per SDU. *)

module Pdu = Rina_core.Pdu
module Prot = Rina_core.Sdu_protection
module Delimiting = Rina_core.Delimiting
module Riep = Rina_core.Riep
module Rib = Rina_core.Rib
module Routing = Rina_core.Routing
module Engine = Rina_sim.Engine
module Metrics = Rina_util.Metrics
module Prng = Rina_util.Prng

let mtu = 1400

let pdu_of size =
  Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:5 ~src_addr:1 ~dst_cep:3 ~src_cep:4 ~qos_id:1
    ~seq:42 (Bytes.make size 'x')

let body_len frame = Bytes.length frame - Prot.overhead

(* The churn workload's graph shape: a chain plus random edges to
   average degree 3, as a link-state database. *)
let lsdb n =
  let rng = Prng.create 48 in
  let adj = Array.make (n + 1) [] in
  let link a b =
    adj.(a) <- (b, 1.) :: adj.(a);
    adj.(b) <- (a, 1.) :: adj.(b)
  in
  for a = 1 to n - 1 do
    link a (a + 1)
  done;
  let edges = ref (n - 1) in
  while !edges < n * 3 / 2 do
    let a = 1 + Prng.int rng n and b = 1 + Prng.int rng n in
    if a <> b && not (List.mem_assoc b adj.(a)) then begin
      link a b;
      incr edges
    end
  done;
  let r = Routing.create () in
  for a = 1 to n do
    ignore (Routing.install r { Routing.Lsa.origin = a; seq = 1; neighbors = adj.(a) })
  done;
  r

(* (name, one call).  Inputs are built once, outside the timed loop. *)
let stages () =
  let sized size =
    let pdu = pdu_of size in
    let frame = Pdu.encode_frame pdu in
    [
      (Printf.sprintf "encode_frame.%d" size, fun () -> ignore (Pdu.encode_frame pdu));
      (Printf.sprintf "verify_len.%d" size, fun () -> ignore (Prot.verify_len frame));
      ( Printf.sprintf "relay_hop.%d" size,
        fun () ->
          let c = Bytes.copy frame in
          Bytes.set_uint8 c Pdu.ttl_offset 31;
          Prot.seal c );
    ]
  in
  let f1400 = Pdu.encode_frame (pdu_of mtu) in
  let payload = Bytes.make mtu 'x' in
  let sdu = Bytes.make 8192 'x' in
  let fragments = Delimiting.fragment ~mtu sdu in
  let counters = Metrics.create () in
  List.iter
    (fun k -> Metrics.incr counters k)
    [ "pdus_sent"; "acks_sent"; "acks_rcvd"; "delivered"; "pdus_rtx"; "rto_fired";
      "dup_rcvd"; "ooo_buffered"; "relayed"; "sent"; "delivered_up"; "tx"; "rx" ];
  let engine = Engine.create () in
  let nop () = () in
  let msg =
    Riep.make ~opcode:Riep.M_create ~obj_class:"flow" ~obj_name:"/flows/request"
      ~obj_value:(Rib.V_bytes (Bytes.make 24 'f')) ~invoke_id:7 ()
  in
  let rib = Rib.create () in
  for i = 0 to 95 do
    Rib.write rib (Printf.sprintf "/dir/srv%d/1" i) (Rib.V_int i)
  done;
  let routing = lsdb 48 in
  sized 64 @ sized mtu
  @ [
      ("seal.1400", fun () -> Prot.seal f1400);
      ( "decode_header.1400",
        fun () -> ignore (Pdu.decode_header f1400 ~len:(body_len f1400)) );
      ("decode_sub.1400", fun () -> ignore (Pdu.decode_sub f1400 ~len:(body_len f1400)));
      ("crc32.1400", fun () -> ignore (Prot.crc32 payload));
      ("fragment.8192", fun () -> ignore (Delimiting.fragment ~mtu sdu));
      ( "reassemble.8192",
        fun () ->
          let r = Delimiting.create_reassembler () in
          List.iter (fun f -> ignore (Delimiting.push r f)) fragments );
      ("metrics_incr", fun () -> Metrics.incr counters "pdus_sent");
      ( "engine_schedule_cancel",
        fun () -> Engine.cancel (Engine.schedule ~lane:Engine.Timer engine ~delay:1.0 nop) );
      ("riep_encode_decode", fun () -> ignore (Riep.decode (Riep.encode msg)));
      ( "rib_write_read",
        fun () ->
          Rib.write rib "/dir/srv7/1" (Rib.V_int 7);
          ignore (Rib.read rib "/dir/srv7/1") );
      ("spf.48", fun () -> ignore (Routing.spf routing ~source:1));
    ]

let batches = 7

(* ns and allocated bytes per call: the call count per batch is doubled
   until one batch takes [batch_ns], then [batches] batches are timed
   and the median batch is reported. *)
let measure ~batch_ns f =
  let run n =
    let a0 = Gc.allocated_bytes () in
    let t0 = Spans.now_ns () in
    for _ = 1 to n do
      f ()
    done;
    let t1 = Spans.now_ns () in
    (float_of_int (t1 - t0), Gc.allocated_bytes () -. a0)
  in
  let rec calibrate n = if fst (run n) >= float_of_int batch_ns then n else calibrate (2 * n) in
  let n = calibrate 1 in
  let samples = Array.init batches (fun _ -> run n) in
  let per_call xs = Summary.median xs /. float_of_int n in
  (per_call (Array.map fst samples), per_call (Array.map snd samples))

let run ~smoke =
  let batch_ns = if smoke then 200_000 else 5_000_000 in
  List.concat_map
    (fun (name, f) ->
      let ns, bytes = measure ~batch_ns f in
      [ ("stage." ^ name ^ ".ns", ns); ("stage." ^ name ^ ".bytes", bytes) ])
    (stages ())
