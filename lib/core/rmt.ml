let num_classes = 8

let queue_capacity = 256

(* The data path carries encoded, SDU-protected frames end to end: a
   PDU is serialised once (at [send]/[send_on_port]), around its
   payload when the payload has headroom, and a relay hop patches the
   TTL byte and re-seals the trailer in the frame its channel handed
   it — it neither re-encodes nor copies.  Header fields needed along
   the way are read in place ([Pdu.decode_header], [Pdu.Peek]); at the
   destination the payload goes up as a view into the frame.  The
   ownership rule that makes this safe is documented on
   [Rina_sim.Chan.t]. *)
type port = {
  id : Types.port_id;
  chan : Rina_sim.Chan.t;
  rate : float option;
  queues : bytes Queue.t array;  (* protected frames, one q per class *)
  deficits : float array;        (* DRR state *)
  mutable rr_class : int;        (* DRR scan position *)
  mutable busy : bool;           (* a departure is scheduled *)
  sent_port : Rina_util.Metrics.counter;  (* per-port egress counter *)
}

type t = {
  engine : Rina_sim.Engine.t;
  flight : Rina_util.Flight.recorder;  (* the engine's *)
  own_address : unit -> Types.address;
  label : string;  (* flight-recorder component prefix *)
  rank : int;
  scheduler : Policy.scheduler;
  congestion : Policy.congestion;
  mark_rng : Rina_util.Prng.t;
      (* private stream for probabilistic ECN marking, seeded from the
         label so identical runs mark identical PDUs *)
  ports : (Types.port_id, port) Hashtbl.t;
  mutable next_port : Types.port_id;
  mutable forwarding : Pdu.t -> Types.port_id option;
  mutable deliver : Types.port_id option -> Pdu.t -> unit;
  mutable classify : Pdu.t -> int;
  mutable ingress_filter : Types.port_id -> Pdu.t -> bool;
  mutable drop_reason : Pdu.t -> Rina_util.Flight.reason;
      (* refines the drop reason when forwarding says None: the IPC
         process reports [R_path_down] when routes exist but every
         member path is Down, [R_no_route] otherwise *)
  metrics : Rina_util.Metrics.t;
  (* handles for the counters bumped per frame *)
  sent : Rina_util.Metrics.counter;
  relayed : Rina_util.Metrics.counter;
  delivered_up : Rina_util.Metrics.counter;
  queue_hwm : Rina_util.Metrics.counter;
}

let create engine ~own_address ~scheduler
    ?(congestion = Policy.default_congestion) ?(label = "rmt") ?(rank = 0) () =
  let metrics = Rina_util.Metrics.create () in
  let counter = Rina_util.Metrics.counter metrics in
  {
    engine;
    flight = Rina_sim.Engine.flight engine;
    own_address;
    label;
    rank;
    scheduler;
    congestion;
    mark_rng = Rina_util.Prng.create (Hashtbl.hash (label, "rmt-ecn"));
    ports = Hashtbl.create 8;
    next_port = 1;
    forwarding = (fun _ -> None);
    deliver = (fun _ _ -> ());
    classify = (fun _ -> 0);
    ingress_filter = (fun _ _ -> true);
    drop_reason = (fun _ -> Rina_util.Flight.R_no_route);
    metrics;
    sent = counter "sent";
    relayed = counter "relayed";
    delivered_up = counter "delivered_up";
    queue_hwm = counter "queue_hwm";
  }

let set_forwarding t f = t.forwarding <- f

let set_deliver t f = t.deliver <- f

let set_classify t f = t.classify <- f

let set_ingress_filter t f = t.ingress_filter <- f

let set_drop_reason t f = t.drop_reason <- f

let metrics t = t.metrics

(* Flight-recorder emissions; each helper guards inside, so the
   disabled path allocates nothing.  The component names the relay
   instance ("label@address"), and the span id is recomputed from the
   PDU header so relay events join the end-to-end EFCP events.
   [flight_frame] reads the fields straight out of the frame; it
   reports the same flow/seq/span/size as [flight_pdu] on the decoded
   equivalent (size = encoded PDU length, trailer excluded). *)
module Flight = Rina_util.Flight

let flight_pdu t (pdu : Pdu.t) kind =
  if Flight.on t.flight then
    Flight.emit_to t.flight
      ~component:(t.label ^ "@" ^ string_of_int (t.own_address ()))
      ~flow:pdu.Pdu.dst_cep ~rank:t.rank ~seq:pdu.Pdu.seq
      ~size:(Pdu.encoded_size pdu)
      ~span:(Pdu.span pdu) kind

let flight_frame t frame kind =
  if Flight.on t.flight then
    Flight.emit_to t.flight
      ~component:(t.label ^ "@" ^ string_of_int (t.own_address ()))
      ~flow:(Pdu.Peek.dst_cep frame) ~rank:t.rank ~seq:(Pdu.Peek.seq frame)
      ~size:(Bytes.length frame - Sdu_protection.overhead)
      ~span:(Pdu.Peek.span frame) kind

let transmit_now t port frame =
  Rina_util.Metrics.bump t.sent;
  Rina_util.Metrics.bump port.sent_port;
  flight_frame t frame Flight.Pdu_sent;
  port.chan.Rina_sim.Chan.send frame

(* Pick the next frame to serve on a shaped port according to the
   scheduler policy; [None] when all queues are empty. *)
let pick_next t port =
  match t.scheduler with
  | Policy.Fifo | Policy.Priority_queueing ->
    (* Both serve a fixed class order; FIFO uses only class 0 in
       practice (classify constant), priority scans high to low. *)
    let rec scan cls =
      if cls < 0 then None
      else if not (Queue.is_empty port.queues.(cls)) then
        Some (Queue.pop port.queues.(cls))
      else scan (cls - 1)
    in
    scan (num_classes - 1)
  | Policy.Drr quantum ->
    let total_queued =
      Array.fold_left (fun acc q -> acc + Queue.length q) 0 port.queues
    in
    if total_queued = 0 then None
    else begin
      (* Weighted deficit round robin: class c earns quantum * (c+1)
         exactly once each time the service token arrives at it; an
         empty class forfeits its deficit.  Backlogged classes thus
         share bandwidth in proportion to their weights, round by
         round. *)
      let advance () =
        port.rr_class <- (port.rr_class + 1) mod num_classes;
        let cls = port.rr_class in
        port.deficits.(cls) <-
          port.deficits.(cls) +. float_of_int (quantum * (cls + 1))
      in
      let result = ref None in
      while !result = None do
        let cls = port.rr_class in
        let q = port.queues.(cls) in
        if Queue.is_empty q then begin
          port.deficits.(cls) <- 0.;
          advance ()
        end
        else begin
          (* DRR accounts PDU bytes (trailer excluded), as before the
             queues carried frames. *)
          let size = Bytes.length (Queue.peek q) - Sdu_protection.overhead in
          if port.deficits.(cls) >= float_of_int size then begin
            port.deficits.(cls) <- port.deficits.(cls) -. float_of_int size;
            result := Some (Queue.pop q)
          end
          else advance ()
        end
      done;
      !result
    end

let rec serve t port rate =
  if not port.busy then
    match pick_next t port with
    | None -> ()
    | Some frame ->
      flight_frame t frame Flight.Dequeued;
      port.busy <- true;
      let size = Bytes.length frame in
      let tx_time = float_of_int (8 * size) /. rate in
      transmit_now t port frame;
      ignore
        (Rina_sim.Engine.schedule t.engine ~delay:tx_time (fun () ->
             port.busy <- false;
             serve t port rate))

(* [hdr] is the frame's decoded header — classification reads fields,
   never the payload.

   Congestion marking (policy [mark_threshold] > 0) happens here, at
   the one point where queue pressure is visible: a Dtp frame joining
   a class queue already at or over the threshold is ECN-marked with
   probability [mark_probability] (in place — the frame is owned by
   this queue), and an overflow of such a queue is accounted as
   [R_congestion] rather than a bare [R_queue_full] so overload drops
   are distinguishable from sizing bugs. *)
let enqueue t port ~hdr frame =
  match port.rate with
  | None -> transmit_now t port frame
  | Some rate ->
    let cls = max 0 (min (num_classes - 1) (t.classify hdr)) in
    let depth = Queue.length port.queues.(cls) in
    let th = t.congestion.Policy.mark_threshold in
    let congested = th > 0 && depth >= th in
    if depth >= queue_capacity then begin
      let reason = if congested then Flight.R_congestion else Flight.R_queue_full in
      flight_frame t frame (Flight.Pdu_dropped reason);
      Rina_util.Metrics.incr t.metrics "queue_dropped";
      if congested then Rina_util.Metrics.incr t.metrics "congestion_dropped"
    end
    else begin
      if
        congested
        && hdr.Pdu.pdu_type = Pdu.Dtp
        && Rina_util.Prng.bernoulli t.mark_rng
             t.congestion.Policy.mark_probability
      then begin
        Pdu.mark_ecn_frame frame;
        Rina_util.Metrics.incr t.metrics "ecn_marked";
        flight_frame t frame (Flight.Custom "ecn_mark")
      end;
      flight_frame t frame Flight.Enqueued;
      Queue.push frame port.queues.(cls);
      let hwm = Rina_util.Metrics.value t.queue_hwm in
      if depth + 1 > hwm then
        Rina_util.Metrics.bump_by t.queue_hwm (depth + 1 - hwm);
      serve t port rate
    end

let deliver_up t from_port pdu =
  Rina_util.Metrics.bump t.delivered_up;
  flight_pdu t pdu Flight.Pdu_recvd;
  t.deliver from_port pdu

(* An unroutable PDU: let the IPC process refine the reason (all
   member paths Down vs. genuinely no route), then account it. *)
let drop_unroutable t pdu =
  let reason = t.drop_reason pdu in
  flight_pdu t pdu (Flight.Pdu_dropped reason);
  Rina_util.Metrics.incr t.metrics
    (if reason = Flight.R_path_down then "path_down_dropped" else "no_route")

(* Locally originated PDUs: route, then encode exactly once — the
   frame the destination verifies is the one built here.  Returns the
   egress port when the PDU was actually queued on one ([None] for
   local delivery and every drop) — EFCP tags outstanding PDUs with it
   so failover can re-stripe exactly the stranded ones.  Transit
   frames take [relay_frame] instead. *)
let send t pdu =
  let own = t.own_address () in
  if pdu.Pdu.dst_addr = own || pdu.Pdu.dst_addr = Types.no_address then begin
    deliver_up t None pdu;
    None
  end
  else if pdu.Pdu.ttl <= 1 then begin
    flight_pdu t pdu (Flight.Pdu_dropped Flight.R_ttl_expired);
    Rina_util.Metrics.incr t.metrics "ttl_expired";
    None
  end
  else begin
    let pdu = { pdu with Pdu.ttl = pdu.Pdu.ttl - 1 } in
    match t.forwarding pdu with
    | None ->
      drop_unroutable t pdu;
      None
    | Some port_id -> (
      match Hashtbl.find_opt t.ports port_id with
      | None ->
        drop_unroutable t pdu;
        None
      | Some port ->
        enqueue t port ~hdr:pdu (Pdu.encode_frame pdu);
        Some port_id)
  end

(* A transit frame: decrement the TTL byte and re-seal the trailer, in
   place.  No decode/encode round trip and no copy: the channel handed
   this frame to this receiver alone, and header and trailer bytes are
   the receiver's to rewrite. *)
let relay_frame t ~hdr frame =
  let hdr = { hdr with Pdu.ttl = hdr.Pdu.ttl - 1 } in
  let drop () =
    let reason = t.drop_reason hdr in
    flight_frame t frame (Flight.Pdu_dropped reason);
    Rina_util.Metrics.incr t.metrics
      (if reason = Flight.R_path_down then "path_down_dropped" else "no_route")
  in
  match t.forwarding hdr with
  | None -> drop ()
  | Some port_id -> (
    match Hashtbl.find_opt t.ports port_id with
    | None -> drop ()
    | Some port ->
      Rina_util.Metrics.bump t.relayed;
      Bytes.set_uint8 frame Pdu.ttl_offset hdr.Pdu.ttl;
      Sdu_protection.seal frame;
      enqueue t port ~hdr frame)

let on_frame t port_id frame =
  match Sdu_protection.verify_len frame with
  | None ->
    if Flight.on t.flight then
      Flight.emit_to t.flight
        ~component:(t.label ^ "@" ^ string_of_int (t.own_address ()))
        ~rank:t.rank ~size:(Bytes.length frame)
        (Flight.Pdu_dropped Flight.R_corrupt);
    Rina_util.Metrics.incr t.metrics "crc_dropped"
  | Some body_len -> (
    match Pdu.decode_header frame ~len:body_len with
    | Error _ ->
      if Flight.on t.flight then
        Flight.emit_to t.flight
          ~component:(t.label ^ "@" ^ string_of_int (t.own_address ()))
          ~rank:t.rank ~size:body_len
          (Flight.Pdu_dropped Flight.R_decode);
      Rina_util.Metrics.incr t.metrics "decode_dropped"
    | Ok hdr ->
      if not (t.ingress_filter port_id hdr) then begin
        flight_frame t frame (Flight.Pdu_dropped Flight.R_ingress_filter);
        Rina_util.Metrics.incr t.metrics "ingress_dropped"
      end
      else begin
        let own = t.own_address () in
        if hdr.Pdu.dst_addr = own || hdr.Pdu.dst_addr = Types.no_address then (
          (* Destination: the payload goes up as a view into the frame. *)
          match Pdu.decode_sub frame ~len:body_len with
          | Ok pdu -> deliver_up t (Some port_id) pdu
          | Error _ -> Rina_util.Metrics.incr t.metrics "decode_dropped")
        else if hdr.Pdu.ttl <= 1 then begin
          flight_frame t frame (Flight.Pdu_dropped Flight.R_ttl_expired);
          Rina_util.Metrics.incr t.metrics "ttl_expired"
        end
        else relay_frame t ~hdr frame
      end)

let add_port t ?rate chan =
  let id = t.next_port in
  t.next_port <- t.next_port + 1;
  let port =
    {
      id;
      chan;
      rate;
      queues = Array.init num_classes (fun _ -> Queue.create ());
      deficits = Array.make num_classes 0.;
      rr_class = 0;
      busy = false;
      sent_port =
        Rina_util.Metrics.counter t.metrics ("sent_port" ^ string_of_int id);
    }
  in
  Hashtbl.replace t.ports id port;
  chan.Rina_sim.Chan.set_receiver (fun frame -> on_frame t id frame);
  id

let remove_port t port_id =
  match Hashtbl.find_opt t.ports port_id with
  | None -> ()
  | Some port ->
    port.chan.Rina_sim.Chan.set_receiver (fun _ -> ());
    Hashtbl.remove t.ports port_id

let ports t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.ports [] |> List.sort compare

let send_on_port t port_id pdu =
  match Hashtbl.find_opt t.ports port_id with
  | None -> Rina_util.Metrics.incr t.metrics "no_route"
  | Some port -> enqueue t port ~hdr:pdu (Pdu.encode_frame pdu)

let queue_depth t port_id =
  match Hashtbl.find_opt t.ports port_id with
  | None -> 0
  | Some port -> Array.fold_left (fun acc q -> acc + Queue.length q) 0 port.queues
