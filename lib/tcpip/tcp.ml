module Metrics = Rina_util.Metrics
module Engine = Rina_sim.Engine

let mss = 1400

let max_window = 64

let init_rto = 0.5

let min_rto = 0.02

let max_rto = 8.0

let max_rtx = 8

type state = Closed | Syn_sent | Syn_rcvd | Established | Fin_wait

type unacked = { seg : Packet.Tcp.seg; mutable sent_at : float; mutable retries : int }

type conn = {
  stack : stack;
  laddr : Ip.addr;
  lport : int;
  raddr : Ip.addr;
  rport : int;
  metrics : Metrics.t;
  mutable st : state;
  mutable on_receive : bytes -> unit;
  mutable on_error : string -> unit;
  mutable on_close : unit -> unit;
  mutable on_established : (conn, string) result -> unit;
  (* sender *)
  mutable next_seq : int;
  mutable snd_una : int;
  mutable peer_window : int;
  mutable cwnd : float;
  mutable ssthresh : float;
  retx : (int, unacked) Hashtbl.t;
  backlog : bytes Queue.t;
  mutable rto : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable have_rtt : bool;
  mutable rto_timer : Engine.handle option;
  mutable dup_acks : int;
  mutable last_ack_seen : int;
  (* receiver *)
  mutable rcv_next : int;
  ooo : (int, Packet.Tcp.seg) Hashtbl.t;
  mutable fin_rcvd : bool;
}

and stack = {
  node : Node.t;
  flight : Rina_util.Flight.recorder;  (* the engine's *)
  conns : (int * Ip.addr * int, conn) Hashtbl.t;  (* (lport, raddr, rport) *)
  listeners : (int, conn -> unit) Hashtbl.t;
  mutable next_ephemeral : int;
  smetrics : Metrics.t;
}

let state c = c.st

let remote_endpoint c = (c.raddr, c.rport)

let set_on_receive c f = c.on_receive <- f

let set_on_error c f = c.on_error <- f

let set_on_close c f = c.on_close <- f

(* Flight-recorder emissions: the flow key is direction-independent
   ({!Ip.flow_key}) so both ends — and any future on-path observer —
   compute identical per-segment spans.  Only sequence-consuming
   segments (data, SYN, FIN) get a span; bare ACKs reuse seq 0 and
   would alias the SYN's span.  Each helper guards inside, so the
   disabled path allocates nothing. *)
module Flight = Rina_util.Flight

let[@inline] flight_seg c (seg : Packet.Tcp.seg) kind =
  let r = c.stack.flight in
  if Flight.on r then begin
    let flow =
      Ip.flow_key ~src:c.laddr ~dst:c.raddr ~sport:c.lport ~dport:c.rport
    in
    let consumes_seq =
      Bytes.length seg.Packet.Tcp.body > 0
      || seg.Packet.Tcp.flags.Packet.Tcp.syn
      || seg.Packet.Tcp.flags.Packet.Tcp.fin
    in
    Flight.emit_to r
      ~component:("tcp:" ^ Node.node_name c.stack.node)
      ~flow ~seq:seg.Packet.Tcp.seq
      ~size:(Bytes.length seg.Packet.Tcp.body)
      ~span:
        (if consumes_seq then Flight.span_of ~flow ~seq:seg.Packet.Tcp.seq
         else 0)
      kind
  end

let[@inline] flight_conn c kind =
  let r = c.stack.flight in
  if Flight.on r then
    Flight.emit_to r
      ~component:("tcp:" ^ Node.node_name c.stack.node)
      ~flow:(Ip.flow_key ~src:c.laddr ~dst:c.raddr ~sport:c.lport ~dport:c.rport)
      kind

let emit c (seg : Packet.Tcp.seg) =
  Metrics.incr c.metrics "segs_tx";
  flight_seg c seg Flight.Pdu_sent;
  Node.send_ip c.stack.node
    (Packet.make ~src:c.laddr ~dst:c.raddr ~proto:Packet.P_tcp
       (Packet.Tcp.encode seg))

let base_seg c =
  {
    Packet.Tcp.sport = c.lport;
    dport = c.rport;
    seq = 0;
    ack_seq = c.rcv_next;
    flags = Packet.Tcp.no_flags;
    window = max_window;
    body = Bytes.empty;
  }

let send_ack c = emit c { (base_seg c) with Packet.Tcp.flags = { Packet.Tcp.no_flags with ack = true } }

let cancel_timer = function Some h -> Engine.cancel h | None -> ()

let teardown stack c =
  Hashtbl.remove stack.conns (c.lport, c.raddr, c.rport);
  cancel_timer c.rto_timer;
  c.rto_timer <- None;
  c.st <- Closed

let fail c reason =
  if c.st <> Closed then begin
    Metrics.incr c.metrics "conn_errors";
    let was_opening = c.st = Syn_sent || c.st = Syn_rcvd in
    teardown c.stack c;
    if was_opening then c.on_established (Error reason) else c.on_error reason
  end

let in_flight c = c.next_seq - c.snd_una

let effective_window c =
  min (min max_window c.peer_window) (max 1 (int_of_float c.cwnd))

let rec arm_rto c =
  cancel_timer c.rto_timer;
  c.rto_timer <- None;
  if in_flight c > 0 && c.st <> Closed then begin
    flight_conn c Flight.Timer_set;
    c.rto_timer <-
      Some
        (Engine.schedule ~lane:Engine.Timer (Node.engine c.stack.node)
           ~delay:c.rto (fun () -> on_rto c))
  end

and on_rto c =
  if c.st = Closed then ()
  else begin
    flight_conn c Flight.Timer_fired;
    c.rto <- Float.min max_rto (2. *. c.rto);
    c.ssthresh <- Float.max 2. (c.cwnd /. 2.);
    c.cwnd <- 2.;
    retransmit c c.snd_una;
    arm_rto c
  end

and retransmit c seq =
  match Hashtbl.find_opt c.retx seq with
  | None -> ()
  | Some u ->
    if u.retries >= max_rtx then fail c "max retransmissions exceeded"
    else begin
      u.retries <- u.retries + 1;
      u.sent_at <- Engine.now (Node.engine c.stack.node);
      flight_seg c u.seg Flight.Retransmit;
      Metrics.incr c.metrics "segs_rtx";
      emit c { u.seg with Packet.Tcp.ack_seq = c.rcv_next }
    end

let transmit_seg c ?(flags = Packet.Tcp.no_flags) body =
  let seq = c.next_seq in
  c.next_seq <- c.next_seq + 1;
  let seg =
    {
      (base_seg c) with
      Packet.Tcp.seq;
      (* Everything carries an ACK except the very first SYN. *)
      flags = { flags with Packet.Tcp.ack = c.st <> Syn_sent };
      body;
    }
  in
  Hashtbl.replace c.retx seq
    { seg; sent_at = Engine.now (Node.engine c.stack.node); retries = 0 };
  emit c seg;
  if c.rto_timer = None then arm_rto c

let window_open c = in_flight c < effective_window c

let drain_backlog c =
  while
    c.st = Established && (not (Queue.is_empty c.backlog)) && window_open c
  do
    transmit_seg c (Queue.pop c.backlog)
  done

let send c data =
  if c.st = Closed then ()
  else begin
    (* Segment to the MSS; each piece consumes one sequence number. *)
    let len = Bytes.length data in
    let pieces = if len = 0 then 1 else (len + mss - 1) / mss in
    for i = 0 to pieces - 1 do
      let off = i * mss in
      let size = max 0 (min mss (len - off)) in
      Queue.push (Bytes.sub data off size) c.backlog
    done;
    drain_backlog c
  end

let rtt_sample c sample =
  if c.have_rtt then begin
    let err = sample -. c.srtt in
    c.srtt <- c.srtt +. (0.125 *. err);
    c.rttvar <- c.rttvar +. (0.25 *. (Float.abs err -. c.rttvar))
  end
  else begin
    c.srtt <- sample;
    c.rttvar <- sample /. 2.;
    c.have_rtt <- true
  end;
  c.rto <- Float.min max_rto (Float.max min_rto (c.srtt +. (4. *. c.rttvar)))

let handle_ack c (seg : Packet.Tcp.seg) =
  let ack = seg.Packet.Tcp.ack_seq in
  c.peer_window <- seg.Packet.Tcp.window;
  if ack > c.snd_una then begin
    let newly = ack - c.snd_una in
    c.dup_acks <- 0;
    (* Sample only on single-step in-order progression (see Efcp). *)
    (if ack = c.last_ack_seen + 1 then
       match Hashtbl.find_opt c.retx (ack - 1) with
       | Some u when u.retries = 0 ->
         rtt_sample c (Engine.now (Node.engine c.stack.node) -. u.sent_at)
       | Some _ | None -> ());
    for s = c.snd_una to ack - 1 do
      Hashtbl.remove c.retx s
    done;
    c.snd_una <- ack;
    let per_ack = if c.cwnd < c.ssthresh then 1.0 else 1.0 /. Float.max 1. c.cwnd in
    c.cwnd <- Float.min (float_of_int max_window) (c.cwnd +. (per_ack *. float_of_int newly));
    if c.have_rtt then c.rto <- Float.max min_rto (c.srtt +. (4. *. c.rttvar))
    else c.rto <- init_rto;
    arm_rto c;
    drain_backlog c
  end
  else if ack = c.last_ack_seen && in_flight c > 0 then begin
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then begin
      Metrics.incr c.metrics "fast_rtx";
      c.ssthresh <- Float.max 2. (c.cwnd /. 2.);
      c.cwnd <- c.ssthresh;
      retransmit c c.snd_una;
      c.dup_acks <- 0
    end
  end;
  c.last_ack_seen <- max c.last_ack_seen ack

let deliver_in_order c =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt c.ooo c.rcv_next with
    | Some seg ->
      Hashtbl.remove c.ooo c.rcv_next;
      c.rcv_next <- c.rcv_next + 1;
      if seg.Packet.Tcp.flags.Packet.Tcp.fin then begin
        c.fin_rcvd <- true;
        continue := false
      end
      else begin
        flight_seg c seg Flight.Pdu_recvd;
        Metrics.incr c.metrics "delivered";
        c.on_receive seg.Packet.Tcp.body
      end
    | None -> continue := false
  done

let handle_data c (seg : Packet.Tcp.seg) =
  if seg.Packet.Tcp.seq < c.rcv_next || Hashtbl.mem c.ooo seg.Packet.Tcp.seq then begin
    flight_seg c seg (Flight.Pdu_dropped Flight.R_duplicate);
    Metrics.incr c.metrics "dup_rcvd";
    send_ack c
  end
  else begin
    Hashtbl.replace c.ooo seg.Packet.Tcp.seq seg;
    deliver_in_order c;
    send_ack c;
    if c.fin_rcvd && c.st = Established then begin
      (* Passive close: acknowledge, send our FIN, drop state. *)
      c.st <- Fin_wait;
      transmit_seg c ~flags:{ Packet.Tcp.no_flags with fin = true } Bytes.empty;
      let stack = c.stack in
      ignore
        (Engine.schedule (Node.engine stack.node) ~delay:1.0 (fun () ->
             teardown stack c;
             c.on_close ()))
    end
  end

let handle_segment_established c (seg : Packet.Tcp.seg) =
  if seg.Packet.Tcp.flags.Packet.Tcp.rst then fail c "connection reset"
  else begin
    if seg.Packet.Tcp.flags.Packet.Tcp.ack then handle_ack c seg;
    if Bytes.length seg.Packet.Tcp.body > 0 || seg.Packet.Tcp.flags.Packet.Tcp.fin
    then handle_data c seg
  end

let make_conn stack ~laddr ~lport ~raddr ~rport ~st =
  {
    stack;
    laddr;
    lport;
    raddr;
    rport;
    metrics = Metrics.create ();
    st;
    on_receive = (fun _ -> ());
    on_error = (fun _ -> ());
    on_close = (fun () -> ());
    on_established = (fun _ -> ());
    next_seq = 0;
    snd_una = 0;
    peer_window = max_window;
    cwnd = 2.;
    ssthresh = float_of_int max_window;
    retx = Hashtbl.create 32;
    backlog = Queue.create ();
    rto = init_rto;
    srtt = 0.;
    rttvar = 0.;
    have_rtt = false;
    rto_timer = None;
    dup_acks = 0;
    last_ack_seen = 0;
    rcv_next = 0;
    ooo = Hashtbl.create 32;
    fin_rcvd = false;
  }

let send_rst stack ~src ~dst (seg : Packet.Tcp.seg) =
  Metrics.incr stack.smetrics "rst_tx";
  Node.send_ip stack.node
    (Packet.make ~src ~dst ~proto:Packet.P_tcp
       (Packet.Tcp.encode
          {
            Packet.Tcp.sport = seg.Packet.Tcp.dport;
            dport = seg.Packet.Tcp.sport;
            seq = 0;
            ack_seq = seg.Packet.Tcp.seq + 1;
            flags = { Packet.Tcp.no_flags with rst = true; ack = true };
            window = 0;
            body = Bytes.empty;
          }))

let handle_syn stack pkt (seg : Packet.Tcp.seg) =
  match Hashtbl.find_opt stack.listeners seg.Packet.Tcp.dport with
  | None -> send_rst stack ~src:pkt.Packet.dst ~dst:pkt.Packet.src seg
  | Some on_accept ->
    let c =
      make_conn stack ~laddr:pkt.Packet.dst ~lport:seg.Packet.Tcp.dport
        ~raddr:pkt.Packet.src ~rport:seg.Packet.Tcp.sport ~st:Syn_rcvd
    in
    c.rcv_next <- seg.Packet.Tcp.seq + 1;
    Hashtbl.replace stack.conns (c.lport, c.raddr, c.rport) c;
    Metrics.incr stack.smetrics "accepts";
    (* SYN+ACK consumes sequence number 0. *)
    transmit_seg c ~flags:{ Packet.Tcp.no_flags with syn = true; ack = true }
      Bytes.empty;
    c.on_established <-
      (function Ok conn -> on_accept conn | Error _ -> ())

let handle_segment stack pkt (seg : Packet.Tcp.seg) =
  let key = (seg.Packet.Tcp.dport, pkt.Packet.src, seg.Packet.Tcp.sport) in
  match Hashtbl.find_opt stack.conns key with
  | Some c -> (
    match c.st with
    | Syn_sent ->
      if seg.Packet.Tcp.flags.Packet.Tcp.rst then fail c "connection refused"
      else if seg.Packet.Tcp.flags.Packet.Tcp.syn then begin
        c.rcv_next <- seg.Packet.Tcp.seq + 1;
        handle_ack c seg;
        c.st <- Established;
        send_ack c;
        Metrics.incr stack.smetrics "established";
        c.on_established (Ok c);
        drain_backlog c
      end
    | Syn_rcvd ->
      if seg.Packet.Tcp.flags.Packet.Tcp.rst then fail c "connection reset"
      else begin
        if seg.Packet.Tcp.flags.Packet.Tcp.ack then handle_ack c seg;
        if c.snd_una >= 1 then begin
          c.st <- Established;
          Metrics.incr stack.smetrics "established";
          c.on_established (Ok c)
        end;
        if Bytes.length seg.Packet.Tcp.body > 0 then handle_data c seg
      end
    | Established | Fin_wait -> handle_segment_established c seg
    | Closed -> ())
  | None ->
    if seg.Packet.Tcp.flags.Packet.Tcp.syn && not seg.Packet.Tcp.flags.Packet.Tcp.ack
    then handle_syn stack pkt seg
    else if not seg.Packet.Tcp.flags.Packet.Tcp.rst then
      send_rst stack ~src:pkt.Packet.dst ~dst:pkt.Packet.src seg

let attach node =
  let stack =
    {
      node;
      flight = Engine.flight (Node.engine node);
      conns = Hashtbl.create 16;
      listeners = Hashtbl.create 8;
      next_ephemeral = 49152;
      smetrics = Metrics.create ();
    }
  in
  Node.set_proto_handler node Packet.P_tcp (fun pkt ~in_if:_ ->
      match Packet.Tcp.decode pkt.Packet.payload with
      | Error _ -> Metrics.incr stack.smetrics "bad_segment"
      | Ok seg -> handle_segment stack pkt seg);
  stack

let listen stack ~port ~on_accept = Hashtbl.replace stack.listeners port on_accept

let unlisten stack ~port = Hashtbl.remove stack.listeners port

let connect stack ~src ~dst ~dport ~on_result =
  let sport = stack.next_ephemeral in
  stack.next_ephemeral <- stack.next_ephemeral + 1;
  let c = make_conn stack ~laddr:src ~lport:sport ~raddr:dst ~rport:dport ~st:Syn_sent in
  Hashtbl.replace stack.conns (sport, dst, dport) c;
  c.on_established <- on_result;
  Metrics.incr stack.smetrics "connects";
  (* SYN consumes sequence number 0. *)
  transmit_seg c ~flags:{ Packet.Tcp.no_flags with syn = true } Bytes.empty

let close c =
  match c.st with
  | Established ->
    c.st <- Fin_wait;
    transmit_seg c ~flags:{ Packet.Tcp.no_flags with fin = true } Bytes.empty;
    let stack = c.stack in
    ignore
      (Engine.schedule (Node.engine stack.node) ~delay:2.0 (fun () ->
           teardown stack c;
           c.on_close ()))
  | Syn_sent | Syn_rcvd | Fin_wait | Closed -> teardown c.stack c
