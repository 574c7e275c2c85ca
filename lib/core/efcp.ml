type unacked = {
  payload : Pdu.view;  (* the user-data field, in the buffer it was sent from *)
  mutable sent_at : float;
  mutable retries : int;
  mutable sacked : bool;
      (* selectively acknowledged: held by the receiver's reorder
         buffer, so retransmitting it would only waste the channel *)
  mutable path : int;
      (* egress port the last copy rode (0 = unknown): lets failover
         re-stripe exactly the PDUs stranded on a dead path *)
}

type t = {
  engine : Rina_sim.Engine.t;
  config : Policy.efcp;
  in_order : bool;
  local_cep : Types.cep_id;
  remote_cep : Types.cep_id;
  qos_id : Types.qos_id;
  rank : int;  (* DIF rank, for flight-recorder events *)
  tx_span_key : int;  (* flow key of PDUs we send (remote end) *)
  rx_span_key : int;  (* flow key of PDUs we receive (this end) *)
  dtp_header : Pdu.t;  (* this connection's DTP fields, payload empty *)
  send_pdu : Pdu.t -> int;
      (* returns the egress port id the PDU was striped onto, 0 when
         the caller does not track paths *)
  deliver : Pdu.view -> unit;
  on_error : string -> unit;
  metrics : Rina_util.Metrics.t;
  (* handles for the counters bumped per PDU *)
  pdus_sent : Rina_util.Metrics.counter;
  acks_sent : Rina_util.Metrics.counter;
  acks_rcvd : Rina_util.Metrics.counter;
  delivered : Rina_util.Metrics.counter;
  backlog_hwm : Rina_util.Metrics.counter;
  (* --- sender --- *)
  mutable next_seq : int;        (* next sequence number to assign *)
  mutable snd_una : int;         (* lowest unacknowledged sequence *)
  mutable send_limit : int;      (* may send seq < send_limit (peer credit) *)
  retx : (int, unacked) Hashtbl.t;
  backlog : Pdu.view Queue.t;
  mutable rto : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable have_rtt : bool;
  mutable rto_timer : Rina_sim.Engine.handle option;
  mutable dup_acks : int;
  mutable last_ack_seen : int;
  mutable cwnd : float;     (* AIMD congestion window, in PDUs *)
  mutable ssthresh : float;
  mutable recover_until : int;  (* NewReno: one fast rtx per window *)
  (* --- ECN congestion response (distinct from loss recovery) --- *)
  ecn_frac : Rina_util.Ewma.t;
      (* DCTCP-style smoothed fraction of acks carrying the congestion
         echo; scales how hard each back-off cuts the window *)
  mutable ecn_reduce_until : int;
      (* one window reduction per round trip of data, mirroring
         [recover_until] — without touching it, so an ECN back-off
         never masks or resets a concurrent loss-recovery episode *)
  mutable pace : Rina_util.Token_bucket.t option;
      (* departure pacer installed while the path is marking: drains
         sends at roughly cwnd/srtt so a reopened window does not slam
         the congested queue with a burst *)
  mutable pace_timer : Rina_sim.Engine.handle option;
  (* --- receiver --- *)
  mutable rcv_next : int;
  ooo : (int, Pdu.view) Hashtbl.t;
  mutable highest_delivered : int;  (* for unreliable in-order flows *)
  mutable ack_timer : Rina_sim.Engine.handle option;
  mutable ecn_pending : bool;  (* echo the congestion mark on the next ack *)
  (* duplicate-suppression cache for unreliable unordered flows: a ring
     of the last [max_dup_cache] delivered seqs (0 = empty slot) with a
     hashtable for O(1) membership.  Reliable / in-order flows are
     already exactly-once via rcv_next / highest_delivered. *)
  dup_cache : (int, unit) Hashtbl.t;
  dup_ring : int array;
  mutable dup_ring_pos : int;
  (* sanitizer shadow state for the exactly-once invariants; only
     populated while the engine's checks are enabled *)
  san_delivered : (int, unit) Hashtbl.t;
  mutable san_last_seq : int;
  mutable closed : bool;
  mutable errored : bool;
}

let create engine ~config ~in_order ~local_cep ~remote_cep ~qos_id ?span_keys
    ?(rank = 0) ~send_pdu ~deliver ~on_error () =
  let tx_span_key, rx_span_key =
    match span_keys with Some keys -> keys | None -> (remote_cep, local_cep)
  in
  let metrics = Rina_util.Metrics.create () in
  let counter = Rina_util.Metrics.counter metrics in
  {
    engine;
    config;
    in_order;
    local_cep;
    remote_cep;
    qos_id;
    rank;
    tx_span_key;
    rx_span_key;
    dtp_header =
      Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:Types.no_address
        ~src_addr:Types.no_address ~dst_cep:remote_cep ~src_cep:local_cep ~qos_id
        Bytes.empty;
    send_pdu;
    deliver;
    on_error;
    metrics;
    pdus_sent = counter "pdus_sent";
    acks_sent = counter "acks_sent";
    acks_rcvd = counter "acks_rcvd";
    delivered = counter "delivered";
    backlog_hwm = counter "backlog_hwm";
    next_seq = 1;
    snd_una = 1;
    send_limit = 1 + config.Policy.window;
    retx = Hashtbl.create 64;
    backlog = Queue.create ();
    rto = config.Policy.init_rto;
    srtt = 0.;
    rttvar = 0.;
    have_rtt = false;
    rto_timer = None;
    dup_acks = 0;
    last_ack_seen = 0;
    cwnd = 2.;
    ssthresh = float_of_int config.Policy.window;
    recover_until = 0;
    ecn_frac = Rina_util.Ewma.create ~alpha:0.0625;
    ecn_reduce_until = 0;
    pace = None;
    pace_timer = None;
    rcv_next = 1;
    ooo = Hashtbl.create 64;
    highest_delivered = 0;
    ack_timer = None;
    ecn_pending = false;
    dup_cache = Hashtbl.create (max 1 (min 64 config.Policy.max_dup_cache));
    dup_ring = Array.make (max 1 config.Policy.max_dup_cache) 0;
    dup_ring_pos = 0;
    san_delivered = Hashtbl.create 16;
    san_last_seq = 0;
    closed = false;
    errored = false;
  }

let metrics t = t.metrics

(* Flight-recorder emissions; each helper fetches the engine's recorder
   once and guards inside, so the disabled path allocates nothing.  The
   recorder stays in the engine rather than in this record, which is
   made once per flow. *)
module Flight = Rina_util.Flight

let[@inline] flight_tx t seq size kind =
  let r = Rina_sim.Engine.flight t.engine in
  if Flight.on r then
    Flight.emit_to r ~component:"efcp" ~flow:t.local_cep ~rank:t.rank ~seq
      ~size
      ~span:(Flight.span_of ~flow:t.tx_span_key ~seq)
      kind

let[@inline] flight_rx t seq size kind =
  let r = Rina_sim.Engine.flight t.engine in
  if Flight.on r then
    Flight.emit_to r ~component:"efcp" ~flow:t.local_cep ~rank:t.rank ~seq
      ~size
      ~span:(Flight.span_of ~flow:t.rx_span_key ~seq)
      kind

let in_flight t = t.next_seq - t.snd_una

let backlog t = Queue.length t.backlog

let srtt t = if t.have_rtt then Some t.srtt else None

let reliable t =
  match t.config.Policy.rtx_strategy with
  | Policy.Selective_repeat | Policy.Go_back_n -> true
  | Policy.No_rtx -> false

let max_rto = 8.0

let cancel_timer handle_ref =
  match handle_ref with Some h -> Rina_sim.Engine.cancel h | None -> ()

let fail t reason =
  if not t.errored then begin
    t.errored <- true;
    Rina_util.Metrics.incr t.metrics "flow_errors";
    t.on_error reason
  end

let dtp_pdu t seq payload =
  let flags = if seq = 1 then Pdu.flag_drf else 0 in
  { t.dtp_header with Pdu.seq; flags; payload }

(* Forward declaration pattern for the timer/transmit recursion. *)
let rec arm_rto_timer t =
  cancel_timer t.rto_timer;
  t.rto_timer <- None;
  if reliable t && in_flight t > 0 && not t.closed then begin
    (let r = Rina_sim.Engine.flight t.engine in
     if Flight.on r then
       Flight.emit_to r ~component:"efcp" ~flow:t.local_cep ~rank:t.rank
         Flight.Timer_set);
    t.rto_timer <-
      Some
        (Rina_sim.Engine.schedule ~lane:Rina_sim.Engine.Timer t.engine
           ~delay:t.rto (fun () -> on_rto t))
  end

and on_rto t =
  if t.closed || t.errored then ()
  else begin
    Rina_util.Metrics.incr t.metrics "rto_fired";
    (let r = Rina_sim.Engine.flight t.engine in
     if Flight.on r then
       Flight.emit_to r ~component:"efcp" ~flow:t.local_cep ~rank:t.rank
         Flight.Timer_fired);
    t.rto <- Float.min max_rto (2. *. t.rto);
    if t.config.Policy.congestion_control then begin
      t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
      t.cwnd <- 2.
    end;
    (match t.config.Policy.rtx_strategy with
     | Policy.Selective_repeat ->
       (* Everything outstanding is suspect: enter recovery so each
          partial ack repairs the next hole immediately instead of
          waiting out a full RTO per lost PDU. *)
       t.recover_until <- t.next_seq;
       retransmit_seq t t.snd_una
     | Policy.Go_back_n ->
       (* Resend the whole outstanding window, lowest first. *)
       for seq = t.snd_una to t.next_seq - 1 do
         retransmit_seq t seq
       done
     | Policy.No_rtx -> ());
    arm_rto_timer t
  end

and retransmit_seq t seq =
  match Hashtbl.find_opt t.retx seq with
  | None -> ()
  | Some u ->
    if u.retries >= t.config.Policy.max_rtx then
      fail t (Printf.sprintf "seq %d exceeded %d retransmissions" seq u.retries)
    else begin
      u.retries <- u.retries + 1;
      u.sent_at <- Rina_sim.Engine.now t.engine;
      Rina_util.Metrics.incr t.metrics "pdus_rtx";
      flight_tx t seq u.payload.Pdu.len Flight.Retransmit;
      u.path <- t.send_pdu (dtp_pdu t seq u.payload)
    end

let transmit t payload =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  if reliable t then
    Hashtbl.replace t.retx seq
      { payload; sent_at = Rina_sim.Engine.now t.engine; retries = 0;
        sacked = false; path = 0 };
  Rina_util.Metrics.bump t.pdus_sent;
  flight_tx t seq payload.Pdu.len Flight.Pdu_sent;
  let path = t.send_pdu (dtp_pdu t seq payload) in
  (match Hashtbl.find_opt t.retx seq with
  | Some u -> u.path <- path
  | None -> ());
  if t.rto_timer = None then arm_rto_timer t

(* Unreliable flows carry no acknowledgements, so credit never refills;
   they are simply not flow-controlled. *)
let effective_window t =
  let w = t.config.Policy.window in
  if t.config.Policy.congestion_control then
    min w (max 1 (int_of_float t.cwnd))
  else w

let window_open t =
  (not (reliable t))
  || (t.next_seq < t.send_limit && in_flight t < effective_window t)

(* Departure pacing while the path is marking: [pace_ok] consumes one
   send credit (so call it only when the caller will transmit on
   [true]); on [false] it arms a wake-up for the moment the bucket
   refills, which keeps the backlog draining even with no acks in
   flight to clock it. *)
let rec pace_ok t =
  match t.pace with
  | None -> true
  | Some b ->
    let now = Rina_sim.Engine.now t.engine in
    if Rina_util.Token_bucket.try_take b ~now 1. then true
    else begin
      arm_pace_timer t b now;
      false
    end

and arm_pace_timer t b now =
  if t.pace_timer = None && not t.closed then
    t.pace_timer <-
      Some
        (Rina_sim.Engine.schedule ~lane:Rina_sim.Engine.Timer t.engine
           ~delay:(Float.max 1e-4 (Rina_util.Token_bucket.delay_until b ~now 1.))
           (fun () ->
             t.pace_timer <- None;
             if not (t.closed || t.errored) then drain_backlog t))

and drain_backlog t =
  let continue = ref true in
  while !continue do
    if Queue.is_empty t.backlog || t.errored || not (window_open t) then
      continue := false
    else if pace_ok t then transmit t (Queue.pop t.backlog)
    else continue := false
  done

let send t payload =
  if t.closed || t.errored then ()
  else if Queue.is_empty t.backlog && window_open t && pace_ok t then
    transmit t payload
  else begin
    Queue.push payload t.backlog;
    let hwm = Rina_util.Metrics.value t.backlog_hwm in
    if Queue.length t.backlog > hwm then
      Rina_util.Metrics.bump_by t.backlog_hwm (Queue.length t.backlog - hwm)
  end

(* --- receiver side --- *)

let recv_credit t =
  let used = Hashtbl.length t.ooo in
  max 1 (t.config.Policy.window - used)

(* Selective-ack blocks: the reorder buffer's contents, coalesced into
   at most [sack_blocks] [start, stop) ranges (lowest first — those are
   the holes the sender should repair soonest) and carried in the Ack
   PDU's otherwise-empty payload.  With [sack_blocks = 0] the payload
   stays empty, which is the pre-adversarial wire format. *)
let sack_payload t =
  if t.config.Policy.sack_blocks = 0 || Hashtbl.length t.ooo = 0 then
    Bytes.empty
  else begin
    let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.ooo [] in
    let seqs = List.sort compare seqs in
    let blocks =
      List.fold_left
        (fun acc seq ->
          match acc with
          | (start, stop) :: rest when seq = stop -> (start, stop + 1) :: rest
          | _ -> (seq, seq + 1) :: acc)
        [] seqs
    in
    let blocks = List.rev blocks in
    let blocks =
      List.filteri (fun i _ -> i < t.config.Policy.sack_blocks) blocks
    in
    let module W = Rina_util.Codec.Writer in
    let w = W.create () in
    W.u8 w (List.length blocks);
    List.iter
      (fun (start, stop) ->
        W.u32 w start;
        W.u32 w stop)
      blocks;
    W.contents w
  end

let send_ack_now t =
  cancel_timer t.ack_timer;
  t.ack_timer <- None;
  Rina_util.Metrics.bump t.acks_sent;
  (* Echo a received congestion mark exactly once: the sender's
     smoothed mark fraction then measures marked *acks*, the same
     quantity the marking queue produced. *)
  let flags = if t.ecn_pending then Pdu.flag_ecn else 0 in
  t.ecn_pending <- false;
  ignore
    (t.send_pdu
       (Pdu.make ~pdu_type:Pdu.Ack ~dst_addr:Types.no_address
          ~src_addr:Types.no_address ~dst_cep:t.remote_cep ~src_cep:t.local_cep
          ~qos_id:t.qos_id ~ack:t.rcv_next ~window:(recv_credit t) ~flags
          (sack_payload t))
      : int)

let schedule_ack t =
  if t.config.Policy.ack_delay <= 0. then send_ack_now t
  else
    match t.ack_timer with
    | Some _ -> ()
    | None ->
      t.ack_timer <-
        Some
          (Rina_sim.Engine.schedule ~lane:Rina_sim.Engine.Timer t.engine
             ~delay:t.config.Policy.ack_delay
             (fun () ->
               t.ack_timer <- None;
               if not t.closed then send_ack_now t))

(* Sanitizer: the exactly-once-delivery contract, checked at every
   point an SDU crosses into the application.  A seq handed up twice is
   SAN_dup_delivery; a seq handed up below an earlier one on an ordered
   flow is SAN_seq_regression.  Shadow state is only maintained while
   the sanitizer is enabled, so the production path pays one load and a
   branch. *)
let[@inline] san_delivery t seq =
  let c = Rina_sim.Engine.checks t.engine in
  if Rina_util.Invariant.enabled c then begin
    if Hashtbl.mem t.san_delivered seq then
      Rina_util.Invariant.record c ~code:"SAN_dup_delivery"
        (Printf.sprintf "cep %d: SDU seq %d delivered twice" t.local_cep seq)
    else Hashtbl.replace t.san_delivered seq ();
    if (reliable t || t.in_order) && seq < t.san_last_seq then
      Rina_util.Invariant.record c ~code:"SAN_seq_regression"
        (Printf.sprintf "cep %d: SDU seq %d delivered after seq %d" t.local_cep
           seq t.san_last_seq);
    if seq > t.san_last_seq then t.san_last_seq <- seq
  end

let deliver_in_sequence t =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.ooo t.rcv_next with
    | Some payload ->
      let seq = t.rcv_next in
      Hashtbl.remove t.ooo seq;
      t.rcv_next <- t.rcv_next + 1;
      Rina_util.Metrics.bump t.delivered;
      flight_rx t seq payload.Pdu.len Flight.Pdu_recvd;
      san_delivery t seq;
      t.deliver payload
    | None -> continue := false
  done

(* Duplicate suppression for unreliable unordered flows: remember the
   last [max_dup_cache] delivered seqs in a ring + membership table.
   Returns [true] when [seq] was already delivered. *)
let dup_cache_hit t seq =
  t.config.Policy.max_dup_cache > 0
  &&
  if Hashtbl.mem t.dup_cache seq then true
  else begin
    let evicted = t.dup_ring.(t.dup_ring_pos) in
    if evicted <> 0 then Hashtbl.remove t.dup_cache evicted;
    t.dup_ring.(t.dup_ring_pos) <- seq;
    t.dup_ring_pos <- (t.dup_ring_pos + 1) mod Array.length t.dup_ring;
    Hashtbl.replace t.dup_cache seq ();
    false
  end

let handle_dtp t (pdu : Pdu.t) =
  if Pdu.has_flag pdu Pdu.flag_ecn then begin
    Rina_util.Metrics.incr t.metrics "ecn_rcvd";
    t.ecn_pending <- true
  end;
  if reliable t then begin
    if pdu.Pdu.seq < t.rcv_next || Hashtbl.mem t.ooo pdu.Pdu.seq then begin
      Rina_util.Metrics.incr t.metrics "dup_rcvd";
      flight_rx t pdu.Pdu.seq
        pdu.Pdu.payload.Pdu.len
        (Flight.Pdu_dropped Flight.R_dup)
    end
    else if pdu.Pdu.seq = t.rcv_next then begin
      t.rcv_next <- t.rcv_next + 1;
      Rina_util.Metrics.bump t.delivered;
      flight_rx t pdu.Pdu.seq pdu.Pdu.payload.Pdu.len Flight.Pdu_recvd;
      san_delivery t pdu.Pdu.seq;
      t.deliver pdu.Pdu.payload;
      deliver_in_sequence t
    end
    else begin
      (* Out of order. *)
      match t.config.Policy.rtx_strategy with
      | Policy.Selective_repeat ->
        if Hashtbl.length t.ooo < t.config.Policy.reorder_window then begin
          Hashtbl.replace t.ooo pdu.Pdu.seq pdu.Pdu.payload;
          Rina_util.Metrics.incr t.metrics "ooo_buffered"
        end
        else begin
          (* Reorder buffer full: shed the arrival; retransmission will
             repair it once the buffer drains. *)
          Rina_util.Metrics.incr t.metrics "ooo_overflow";
          flight_rx t pdu.Pdu.seq
            pdu.Pdu.payload.Pdu.len
            (Flight.Pdu_dropped Flight.R_reorder_overflow)
        end
      | Policy.Go_back_n | Policy.No_rtx ->
        Rina_util.Metrics.incr t.metrics "gbn_discards";
        flight_rx t pdu.Pdu.seq
          pdu.Pdu.payload.Pdu.len
          (Flight.Pdu_dropped (Flight.R_other "gbn_discard"))
    end;
    (* Out-of-order arrivals trigger an immediate (duplicate) ack so the
       sender's fast-retransmit logic can fire. *)
    if pdu.Pdu.seq <> t.rcv_next - 1 then send_ack_now t else schedule_ack t
  end
  else begin
    (* Unreliable: deliver subject only to the ordering constraint. *)
    if t.in_order && pdu.Pdu.seq <= t.highest_delivered then begin
      Rina_util.Metrics.incr t.metrics "stale_dropped";
      flight_rx t pdu.Pdu.seq
        pdu.Pdu.payload.Pdu.len
        (Flight.Pdu_dropped Flight.R_stale)
    end
    else if (not t.in_order) && dup_cache_hit t pdu.Pdu.seq then begin
      (* A duplicated channel replays the same datagram; the cache is
         the only dedup an unordered unreliable flow has. *)
      Rina_util.Metrics.incr t.metrics "dup_suppressed";
      flight_rx t pdu.Pdu.seq
        pdu.Pdu.payload.Pdu.len
        (Flight.Pdu_dropped Flight.R_dup)
    end
    else begin
      t.highest_delivered <- max t.highest_delivered pdu.Pdu.seq;
      Rina_util.Metrics.bump t.delivered;
      flight_rx t pdu.Pdu.seq pdu.Pdu.payload.Pdu.len Flight.Pdu_recvd;
      san_delivery t pdu.Pdu.seq;
      t.deliver pdu.Pdu.payload
    end
  end

let rtt_sample t sample =
  if t.have_rtt then begin
    (* Jacobson/Karels. *)
    let err = sample -. t.srtt in
    t.srtt <- t.srtt +. (0.125 *. err);
    t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar))
  end
  else begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.;
    t.have_rtt <- true
  end;
  t.rto <-
    Float.min max_rto
      (Float.max t.config.Policy.min_rto (t.srtt +. (4. *. t.rttvar)))

(* Decode the Ack payload's sack blocks (if any) and mark the covered
   retransmission entries: the receiver already holds them, so neither
   fast retransmit nor a Go-Back-N sweep should resend them.  Sack
   information is monotone truth (the reorder buffer only empties by
   delivering), so marks from stale acks are still correct. *)
let apply_sack t (pdu : Pdu.t) =
  if t.config.Policy.sack_blocks > 0 && pdu.Pdu.payload.Pdu.len > 0 then begin
    let module R = Rina_util.Codec.Reader in
    match
      (let r = R.create (Pdu.bytes_of_view pdu.Pdu.payload) in
       let n = R.u8 r in
       let blocks = List.init n (fun _ ->
           let start = R.u32 r in
           let stop = R.u32 r in
           (start, stop))
       in
       R.expect_end r;
       blocks)
    with
    | blocks ->
      let highest = ref 0 in
      List.iter
        (fun (start, stop) ->
          if stop > !highest then highest := stop;
          for seq = start to stop - 1 do
            match Hashtbl.find_opt t.retx seq with
            | Some u -> u.sacked <- true
            | None -> ()
          done)
        blocks;
      !highest
    | exception R.Decode_error _ ->
      Rina_util.Metrics.incr t.metrics "sack_decode_errors";
      0
  end
  else 0

(* Repair every unsacked hole below the highest sacked seq, oldest
   first — the sack-driven generalisation of retransmit-snd_una. *)
let retransmit_holes t highest_sacked =
  for seq = t.snd_una to highest_sacked - 1 do
    match Hashtbl.find_opt t.retx seq with
    | Some u when not u.sacked -> retransmit_seq t seq
    | Some _ | None -> ()
  done

let handle_ack t (pdu : Pdu.t) =
  Rina_util.Metrics.bump t.acks_rcvd;
  let ack = pdu.Pdu.ack in
  (* ECN congestion response, before cumulative-ack processing so the
     reduced window governs how far this very ack reopens the gate.
     Deliberately separate from loss recovery: it neither retransmits
     nor touches [recover_until]/[dup_acks], and it cuts the window in
     proportion to the smoothed mark fraction (DCTCP-style) instead of
     halving — marks are an early signal, not evidence of loss. *)
  let marked = Pdu.has_flag pdu Pdu.flag_ecn in
  if marked then Rina_util.Metrics.incr t.metrics "ecn_echoes";
  if t.config.Policy.congestion_control && reliable t then begin
    Rina_util.Ewma.add t.ecn_frac (if marked then 1. else 0.);
    if marked && ack >= t.ecn_reduce_until then begin
      (* at most one reduction per window of data, like NewReno's
         recovery point, so a train of marked acks from one congested
         round trip costs one cut, not cwnd cuts *)
      Rina_util.Metrics.incr t.metrics "ecn_backoffs";
      let frac = Float.min 1. (Float.max 0. (Rina_util.Ewma.value t.ecn_frac)) in
      t.cwnd <- Float.max 2. (t.cwnd *. (1. -. (frac /. 2.)));
      t.ssthresh <- Float.max 2. t.cwnd;
      t.ecn_reduce_until <- t.next_seq;
      if t.have_rtt && t.srtt > 0. then
        t.pace <-
          Some
            (Rina_util.Token_bucket.create
               ~rate:(Float.max 1. (t.cwnd /. t.srtt))
               ~burst:2.)
    end
    else if
      (not marked) && t.pace <> None
      && Rina_util.Ewma.value t.ecn_frac < 0.05
    then begin
      (* the path stopped marking a while ago: stop pacing and return
         to pure window clocking *)
      t.pace <- None;
      cancel_timer t.pace_timer;
      t.pace_timer <- None
    end
  end;
  let highest_sacked = apply_sack t pdu in
  if ack > t.snd_una then begin
    t.dup_acks <- 0;
    let newly_acked = ack - t.snd_una in
    (* RTT sample from the newest PDU this ack covers — but only on a
       single-step in-order advance, and never from a retransmitted
       PDU (Karn).  An ack that jumps a repaired gap would credit the
       whole repair stall to the path RTT. *)
    (if ack = t.last_ack_seen + 1 then
       match Hashtbl.find_opt t.retx (ack - 1) with
       | Some u when u.retries = 0 ->
         rtt_sample t (Rina_sim.Engine.now t.engine -. u.sent_at)
       | Some _ | None -> ());
    for seq = t.snd_una to ack - 1 do
      Hashtbl.remove t.retx seq
    done;
    t.snd_una <- ack;
    if t.config.Policy.congestion_control then begin
      (* Slow start below ssthresh, additive increase above. *)
      let per_ack =
        if t.cwnd < t.ssthresh then 1.0 else 1.0 /. Float.max 1. t.cwnd
      in
      t.cwnd <-
        Float.min
          (float_of_int t.config.Policy.window)
          (t.cwnd +. (per_ack *. float_of_int newly_acked))
    end;
    (* Progress: shed any RTO backoff so one loss burst does not tax
       the rest of the transfer.  Capped like the backoff path — a
       lower layer repairing its own outage can feed this flow a
       multi-second RTT sample, and an uncapped estimate would leave
       the next real loss undetected for tens of seconds. *)
    if t.have_rtt then
      t.rto <-
        Float.min max_rto
          (Float.max t.config.Policy.min_rto (t.srtt +. (4. *. t.rttvar)))
    else t.rto <- t.config.Policy.init_rto;
    (* NewReno partial ack: still inside a recovery episode, so the
       ack's predecessor was repaired but the next hole is already
       known lost — retransmit it now rather than after another RTO. *)
    if
      ack < t.recover_until
      && in_flight t > 0
      && t.config.Policy.rtx_strategy = Policy.Selective_repeat
    then retransmit_seq t t.snd_una;
    arm_rto_timer t
  end
  else if ack = t.last_ack_seen && in_flight t > 0 then begin
    t.dup_acks <- t.dup_acks + 1;
    (* One fast retransmit per window of data (NewReno's recovery
       point), or duplicate acks from a burst loss retransmit the same
       PDU over and over and spuriously exhaust its retry budget. *)
    if
      t.dup_acks >= 3
      && t.config.Policy.rtx_strategy = Policy.Selective_repeat
      && ack >= t.recover_until
    then begin
      Rina_util.Metrics.incr t.metrics "fast_rtx";
      if t.config.Policy.congestion_control then begin
        t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
        t.cwnd <- t.ssthresh
      end;
      t.recover_until <- t.next_seq;
      if highest_sacked > t.snd_una then retransmit_holes t highest_sacked
      else retransmit_seq t t.snd_una;
      t.dup_acks <- 0
    end
  end;
  t.last_ack_seen <- max t.last_ack_seen ack;
  t.send_limit <- max t.send_limit (ack + pdu.Pdu.window);
  drain_backlog t

(* Sanitizer hook: the connection-state invariants that hold after any
   PDU has been processed.  [snd_una] may never pass [next_seq], the
   outstanding window may never exceed the credit window, and the
   receiver may never buffer more out-of-order PDUs than it advertised
   space for. *)
let check_invariants c t =
  if t.snd_una > t.next_seq then
    Rina_util.Invariant.record c ~code:"SAN_EFCP_SEQ"
      (Printf.sprintf "cep %d: snd_una %d ahead of next_seq %d" t.local_cep
         t.snd_una t.next_seq);
  if reliable t && in_flight t > t.config.Policy.window then
    Rina_util.Invariant.record c ~code:"SAN_EFCP_WINDOW"
      (Printf.sprintf "cep %d: %d PDUs in flight exceeds window %d" t.local_cep
         (in_flight t) t.config.Policy.window);
  if Hashtbl.length t.ooo > t.config.Policy.reorder_window then
    Rina_util.Invariant.record c ~code:"SAN_EFCP_RCVBUF"
      (Printf.sprintf
         "cep %d: %d PDUs buffered out-of-order exceeds reorder_window %d"
         t.local_cep (Hashtbl.length t.ooo) t.config.Policy.reorder_window)

let handle_pdu t (pdu : Pdu.t) =
  if t.closed then ()
  else begin
    (match pdu.Pdu.pdu_type with
     | Pdu.Dtp -> handle_dtp t pdu
     | Pdu.Ack -> handle_ack t pdu
     | Pdu.Mgmt | Pdu.Hello -> Rina_util.Metrics.incr t.metrics "foreign_pdus");
    let c = Rina_sim.Engine.checks t.engine in
    if Rina_util.Invariant.enabled c then check_invariants c t
  end

(* Fast failover: [dead_path] just went Down, so every outstanding
   PDU whose last copy rode it is stranded until its RTO fires.
   Re-send them immediately (lowest seq first, so the receiver's
   reorder window sees the least skew) — forwarding already excludes
   the dead path, so the copies stripe onto survivors.  Deliberately
   leaves cwnd alone: a path failure is not a congestion signal, and
   halving the window would punish the surviving paths for the dead
   one's crime.  Returns how many PDUs were re-pathed. *)
let repath t ~dead_path =
  if t.closed || t.errored || (not (reliable t)) || dead_path = 0 then 0
  else begin
    let stranded =
      Hashtbl.fold
        (fun seq u acc ->
          if u.path = dead_path && not u.sacked then seq :: acc else acc)
        t.retx []
      |> List.sort compare
    in
    List.iter
      (fun seq ->
        Rina_util.Metrics.incr t.metrics "pdus_repath";
        retransmit_seq t seq)
      stranded;
    List.length stranded
  end

(* Congestion signal for layer push-back: this flow is either in an
   active ECN back-off episode (pacing installed / marks still fresh in
   the smoothed fraction) or its backlog has outgrown a full window —
   pressure an upper DIF should propagate rather than absorb. *)
let congested t =
  t.pace <> None
  || (Rina_util.Ewma.initialized t.ecn_frac
      && Rina_util.Ewma.value t.ecn_frac >= 0.05)
  || Queue.length t.backlog > t.config.Policy.window

let debug t =
  Printf.sprintf
    "next_seq=%d snd_una=%d limit=%d inflight=%d backlog=%d cwnd=%.1f rto=%.3f \
     timer=%b rcv_next=%d ooo=%d closed=%b errored=%b"
    t.next_seq t.snd_una t.send_limit (in_flight t) (Queue.length t.backlog)
    t.cwnd t.rto
    (t.rto_timer <> None)
    t.rcv_next (Hashtbl.length t.ooo) t.closed t.errored

let close t =
  if not t.closed then begin
    t.closed <- true;
    cancel_timer t.rto_timer;
    cancel_timer t.ack_timer;
    cancel_timer t.pace_timer;
    t.rto_timer <- None;
    t.ack_timer <- None;
    t.pace_timer <- None;
    Hashtbl.reset t.retx;
    Hashtbl.reset t.ooo;
    Hashtbl.reset t.dup_cache;
    Hashtbl.reset t.san_delivered;
    Queue.clear t.backlog
  end
