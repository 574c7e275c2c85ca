(* Conservative-lookahead parallel simulation of ONE trial.

   The topology is partitioned into shards, each with its own
   {!Engine}; cross-shard links hand frames to the peer shard through
   bounded lock-free SPSC mailboxes instead of scheduling on the peer
   engine directly.  Shards advance in epochs: a shard may run to
   [min over in-neighbours (grant + lookahead)] (classic
   Chandy-Misra-Bryant null-message-free conservative synchronization
   with the lookahead window rina_verify derives from cross-shard
   propagation delays), then publishes its own new grant.

   Determinism contract (the hard part): the merged behaviour must be
   a pure function of the seed — byte-identical whether the shards are
   stepped by 1 domain or N.  Two rules make that true:

   1. Cross-shard arrivals are NEVER pushed through the engine heap at
      drain time (heap insertion sequence numbers would then depend on
      when a mailbox happened to be drained).  They sit in a per-shard
      staging heap keyed (time, source shard id, per-source seq) and
      are interleaved with local events by timestamp, local events
      winning ties.  When a staged arrival is due before every local
      event it is scheduled and stepped immediately — the engine clock
      is strictly below its timestamp, so it cannot be reordered
      against anything already queued.

   2. A frame is enqueued at SEND time carrying its precomputed
      arrival timestamp (serialization finish + propagation delay).
      The sender publishes grant [g] only after executing every local
      event at or before [g], so any frame it sends later departs
      strictly after [g] and arrives strictly after [g + delay >=
      g + lookahead] — the receiver that drains the mailbox after
      reading [g] has every arrival at or below its horizon.

   Mailbox memory model: one producer (the source shard's worker), one
   consumer (the destination shard's worker).  The producer writes the
   slot then [Atomic.set]s head (release); the consumer [Atomic.get]s
   head (acquire) before reading slots, and publishes tail the same
   way for slot reuse.  Every operation carries a {!Rina_util.Race}
   annotation so the domain-race sanitizer can check the protocol: a
   [Race.acquire] follows the [Atomic.get] it pairs with and a
   [Race.release] precedes the [Atomic.set] that publishes, so the
   detector never sees a value before the clock that came with it.
   Each ring slot is its own race cell — producer and consumer
   legitimately touch different slots at the same time. *)

module Flight = Rina_util.Flight
module Metrics = Rina_util.Metrics
module Race = Rina_util.Race

type entry = {
  e_time : float;  (* precomputed arrival timestamp on the peer *)
  e_seq : int;  (* per-source-shard monotone sequence *)
  e_chan : int;  (* receive-slot index on the destination shard *)
  e_frame : bytes;  (* defensive copy: crosses a domain boundary *)
}

type mailbox = {
  mb_src : int;
  mb_dst : int;
  cap : int;
  slots : entry option array;
  head : int Atomic.t;  (* total enqueued; written by the producer only *)
  tail : int Atomic.t;  (* total drained; written by the consumer only *)
  mutable next_seq : int;  (* producer-side: seq of the next enqueue *)
  mutable mb_lookahead : float;  (* min delay over channels riding this box *)
  r_head : Race.sync;
  r_tail : Race.sync;
  r_slots : Race.cell array;  (* one per slot; empty unless the detector is armed *)
}

(* A drained entry staged for delivery, ordered (time, src, seq). *)
type staged = {
  s_time : float;
  s_src : int;
  s_seq : int;
  s_chan : int;
  s_frame : bytes;
}

type rx_chan = {
  mutable rx_recv : bytes -> unit;
  rx_comp : string;
  rx_stats : Metrics.t;  (* receiver-side counters: never shared cross-domain *)
}

type shard = {
  id : int;
  engine : Engine.t;
  mutable inboxes : mailbox list;
  mutable rx : rx_chan array;
  mutable rx_len : int;
  grant : float Atomic.t;  (* all local events <= grant have executed *)
  r_grant : Race.sync;
  mutable heap : staged array;  (* binary min-heap on (s_time, s_src, s_seq) *)
  mutable heap_len : int;
  mutable epochs : int;
  mutable crossed : int;  (* cross-shard frames delivered into this shard *)
}

type t = {
  shards : shard array;
  lookahead : float;
  mailbox_capacity : int;
  boxes : (int * int, mailbox) Hashtbl.t;
  mutable install : int -> unit;
  mutable uninstall : int -> unit;
  mutable parallel : bool;  (* picks the producer's overflow strategy *)
}

let create ?(mailbox_capacity = 8192) ~shards ~lookahead () =
  if shards < 1 then invalid_arg "Sharded.create: need at least one shard";
  if not (lookahead > 0.) then
    invalid_arg
      "Sharded.create: lookahead must be positive (a zero or absent \
       rina_verify lookahead means the partition cannot run in parallel)";
  if mailbox_capacity < 2 then
    invalid_arg "Sharded.create: mailbox_capacity must be at least 2";
  {
    shards =
      Array.init shards (fun id ->
          {
            id;
            engine = Engine.create ();
            inboxes = [];
            rx = [||];
            rx_len = 0;
            grant = Atomic.make 0.;
            r_grant = Race.sync (Printf.sprintf "sharded.grant[%d]" id);
            heap = [||];
            heap_len = 0;
            epochs = 0;
            crossed = 0;
          });
    lookahead;
    mailbox_capacity;
    boxes = Hashtbl.create 16;
    install = (fun _ -> ());
    uninstall = (fun _ -> ());
    parallel = false;
  }

let shard_count t = Array.length t.shards

let lookahead t = t.lookahead

let engine t i = t.shards.(i).engine

let set_context t ~install ~uninstall =
  t.install <- install;
  t.uninstall <- uninstall

let epochs t = Array.fold_left (fun acc sh -> acc + sh.epochs) 0 t.shards

let crossed t = Array.fold_left (fun acc sh -> acc + sh.crossed) 0 t.shards

let granted t =
  Array.fold_left (fun acc sh -> Float.min acc (Atomic.get sh.grant)) infinity
    t.shards

(* ---------- staging heap (time, src, seq) ---------- *)

let staged_lt a b =
  a.s_time < b.s_time
  || a.s_time = b.s_time
     && (a.s_src < b.s_src || (a.s_src = b.s_src && a.s_seq < b.s_seq))

let dummy_staged =
  { s_time = 0.; s_src = 0; s_seq = 0; s_chan = 0; s_frame = Bytes.empty }

let stage sh st =
  if sh.heap_len = Array.length sh.heap then begin
    let ncap = if sh.heap_len = 0 then 16 else 2 * sh.heap_len in
    let na = Array.make ncap dummy_staged in
    Array.blit sh.heap 0 na 0 sh.heap_len;
    sh.heap <- na
  end;
  sh.heap.(sh.heap_len) <- st;
  sh.heap_len <- sh.heap_len + 1;
  let i = ref (sh.heap_len - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    staged_lt sh.heap.(!i) sh.heap.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = sh.heap.(p) in
    sh.heap.(p) <- sh.heap.(!i);
    sh.heap.(!i) <- tmp;
    i := p
  done

let staged_pop sh =
  let top = sh.heap.(0) in
  sh.heap_len <- sh.heap_len - 1;
  sh.heap.(0) <- sh.heap.(sh.heap_len);
  sh.heap.(sh.heap_len) <- dummy_staged;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < sh.heap_len && staged_lt sh.heap.(l) sh.heap.(!m) then m := l;
    if r < sh.heap_len && staged_lt sh.heap.(r) sh.heap.(!m) then m := r;
    if !m = !i then continue := false
    else begin
      let tmp = sh.heap.(!m) in
      sh.heap.(!m) <- sh.heap.(!i);
      sh.heap.(!i) <- tmp;
      i := !m
    end
  done;
  top

(* ---------- mailboxes ---------- *)

let get_box t ~src ~dst =
  match Hashtbl.find_opt t.boxes (src, dst) with
  | Some mb -> mb
  | None ->
    let mb =
      {
        mb_src = src;
        mb_dst = dst;
        cap = t.mailbox_capacity;
        slots = Array.make t.mailbox_capacity None;
        head = Atomic.make 0;
        tail = Atomic.make 0;
        next_seq = 0;
        mb_lookahead = infinity;
        r_head = Race.sync (Printf.sprintf "sharded.mb[%d->%d].head" src dst);
        r_tail = Race.sync (Printf.sprintf "sharded.mb[%d->%d].tail" src dst);
        r_slots =
          (if Race.armed () then
             Array.init t.mailbox_capacity (fun i ->
                 Race.cell (Printf.sprintf "sharded.mb[%d->%d].slots[%d]" src dst i))
           else [||]);
      }
    in
    Hashtbl.add t.boxes (src, dst) mb;
    let dsh = t.shards.(dst) in
    dsh.inboxes <- dsh.inboxes @ [ mb ];
    mb

let slot_access access mb i =
  if Array.length mb.r_slots > 0 then access mb.r_slots.(i)

(* Consumer side: move everything published so far into the staging
   heap.  Runs only on the destination shard's worker (or inline from
   the producer in single-domain mode, where producer = consumer). *)
let drain sh mb =
  let hd = Atomic.get mb.head in
  Race.acquire mb.r_head;
  let tl = Atomic.get mb.tail in
  if hd > tl then begin
    for i = tl to hd - 1 do
      let slot = i mod mb.cap in
      slot_access Race.read mb slot;
      (match mb.slots.(slot) with
      | Some e ->
        slot_access Race.write mb slot;
        mb.slots.(slot) <- None;
        stage sh
          {
            s_time = e.e_time;
            s_src = mb.mb_src;
            s_seq = e.e_seq;
            s_chan = e.e_chan;
            s_frame = e.e_frame;
          }
      | None -> assert false)
    done;
    Race.release mb.r_tail;
    Atomic.set mb.tail hd
  end

(* Producer side.  A full ring blocks rather than drops: dropping
   would make behaviour depend on scheduling.  In single-domain mode
   the producer IS the consumer's domain, so it drains the peer
   inline; in parallel mode it spins — the skew bound (neighbour
   grants stay within one lookahead window) keeps the wait finite as
   long as the capacity covers one window's traffic. *)
let rec enqueue t mb e =
  let tl = Atomic.get mb.tail in
  Race.acquire mb.r_tail;
  let hd = Atomic.get mb.head in
  if hd - tl >= mb.cap then begin
    if t.parallel then Domain.cpu_relax ()
    else drain t.shards.(mb.mb_dst) mb;
    enqueue t mb e
  end
  else begin
    slot_access Race.write mb (hd mod mb.cap);
    mb.slots.(hd mod mb.cap) <- Some e;
    Race.release mb.r_head;
    Atomic.set mb.head (hd + 1)
  end

(* ---------- cross-shard channels ---------- *)

let deliver sh st =
  let rx = sh.rx.(st.s_chan) in
  let r = Flight.cur () in
  if Flight.on r then
    Flight.emit_to r ~component:rx.rx_comp ~size:(Bytes.length st.s_frame)
      Flight.Pdu_recvd;
  Metrics.incr rx.rx_stats "rx";
  Metrics.add rx.rx_stats "rx_bytes" (Bytes.length st.s_frame);
  sh.crossed <- sh.crossed + 1;
  rx.rx_recv st.s_frame

let add_rx sh ~comp =
  let rxc =
    { rx_recv = (fun _ -> ()); rx_comp = comp; rx_stats = Metrics.create () }
  in
  if sh.rx_len = Array.length sh.rx then begin
    let ncap = if sh.rx_len = 0 then 4 else 2 * sh.rx_len in
    let na = Array.make ncap rxc in
    Array.blit sh.rx 0 na 0 sh.rx_len;
    sh.rx <- na
  end;
  sh.rx.(sh.rx_len) <- rxc;
  sh.rx_len <- sh.rx_len + 1;
  sh.rx_len - 1

(* One direction of a cross-shard link: sender-side admission +
   serialization exactly like {!Link.transmit} (queue drop-tail, busy
   line, ser = 8*len/rate), but the post-serialization frame goes into
   the peer mailbox with its arrival timestamp instead of onto a peer
   engine.  No loss/mangle/carrier model here — cross-shard links are
   the trust boundary of the decomposition and stay ideal; put lossy
   links inside a shard. *)
let direction t ~src ~dst ~bit_rate ~delay ~queue_capacity ~comp =
  let mb = get_box t ~src ~dst in
  if delay < mb.mb_lookahead then mb.mb_lookahead <- delay;
  let src_sh = t.shards.(src) in
  let chan = add_rx t.shards.(dst) ~comp in
  let stats = Metrics.create () in
  let busy_until = ref 0. and queued = ref 0 in
  let send frame =
    if !queued >= queue_capacity then begin
      let r = Flight.cur () in
      if Flight.on r then
        Flight.emit_to r ~component:comp ~size:(Bytes.length frame)
          (Flight.Pdu_dropped Flight.R_queue_full);
      Metrics.incr stats "dropped_queue"
    end
    else begin
      let r = Flight.cur () in
      if Flight.on r then
        Flight.emit_to r ~component:comp ~size:(Bytes.length frame)
          Flight.Pdu_sent;
      Metrics.incr stats "tx";
      Metrics.add stats "tx_bytes" (Bytes.length frame);
      incr queued;
      let now = Engine.now src_sh.engine in
      let start = Float.max now !busy_until in
      let ser = float_of_int (8 * Bytes.length frame) /. bit_rate in
      let finish = start +. ser in
      busy_until := finish;
      ignore
        (Engine.schedule_at src_sh.engine ~time:finish (fun () -> decr queued));
      let seq = mb.next_seq in
      mb.next_seq <- seq + 1;
      enqueue t mb
        {
          e_time = finish +. delay;
          e_seq = seq;
          e_chan = chan;
          e_frame = Bytes.copy frame;
        }
    end
  in
  (send, stats, chan)

let cross_link t ?(queue_capacity = 64) ?(label = "xlink") ~src ~dst ~bit_rate
    ~delay () =
  let n = Array.length t.shards in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Sharded.cross_link: shard index out of range";
  if src = dst then
    invalid_arg "Sharded.cross_link: endpoints on the same shard (use Link)";
  if bit_rate <= 0. then
    invalid_arg "Sharded.cross_link: bit_rate must be positive";
  if queue_capacity <= 0 then
    invalid_arg "Sharded.cross_link: queue_capacity must be positive";
  if delay < t.lookahead then
    invalid_arg
      (Printf.sprintf
         "Sharded.cross_link: delay %g below the lookahead window %g — the \
          conservative horizon would admit late arrivals"
         delay t.lookahead);
  let send_f, stats_f, chan_f =
    direction t ~src ~dst ~bit_rate ~delay ~queue_capacity
      ~comp:(label ^ ".ab")
  in
  let send_b, stats_b, chan_b =
    direction t ~src:dst ~dst:src ~bit_rate ~delay ~queue_capacity
      ~comp:(label ^ ".ba")
  in
  (* Endpoint A transmits forward and receives from the backward slot
     (which lives on A's own shard); mirror for B — same layout as
     {!Link.endpoint_a}/[endpoint_b]. *)
  let ep_a : Chan.t =
    {
      Chan.send = send_f;
      set_receiver = (fun f -> t.shards.(src).rx.(chan_b).rx_recv <- f);
      is_up = (fun () -> true);
      on_carrier = (fun _ -> ());
      stats = stats_f;
    }
  in
  let ep_b : Chan.t =
    {
      Chan.send = send_b;
      set_receiver = (fun f -> t.shards.(dst).rx.(chan_f).rx_recv <- f);
      is_up = (fun () -> true);
      on_carrier = (fun _ -> ());
      stats = stats_b;
    }
  in
  (ep_a, ep_b)

(* ---------- the epoch loop ---------- *)

(* Run one shard up to [horizon]: interleave the engine heap with the
   staging heap by timestamp; local events win ties so the engine's own
   (time, insertion-seq) order is untouched.  A staged arrival due
   strictly before every local event is scheduled at its timestamp and
   stepped immediately — the clock is strictly below it, so the
   freshly pushed handle is the unique heap minimum. *)
let run_epoch sh ~horizon =
  let continue = ref true in
  while !continue do
    let nl =
      match Engine.next_time sh.engine with Some x -> x | None -> infinity
    in
    let nr = if sh.heap_len = 0 then infinity else sh.heap.(0).s_time in
    if Float.min nl nr > horizon then continue := false
    else if nl <= nr then ignore (Engine.step sh.engine)
    else begin
      let st = staged_pop sh in
      ignore
        (Engine.schedule_at sh.engine ~time:st.s_time (fun () ->
             deliver sh st));
      ignore (Engine.step sh.engine)
    end
  done

(* One attempt to advance a shard.  Order matters for conservativeness:
   read neighbour grants FIRST (acquire), then drain — every frame sent
   at or before a grant we read is already published when we drain. *)
let visit t sh ~until =
  let already = Atomic.get sh.grant in
  if already >= until then false
  else begin
    let horizon =
      List.fold_left
        (fun acc mb ->
          let src = t.shards.(mb.mb_src) in
          let granted = Atomic.get src.grant in
          Race.acquire src.r_grant;
          Float.min acc (granted +. mb.mb_lookahead))
        until sh.inboxes
    in
    if horizon <= already then false
    else begin
      List.iter (fun mb -> drain sh mb) sh.inboxes;
      t.install sh.id;
      run_epoch sh ~horizon;
      t.uninstall sh.id;
      sh.epochs <- sh.epochs + 1;
      Race.release sh.r_grant;
      Atomic.set sh.grant horizon;
      true
    end
  end

let run_worker t ~until mine =
  let finished sh = Atomic.get sh.grant >= until in
  (* Fruitless rounds first spin (cheap when a peer is about to grant
     on another core), then sleep: on an oversubscribed host a spinning
     worker would otherwise burn its whole OS timeslice before the
     productive domain gets the core back. *)
  let stalled = ref 0 in
  let rec go () =
    if not (List.for_all finished mine) then begin
      let progressed =
        List.fold_left
          (fun acc sh -> if visit t sh ~until then true else acc)
          false mine
      in
      if progressed then stalled := 0
      else begin
        incr stalled;
        if !stalled < 64 then Domain.cpu_relax ()
        else ignore (Unix.sleepf 0.0002)
      end;
      go ()
    end
  in
  go ()

let run ?(domains = 1) t ~until =
  let n = Array.length t.shards in
  let d = max 1 (min domains n) in
  let owned w =
    List.filter (fun sh -> sh.id mod d = w) (Array.to_list t.shards)
  in
  if d = 1 then begin
    t.parallel <- false;
    run_worker t ~until (owned 0)
  end
  else begin
    t.parallel <- true;
    let armed = Race.armed () in
    let spawned =
      List.init (d - 1) (fun i ->
          let w = i + 1 in
          let h = if armed then Some (Race.fork ()) else None in
          let dom =
            Domain.spawn (fun () ->
                (match h with Some h -> Race.child_begin h | None -> ());
                run_worker t ~until (owned w);
                match h with Some h -> Race.child_end h | None -> ())
          in
          (h, dom))
    in
    run_worker t ~until (owned 0);
    List.iter
      (fun (h, dom) ->
        Domain.join dom;
        match h with Some h -> Race.join h | None -> ())
      spawned;
    t.parallel <- false
  end;
  (* Deterministic epilogue: every event at or before [until] has run
     (the final horizon is exactly [until]), so this only settles each
     clock to [until] — same as a sequential [Engine.run ~until]. *)
  Array.iter (fun sh -> Engine.run ~until sh.engine) t.shards
