type conservation = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable blackholed : int;
}

(* A frame held back by the mangler's reorder model: it re-enters the
   delivery stream after [remaining] later frames have overtaken it, or
   when the max-hold flush fires on an idle link, whichever is first. *)
type held = {
  hframe : bytes;
  h_epoch : int;
  mutable remaining : int;
  mutable released : bool;
}

type half = {
  engine : Engine.t;
  flight : Rina_util.Flight.recorder;  (* the engine's, for per-frame guards *)
  checks : Rina_util.Invariant.t;  (* likewise *)
  rng : Rina_util.Prng.t;
  mutable bit_rate : float;  (* mutable so faults can degrade a live link *)
  delay : float;
  queue_capacity : int;
  mutable loss : Loss.state;
  mutable mangle : Mangle.state;
  mutable held : held list;  (* oldest first; short (bounded by holds in flight) *)
  comp : string;  (* flight-recorder component name for this direction *)
  stats : Rina_util.Metrics.t;
  tx : Rina_util.Metrics.counter;  (* per-frame tallies, as handles *)
  tx_bytes : Rina_util.Metrics.counter;
  rx : Rina_util.Metrics.counter;
  rx_bytes : Rina_util.Metrics.counter;
  mutable busy_until : float;
  mutable queued : int;
  mutable receiver : bytes -> unit;
  mutable epoch : int;  (* bumped on carrier-down; voids in-flight frames *)
  mutable epoch_reason : Rina_util.Flight.reason;
      (* why the last epoch bump voided the in-flight frames: carrier
         loss (the default) or a crash of the receiving endpoint *)
  conserv : conservation;
      (* sanitizer accounting: only maintained while [checks] is
         enabled; at drain, injected must equal delivered + dropped *)
}

type t = {
  forward : half;  (* a -> b *)
  backward : half;  (* b -> a *)
  mutable up : bool;
  mutable blackhole : bool;
  mutable watchers : (bool -> unit) list;
}

let make_half engine rng ~bit_rate ~delay ~queue_capacity ~loss ~mangle ~comp =
  let stats = Rina_util.Metrics.create () in
  let counter = Rina_util.Metrics.counter stats in
  {
    engine;
    flight = Engine.flight engine;
    checks = Engine.checks engine;
    rng;
    bit_rate;
    delay;
    queue_capacity;
    loss = Loss.make_state loss;
    mangle = Mangle.make_state mangle;
    held = [];
    comp;
    stats;
    tx = counter "tx";
    tx_bytes = counter "tx_bytes";
    rx = counter "rx";
    rx_bytes = counter "rx_bytes";
    busy_until = 0.;
    queued = 0;
    receiver = (fun _ -> ());
    epoch = 0;
    epoch_reason = Rina_util.Flight.R_link_down;
    conserv = { injected = 0; delivered = 0; dropped = 0; blackholed = 0 };
  }

let create engine rng ~bit_rate ~delay ?(queue_capacity = 64) ?(loss = Loss.No_loss)
    ?(mangle = Mangle.none) ?(label = "link") () =
  if bit_rate <= 0. then invalid_arg "Link.create: bit_rate must be positive";
  if delay < 0. then invalid_arg "Link.create: delay must be non-negative";
  if queue_capacity <= 0 then
    invalid_arg "Link.create: queue_capacity must be positive";
  let rng_f = Rina_util.Prng.split rng and rng_b = Rina_util.Prng.split rng in
  {
    forward =
      make_half engine rng_f ~bit_rate ~delay ~queue_capacity ~loss ~mangle
        ~comp:(label ^ ".ab");
    backward =
      make_half engine rng_b ~bit_rate ~delay ~queue_capacity ~loss ~mangle
        ~comp:(label ^ ".ba");
    up = true;
    blackhole = false;
    watchers = [];
  }

(* Conservation accounting is guarded by the sanitizer flag at every
   site (a load and a branch) rather than hoisted into helper closures,
   so the disabled path allocates nothing extra per frame. *)
let[@inline] account_admission_drop half =
  if Rina_util.Invariant.enabled half.checks then begin
    half.conserv.injected <- half.conserv.injected + 1;
    half.conserv.dropped <- half.conserv.dropped + 1
  end

let[@inline] account_late_drop half =
  if Rina_util.Invariant.enabled half.checks then
    half.conserv.dropped <- half.conserv.dropped + 1

let[@inline] account_blackhole half =
  if Rina_util.Invariant.enabled half.checks then
    half.conserv.blackholed <- half.conserv.blackholed + 1

(* Flight-recorder emissions follow the same per-site guard discipline
   as the conservation accounting above: frames are opaque here, so
   events carry the frame size but no span id. *)
let[@inline] flight_drop half reason size =
  if Rina_util.Flight.on half.flight then
    Rina_util.Flight.emit_to half.flight ~component:half.comp ~size
      (Rina_util.Flight.Pdu_dropped reason)

(* A frame whose epoch went stale died with whatever voided it —
   carrier loss or an endpoint crash; the typed reason keeps a held-back
   frame from masquerading as an ordinary link_down drop. *)
let stale_drop half size =
  account_late_drop half;
  flight_drop half half.epoch_reason size;
  Rina_util.Metrics.incr half.stats
    (match half.epoch_reason with
     | Rina_util.Flight.R_endpoint_crash -> "dropped_crash"
     | _ -> "dropped_down")

(* ---------- delivery (post-propagation) ----------

   With no mangler the path is exactly the pre-mangle one: account,
   emit, hand the frame to the receiver.  The mangler adds three detours
   — a duplicate copy re-entering after dup_delay, a spiked frame
   re-entering late, and a held frame waiting for [remaining] later
   frames to overtake it — and each detour re-checks epoch / carrier /
   blackhole on re-entry with the same drop accounting as a first
   arrival, so conservation holds for every copy. *)

let rec deliver_frame t half frame =
  if Rina_util.Invariant.enabled half.checks then
    half.conserv.delivered <- half.conserv.delivered + 1;
  if Rina_util.Flight.on half.flight then
    Rina_util.Flight.emit_to half.flight ~component:half.comp
      ~size:(Bytes.length frame) Rina_util.Flight.Pdu_recvd;
  Rina_util.Metrics.bump half.rx;
  Rina_util.Metrics.bump_by half.rx_bytes (Bytes.length frame);
  half.receiver frame;
  if half.held <> [] then release_overtaken t half

and release_overtaken t half =
  (* One frame has passed every live hold; release the ones whose
     displacement is exhausted, oldest first.  Stale-epoch holds are
     dropped from the list here but accounted by their flush event. *)
  let ready = ref [] in
  half.held <-
    List.filter
      (fun h ->
        if h.released || h.h_epoch <> half.epoch then false
        else begin
          h.remaining <- h.remaining - 1;
          if h.remaining <= 0 then begin
            h.released <- true;
            ready := h :: !ready;
            false
          end
          else true
        end)
      half.held;
  List.iter (fun h -> redeliver t half h.h_epoch h.hframe) (List.rev !ready)

and redeliver t half epoch frame =
  if epoch = half.epoch && t.up && not t.blackhole then
    deliver_frame t half frame
  else if epoch = half.epoch && t.up then begin
    account_blackhole half;
    flight_drop half Rina_util.Flight.R_blackhole (Bytes.length frame);
    Rina_util.Metrics.incr half.stats "dropped_blackhole"
  end
  else stale_drop half (Bytes.length frame)

let hold_back t half epoch frame displacement =
  Rina_util.Metrics.incr half.stats "mangle_reorder";
  let h = { hframe = frame; h_epoch = epoch; remaining = displacement; released = false } in
  half.held <- half.held @ [ h ];
  let max_hold = (Mangle.model half.mangle).Mangle.max_hold in
  ignore
    (Engine.schedule half.engine ~delay:max_hold (fun () ->
         if not h.released then begin
           (* idle-link (or flapped-link) flush: nothing overtook it *)
           h.released <- true;
           half.held <- List.filter (fun x -> x != h) half.held;
           redeliver t half epoch h.hframe
         end))

let mangled_arrival t half epoch frame =
  let d =
    Mangle.decide half.mangle half.rng ~frame_bits:(8 * Bytes.length frame)
  in
  let frame =
    if d.Mangle.corrupt_bit >= 0 then begin
      Rina_util.Metrics.incr half.stats "mangle_corrupt";
      Mangle.flip_bit frame d.Mangle.corrupt_bit
    end
    else frame
  in
  if d.Mangle.dup then begin
    (* The copy is a new frame entering the channel: it counts as
       injected so conservation still balances, and it bypasses the
       mangler so one decision covers one original frame. *)
    Rina_util.Metrics.incr half.stats "mangle_dup";
    if Rina_util.Invariant.enabled half.checks then
      half.conserv.injected <- half.conserv.injected + 1;
    let copy = Bytes.copy frame in
    let dup_delay = (Mangle.model half.mangle).Mangle.dup_delay in
    ignore
      (Engine.schedule half.engine ~delay:dup_delay (fun () ->
           redeliver t half epoch copy))
  end;
  if d.Mangle.spike_by > 0. then begin
    Rina_util.Metrics.incr half.stats "mangle_spike";
    ignore
      (Engine.schedule half.engine ~delay:d.Mangle.spike_by (fun () ->
           if epoch = half.epoch && t.up && not t.blackhole then
             if d.Mangle.displacement > 0 then
               hold_back t half epoch frame d.Mangle.displacement
             else deliver_frame t half frame
           else redeliver t half epoch frame))
  end
  else if d.Mangle.displacement > 0 then
    hold_back t half epoch frame d.Mangle.displacement
  else deliver_frame t half frame

let transmit t half frame =
  let m = half.stats in
  if not t.up then begin
    account_admission_drop half;
    flight_drop half Rina_util.Flight.R_link_down (Bytes.length frame);
    Rina_util.Metrics.incr m "dropped_down"
  end
  else if half.queued >= half.queue_capacity then begin
    account_admission_drop half;
    flight_drop half Rina_util.Flight.R_queue_full (Bytes.length frame);
    Rina_util.Metrics.incr m "dropped_queue"
  end
  else begin
    if Rina_util.Invariant.enabled half.checks then
      half.conserv.injected <- half.conserv.injected + 1;
    if Rina_util.Flight.on half.flight then
      Rina_util.Flight.emit_to half.flight ~component:half.comp
        ~size:(Bytes.length frame) Rina_util.Flight.Pdu_sent;
    Rina_util.Metrics.bump half.tx;
    Rina_util.Metrics.bump_by half.tx_bytes (Bytes.length frame);
    half.queued <- half.queued + 1;
    let now = Engine.now half.engine in
    let start = Float.max now half.busy_until in
    let ser = float_of_int (8 * Bytes.length frame) /. half.bit_rate in
    let finish = start +. ser in
    half.busy_until <- finish;
    let epoch = half.epoch in
    ignore
      (Engine.schedule_at half.engine ~time:finish (fun () ->
           half.queued <- half.queued - 1;
           if epoch = half.epoch && t.up then
             if Loss.drops half.loss half.rng then begin
               account_late_drop half;
               flight_drop half Rina_util.Flight.R_loss (Bytes.length frame);
               Rina_util.Metrics.incr m "dropped_loss"
             end
             else
               ignore
                 (Engine.schedule half.engine ~delay:half.delay (fun () ->
                      if epoch = half.epoch && t.up && not t.blackhole then begin
                        if Mangle.is_none (Mangle.model half.mangle) then
                          deliver_frame t half frame
                        else mangled_arrival t half epoch frame
                      end
                      else if epoch = half.epoch && t.up then begin
                        (* carrier still up: the blackhole ate it *)
                        account_blackhole half;
                        flight_drop half Rina_util.Flight.R_blackhole
                          (Bytes.length frame);
                        Rina_util.Metrics.incr m "dropped_blackhole"
                      end
                      else stale_drop half (Bytes.length frame)))
           else stale_drop half (Bytes.length frame)))
  end

(* Endpoint A transmits on the forward half and receives from the
   backward half. *)
let endpoint_a t : Chan.t =
  {
    Chan.send = (fun frame -> transmit t t.forward frame);
    set_receiver = (fun f -> t.backward.receiver <- f);
    is_up = (fun () -> t.up);
    on_carrier = (fun f -> t.watchers <- f :: t.watchers);
  }

let endpoint_b t : Chan.t =
  {
    Chan.send = (fun frame -> transmit t t.backward frame);
    set_receiver = (fun f -> t.forward.receiver <- f);
    is_up = (fun () -> t.up);
    on_carrier = (fun f -> t.watchers <- f :: t.watchers);
  }

let set_blackhole t b = t.blackhole <- b

let bit_rate t = t.forward.bit_rate

let delay t = t.forward.delay

let queue_capacity t = t.forward.queue_capacity

let loss t = Loss.model t.forward.loss

let mangle t = Mangle.model t.forward.mangle

let set_bit_rate t bit_rate =
  if bit_rate <= 0. then invalid_arg "Link.set_bit_rate: must be positive";
  t.forward.bit_rate <- bit_rate;
  t.backward.bit_rate <- bit_rate

let set_loss t loss =
  t.forward.loss <- Loss.make_state loss;
  t.backward.loss <- Loss.make_state loss

let set_mangle t mangle =
  t.forward.mangle <- Mangle.make_state mangle;
  t.backward.mangle <- Mangle.make_state mangle

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    if not up then begin
      (* Void everything in flight and reset transmitter state. *)
      t.forward.epoch <- t.forward.epoch + 1;
      t.backward.epoch <- t.backward.epoch + 1;
      t.forward.epoch_reason <- Rina_util.Flight.R_link_down;
      t.backward.epoch_reason <- Rina_util.Flight.R_link_down;
      t.forward.busy_until <- Engine.now t.forward.engine;
      t.backward.busy_until <- Engine.now t.backward.engine
    end;
    List.iter (fun f -> f up) t.watchers
  end

let crash_endpoint t side =
  (* Fail-stop of one endpoint, seen from the wire: every frame in
     flight toward it — including copies a mangler is holding back for
     reorder or delay-spike — dies with [R_endpoint_crash] instead of
     reaching whatever process later reattaches to the same channel.
     Frames toward endpoint A travel on the backward half.  The other
     direction is untouched: the survivor's transmissions already in
     flight still arrive at the survivor's peer queue (and are thrown
     away there by the crashed process's ingress gate). *)
  let half = match side with `A -> t.backward | `B -> t.forward in
  half.epoch <- half.epoch + 1;
  half.epoch_reason <- Rina_util.Flight.R_endpoint_crash

let is_up t = t.up

let stats_a t = t.forward.stats

let stats_b t = t.backward.stats

let conservation_a t = t.forward.conserv

let conservation_b t = t.backward.conserv

let queue_depth_a t = t.forward.queued

let queue_depth_b t = t.backward.queued
