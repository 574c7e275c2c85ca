(** Duplex point-to-point link.

    Two independent unidirectional halves, each with a serialisation
    rate, propagation delay, a drop-tail queue bounded in packets, and
    a loss model.  [set_up] injects link failures: frames in flight or
    queued when the link goes down are lost, and carrier watchers on
    both endpoints fire — this is what the multihoming and mobility
    experiments use to "fail" paths. *)

type t

val create :
  Engine.t ->
  Rina_util.Prng.t ->
  bit_rate:float ->
  delay:float ->
  ?queue_capacity:int ->
  ?loss:Loss.t ->
  ?mangle:Mangle.t ->
  ?label:string ->
  unit ->
  t
(** [bit_rate] in bits/second, [delay] one-way propagation in seconds,
    [queue_capacity] in frames (default 64), [loss] per-direction
    (default [No_loss]), [mangle] per-direction adversarial model
    (default {!Mangle.none}).  [label] (default ["link"]) names the
    link in flight-recorder events: the two directions emit as
    [label^".ab"] and [label^".ba"].
    @raise Invalid_argument on non-positive rate/negative delay. *)

val endpoint_a : t -> Chan.t
val endpoint_b : t -> Chan.t

val set_up : t -> bool -> unit
(** Change carrier state; notifies watchers on both endpoints when the
    state actually changes. *)

val set_blackhole : t -> bool -> unit
(** Silently drop every frame in both directions *without* any carrier
    notification — the "silent failure" (misbehaving middlebox, radio
    shadow) that forces endpoints to detect loss by timeout.
    Swallowed frames are still visible to diagnostics: they count in
    the [blackholed] conservation column and emit
    [Flight.R_blackhole] drops, distinct from carrier loss. *)

val bit_rate : t -> float
(** Current serialisation rate in bits/second (both halves share it). *)

val delay : t -> float
(** One-way propagation delay in seconds (both halves share it). *)

val queue_capacity : t -> int
(** Drop-tail queue bound in frames (both halves share it). *)

val loss : t -> Loss.t
(** Current loss model specification. *)

val mangle : t -> Mangle.t
(** Current adversarial-mangling specification ({!Mangle.none} when the
    link is clean). *)

val set_bit_rate : t -> float -> unit
(** Change the serialisation rate of both halves — degradation faults
    ramp this down and back up.  Frames already serialising keep their
    old finish time.  @raise Invalid_argument if non-positive. *)

val set_loss : t -> Loss.t -> unit
(** Swap the loss model on both halves (fresh model state, so a
    Gilbert–Elliott burst does not leak across the swap). *)

val set_mangle : t -> Mangle.t -> unit
(** Swap the adversarial model on both halves (fresh state).  Frames
    already held back by a previous reorder model are still released by
    their own flush timers.  A corrupted frame is {e delivered} at the
    link layer (conservation counts it delivered) and discarded later by
    SDU-protection verification; a duplicated copy counts as one extra
    [injected] frame so the conservation identity
    [injected = delivered + dropped + blackholed] is preserved. *)

val crash_endpoint : t -> [ `A | `B ] -> unit
(** Fail-stop of one endpoint, seen from the wire: voids every frame in
    flight {e toward} that endpoint — including frames a mangler is
    holding back for reorder or delay-spike — so nothing contaminates a
    process that later restarts behind the same channel with a fresh
    address.  Voided frames drop with {!Rina_util.Flight.R_endpoint_crash}
    (metric [dropped_crash]) instead of [R_link_down]; conservation
    still balances.  The opposite direction and the carrier state are
    untouched (no watcher fires — a crash is not a carrier event).
    A node crash in [Rina_exp.Scenario.random_plan] calls this for
    every link incident to the crashed node. *)

val is_up : t -> bool

val stats_a : t -> Rina_util.Metrics.t
(** Counters for the half transmitting from endpoint A. *)

val stats_b : t -> Rina_util.Metrics.t

(** Sanitizer accounting for one direction (see
    {!Rina_check.Sanitizer.audit_link}): every frame handed to the link
    is [injected], and ends up [delivered], [dropped] (queue tail, loss
    model, carrier loss) or [blackholed] (swallowed while the carrier
    stayed up).  Once the event queue drains,
    [injected = delivered + dropped + blackholed] — the
    PDU-conservation invariant.  Only maintained while the engine's
    checks are enabled ({!Rina_check.Sanitizer.enable}, before the link
    carries traffic); the fields are mutable so tests can simulate an
    accounting leak. *)
type conservation = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable blackholed : int;
}

val conservation_a : t -> conservation
(** Accounting for frames sent by endpoint A (the forward half). *)

val conservation_b : t -> conservation

val queue_depth_a : t -> int
(** Frames currently queued or serialising on the A→B half; the value
    link-queue probes sample. *)

val queue_depth_b : t -> int
