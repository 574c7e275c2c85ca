(** Discrete-event simulation engine.

    A single virtual clock and a queue of pending events.  Components
    schedule closures at absolute or relative virtual times; [run]
    executes them in timestamp order (FIFO among equal timestamps, so
    runs are deterministic).  Everything in this repository — links,
    EFCP timers, routing hello timers, TCP RTOs — runs on one engine.

    The queue is a calendar queue (Brown, CACM 1988): time buckets kept
    in (time, seq) order, sized from the pending events themselves, with
    a heap for events past its horizon.  Schedule and pop are O(1)
    amortised and fire events in exactly the order of a heap keyed by
    (time, seq).  Cancelled timers are reaped in bulk once they
    outnumber live ones, and timers scheduled on the {!Timer} lane sit
    in a coarse wheel until they come due, so the common
    cancel-before-fire pattern (retransmission timers on a healthy flow)
    never enters the queue.  Lane choice never affects firing order — it
    is a performance hint only.

    A pop allocates one boxed float for the new clock, and none when the
    clock does not move.  In dune's dev profile, which compiles with
    [-opaque], every call into this module from another one is indirect,
    and a float it returns, such as {!now}'s, comes back boxed: {!now}
    returns the clock's existing box, so it allocates nothing. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

(** Scheduling lane. [Timer] marks periodic / usually-cancelled timer
    classes (RTO, keepalive, hello) for the wheel fast lane; [Default]
    goes straight to the queue.  Semantics are identical. *)
type lane = Default | Timer

val wheel_granularity : float
(** Slot width of the [Timer]-lane wheel, in seconds.  Periodic work
    riding the wheel (snapshot timers, keepalives) cannot usefully
    tick faster than this — lint rule L118 warns on policy intervals
    below it. *)

val create : unit -> t
(** Fresh engine with the clock at 0.0 seconds. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : ?lane:lane -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  A negative
    delay is clamped to zero (runs "immediately", after currently
    pending same-time events).  An infinite delay is legal: the event
    fires only when {!run} drains the queue.
    @raise Invalid_argument if [delay] is NaN. *)

val schedule_at : ?lane:lane -> t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; times before [now] are clamped to [now].
    @raise Invalid_argument if [time] is NaN. *)

val cancel : handle -> unit
(** Prevent a pending event from firing; cancelling a fired or already
    cancelled event is a no-op.  The event's closure, and whatever it
    holds, is released at once, although the cancelled entry itself
    may stay queued until it is reaped. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    reaped). *)

val executed : t -> int
(** Total events popped off the queue since [create] (cancelled events
    included) — the denominator for per-event cost accounting. *)

val run : ?until:float -> t -> unit
(** Execute events in order.  With [until], stops once the next event
    is strictly beyond that time and sets the clock to [until];
    without it, runs until the queue drains.
    @raise Invalid_argument if [until] is NaN. *)

val step : t -> bool
(** Execute exactly one event; [false] if the queue was empty. *)

